package sweep

import (
	"fmt"
	"reflect"
	"sync"

	"cmcp/internal/vm"
)

// The policy registry gives custom replacement policies a stable
// cross-process identity. A bare Policy.Factory is a function value:
// it has no name that survives serialization, so the content key —
// and with it journaling and sharding — used to reject custom-policy
// configs outright. Registering the factory under a name fixes that:
// the key hashes the registered name (plus the rest of the config as
// usual). Unregistered factories still error, exactly as before — an
// unnameable function cannot be content-addressed.
//
// Names are part of the experiment's identity: re-registering a
// DIFFERENT factory under an old name would silently let stale journal
// entries satisfy a new sweep. Registration therefore refuses name
// reuse (and refuses registering one factory function under two names,
// which would make the reverse lookup ambiguous).
var (
	regMu     sync.RWMutex
	regByName = map[string]bool{}
	regByPtr  = map[uintptr]string{}
)

// RegisterPolicy registers a custom policy factory under a stable
// name, giving configs that carry it a deterministic content key. Call
// it once per factory, typically from an init function or test setup;
// every process sharing a journal (shards, resumes) must register the
// same name for the same factory.
//
// RegisterPolicy panics on a duplicate name, on a factory already
// registered under another name, and on two distinct closures sharing
// one code pointer (Go closures from the same source location are
// indistinguishable at runtime, so only one may be registered —
// wrap variants in distinct top-level functions instead).
func RegisterPolicy(name string, factory vm.PolicyFactory) {
	if name == "" || factory == nil {
		panic("sweep: RegisterPolicy needs a non-empty name and a non-nil factory")
	}
	ptr := reflect.ValueOf(factory).Pointer()
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByName[name]; dup {
		panic(fmt.Sprintf("sweep: policy name %q already registered", name))
	}
	if prev, dup := regByPtr[ptr]; dup {
		panic(fmt.Sprintf("sweep: policy factory already registered as %q (distinct closures from one source location share a code pointer; use distinct top-level functions)", prev))
	}
	regByName[name] = true
	regByPtr[ptr] = name
}

// registeredName reverse-resolves a factory to its registered name;
// ok is false for unregistered factories.
func registeredName(factory vm.PolicyFactory) (string, bool) {
	if factory == nil {
		return "", false
	}
	regMu.RLock()
	defer regMu.RUnlock()
	name, ok := regByPtr[reflect.ValueOf(factory).Pointer()]
	return name, ok
}
