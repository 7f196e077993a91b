package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"cmcp/internal/machine"
	"cmcp/internal/sim"
)

// keyVersion is folded into every content key. Bump it whenever the
// meaning of an encoded field changes (not merely when fields are
// added — added fields change keys by themselves), so journals written
// under older semantics can never satisfy a new sweep.
//
// v2: multi-tenant machines (Config.Tenants and a per-tenant Run
// record). v3: the key is derived from the JSON wire encoding instead
// of a hand-kept field walk, so every key changed.
const keyVersion = 3

// ErrCustomFactory is the error Key returns for a config whose policy
// is a custom Policy.Factory. A function value has no identity that
// survives serialization, so such a run cannot be journaled or resumed;
// sweep a built-in PolicyKind instead.
var ErrCustomFactory = errors.New("sweep: custom Policy.Factory configs cannot be content-keyed (a function value has no stable cross-process identity); use a built-in PolicyKind")

// machine.Config is almost JSON: the one exception is Policy.Factory, a
// function value that encoding/json rejects even when nil. configWire
// shadows the Policy field with a mirror that leaves it out — the
// embedded Config's own Policy is never encoded, Go's JSON depth rule
// sees to that. Probe and Audit are single-run observers the sweep
// layer rejects, so they are always nil here.

// policyWire mirrors machine.PolicySpec without its Factory.
type policyWire struct {
	Kind       machine.PolicyKind `json:"kind"`
	P          float64            `json:"p"`
	DynamicP   bool               `json:"dynamic_p,omitempty"`
	ScanPeriod sim.Cycles         `json:"scan_period,omitempty"`
	ScanBatch  int                `json:"scan_batch,omitempty"`
}

// configWire is machine.Config with the Policy field made
// serializable. The mirror's JSON name must be exactly "Policy": Go's
// shadowing rule hides the embedded func-carrying field only when the
// two fields' JSON names collide — with a different name both would
// encode, and encoding/json rejects func-typed fields even when nil.
type configWire struct {
	machine.Config
	Policy policyWire `json:"Policy"`
}

// toWire encodes cfg for hashing. It fails with ErrCustomFactory on a
// custom policy factory.
func toWire(cfg machine.Config) (configWire, error) {
	if cfg.Policy.Factory != nil {
		return configWire{}, ErrCustomFactory
	}
	pw := policyWire{
		Kind:       cfg.Policy.Kind,
		P:          cfg.Policy.P,
		DynamicP:   cfg.Policy.DynamicP,
		ScanPeriod: cfg.Policy.ScanPeriod,
		ScanBatch:  cfg.Policy.ScanBatch,
	}
	c := cfg
	c.Policy = machine.PolicySpec{} // shadowed; zeroed for hygiene
	c.Probe, c.Audit = nil, nil
	return configWire{Config: c, Policy: pw}, nil
}

// Key returns the deterministic content key of one run configuration: a
// 64-bit FNV-1a hash, rendered as 16 hex digits, over keyVersion and the
// JSON encoding of toWire(cfg). Every exported Config field therefore
// reaches the key with no hand-kept list, and two Configs share a key
// iff they describe the same deterministic run — which is what lets a
// journal replace re-execution.
//
// Three fields are left out because they never change a Result: Engine
// (both of its names run the one event loop), and the read-only
// observers Probe and Audit. Hist is kept: it never changes counters,
// but it does change the journaled Run payload (histograms present or
// absent). A custom Policy.Factory (ErrCustomFactory) or a non-finite
// float anywhere in the config is an error.
func Key(cfg machine.Config) (string, error) {
	cfg.Engine = machine.SerialEngine
	w, err := toWire(cfg)
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(w)
	if err != nil {
		return "", fmt.Errorf("sweep: encoding config for its content key: %w", err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "cmcp-key/v%d\n", keyVersion)
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
