package sweep

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmcp/internal/machine"
	"cmcp/internal/policy"
)

// Top-level factory functions: closures defined at one source location
// share a code pointer, so registry tests need genuinely distinct
// functions.
func regTestFIFO(policy.Host) policy.Policy  { return policy.NewFIFO() }
func regTestFIFO2(policy.Host) policy.Policy { return policy.NewFIFO() }
func regTestFIFO3(policy.Host) policy.Policy { return policy.NewFIFO() }

// TestRegisteredFactoryGetsStableKey pins the registry satellite: a
// registered custom factory keys deterministically, keys differently
// from the built-in config it otherwise matches, and an unregistered
// factory is still rejected with the original error.
func TestRegisteredFactoryGetsStableKey(t *testing.T) {
	RegisterPolicy("reg-test-fifo", regTestFIFO)

	c := testCfg(1)
	c.Policy = machine.PolicySpec{Factory: regTestFIFO}
	k1, err := Key(c)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(c)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("registered factory keys nondeterministically: %s vs %s", k1, k2)
	}

	// The registered name is part of the identity: the same config with
	// no factory (built-in kind) must key differently, or a custom-policy
	// journal entry could satisfy a built-in sweep.
	builtin, err := Key(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if k1 == builtin {
		t.Fatal("registered-factory key collides with the built-in config's key")
	}

	// Unregistered factories still cannot be content-addressed.
	c.Policy = machine.PolicySpec{Factory: func(policy.Host) policy.Policy { return policy.NewFIFO() }}
	if _, err := Key(c); err == nil || !strings.Contains(err.Error(), "RegisterPolicy") {
		t.Fatalf("err = %v, want unregistered-factory rejection", err)
	}
}

// TestRegisteredFactorySweepResumes runs a registered-factory config
// through the full journal cycle: execute once, resume from journal.
func TestRegisteredFactorySweepResumes(t *testing.T) {
	RegisterPolicy("reg-test-fifo-sweep", regTestFIFO2)
	c := testCfg(3)
	c.Policy = machine.PolicySpec{Factory: regTestFIFO2}

	j := filepath.Join(t.TempDir(), "factory.jsonl")
	first, err := Run([]machine.Config{c}, Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", first.Executed)
	}
	again, err := Run([]machine.Config{c}, Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Loaded != 1 {
		t.Fatalf("resume executed %d, loaded %d, want 0 and 1", again.Executed, again.Loaded)
	}
	// DeepEqual treats non-nil func values as never equal, so compare
	// with the Config (which carries the factory) zeroed; both sides
	// hold the same submitted Config by construction anyway.
	a, b := *first.Results[0], *again.Results[0]
	a.Config, b.Config = machine.Config{}, machine.Config{}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("journal-resumed factory run differs")
	}
}

// TestRegisterPolicyRefusesDuplicates pins the registration guards.
func TestRegisterPolicyRefusesDuplicates(t *testing.T) {
	RegisterPolicy("reg-test-dup", regTestFIFO3)

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("dup name", func() { RegisterPolicy("reg-test-dup", func(policy.Host) policy.Policy { return policy.NewFIFO() }) })
	expectPanic("dup factory", func() { RegisterPolicy("reg-test-dup-2", regTestFIFO3) })
	expectPanic("empty name", func() { RegisterPolicy("", func(policy.Host) policy.Policy { return policy.NewFIFO() }) })
	expectPanic("nil factory", func() { RegisterPolicy("reg-test-nil", nil) })

	// The first registration survives the refused ones.
	if name, ok := registeredName(regTestFIFO3); !ok || name != "reg-test-dup" {
		t.Errorf("registeredName = %q, %v; want reg-test-dup, true", name, ok)
	}
}
