package sweep

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
)

// wireTestFIFO is the registered factory of the wire tests and the fuzz
// corpus. It must be a named top-level function: closures defined at
// one source location share a code pointer.
func wireTestFIFO(policy.Host) policy.Policy { return policy.NewFIFO() }

var registerWireOnce sync.Once

func registerWireTestPolicy() {
	registerWireOnce.Do(func() { RegisterPolicy("wire-test-fifo", wireTestFIFO) })
}

// TestKeyIgnoresEngineAndObservers is the converse of the sensitivity
// tests: fields that never change a Result must not change the key, or
// a parallel-engine or traced run could not reuse a serial journal.
func TestKeyIgnoresEngineAndObservers(t *testing.T) {
	base := testCfg(1)
	want, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*machine.Config){
		"parallel": func(c *machine.Config) { c.Engine = machine.ParallelEngine },
		"probe":    func(c *machine.Config) { c.Probe = obs.NewRecorder(obs.Config{}) },
		"audit":    func(c *machine.Config) { c.Audit = check.New(check.Config{}) },
	} {
		c := base
		mutate(&c)
		got, err := Key(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s changed the key: %s -> %s", name, want, got)
		}
	}
}

// TestKeyRejectsNonFinite pins that a config JSON cannot encode fails
// with an error instead of panicking or hashing a partial encoding.
func TestKeyRejectsNonFinite(t *testing.T) {
	for name, mutate := range map[string]func(*machine.Config){
		"ratio-nan": func(c *machine.Config) { c.MemoryRatio = math.NaN() },
		"p-inf":     func(c *machine.Config) { c.Policy.P = math.Inf(1) },
	} {
		c := testCfg(1)
		mutate(&c)
		if k, err := Key(c); err == nil {
			t.Errorf("%s: keyed as %s, want an error", name, k)
		}
	}
}

// wireRoundTrip encodes cfg, sends it through JSON and decodes it.
func wireRoundTrip(t testing.TB, cfg machine.Config) machine.Config {
	t.Helper()
	w, err := ToWire(cfg)
	if err != nil {
		t.Fatalf("ToWire: %v", err)
	}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ConfigWire
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got, err := back.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestWireRoundTrip(t *testing.T) {
	registerWireTestPolicy()
	for name, cfg := range wireCorpus() {
		wantKey, err := Key(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := wireRoundTrip(t, cfg)
		gotKey, err := Key(got)
		if err != nil {
			t.Fatalf("%s: key of decoded config: %v", name, err)
		}
		if gotKey != wantKey {
			t.Errorf("%s: config changed key over the wire: %s -> %s", name, wantKey, gotKey)
		}
	}

	// The transport keeps the engine even though the key ignores it.
	par := testCfg(2)
	par.Engine = machine.ParallelEngine
	if got := wireRoundTrip(t, par); got.Engine != machine.ParallelEngine {
		t.Errorf("engine lost over the wire: got %v", got.Engine)
	}

	// Unregistered factory: refused at encode time.
	rogue := testCfg(5)
	rogue.Policy = machine.PolicySpec{Factory: func(policy.Host) policy.Policy { return policy.NewFIFO() }}
	if _, err := ToWire(rogue); err == nil || !strings.Contains(err.Error(), "RegisterPolicy") {
		t.Errorf("unregistered factory encoded without error (err=%v)", err)
	}

	// Unknown name: refused at decode time with a registration hint.
	w := ConfigWire{Config: testCfg(6), Policy: policyWire{Factory: "no-such-policy"}}
	if _, err := w.Decode(); err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Errorf("unknown factory name decoded without error (err=%v)", err)
	}
}

// wireCorpus is one config per shape the encoding must carry: the
// fuzz target's seed corpus under testdata/fuzz/FuzzConfigWire holds
// their encodings.
func wireCorpus() map[string]machine.Config {
	builtin := testCfg(3)
	builtin.Policy = machine.PolicySpec{Kind: machine.CMCP, P: 0.5, DynamicP: true}
	topo := testCfg(4)
	topo.Topology = sim.DefaultTopology(2, 1)
	faults := testCfg(5)
	faults.Faults = &fault9
	factory := testCfg(6)
	factory.Policy = machine.PolicySpec{Factory: wireTestFIFO}
	return map[string]machine.Config{
		"builtin":  builtin,
		"tenants":  tenantCfg(1),
		"topology": topo,
		"faults":   faults,
		"factory":  factory,
	}
}

// FuzzConfigWire feeds arbitrary bytes to the coordinator-wire decoder.
// Nothing may panic, and any input that decodes must keep its content
// key across a further encode/decode round trip, so a config can never
// drift between coordinator and worker.
func FuzzConfigWire(f *testing.F) {
	registerWireTestPolicy()
	f.Fuzz(func(t *testing.T, data []byte) {
		var w ConfigWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		cfg, err := w.Decode()
		if err != nil {
			return
		}
		key, err := Key(cfg)
		if err != nil {
			return
		}
		again, err := Key(wireRoundTrip(t, cfg))
		if err != nil {
			t.Fatalf("round-tripped config cannot be keyed: %v", err)
		}
		if again != key {
			t.Fatalf("key drifted over a round trip: %s -> %s", key, again)
		}
	})
}
