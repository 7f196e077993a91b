package sweep

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/vm"
)

// customFIFO is a custom policy factory: Key must refuse any config
// that carries one.
func customFIFO(policy.Host) policy.Policy { return policy.NewFIFO() }

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

// TestKeyRejectsCustomFactory pins that any config carrying a custom
// policy factory, a named function or a closure, fails with
// ErrCustomFactory: a function value has no identity a journal could
// key it by.
func TestKeyRejectsCustomFactory(t *testing.T) {
	for name, factory := range map[string]vm.PolicyFactory{
		"function": customFIFO,
		"closure":  func(policy.Host) policy.Policy { return policy.NewFIFO() },
	} {
		c := testCfg(1)
		c.Policy = machine.PolicySpec{Factory: factory}
		if k, err := Key(c); !errors.Is(err, ErrCustomFactory) {
			t.Errorf("%s: key %q, err %v; want ErrCustomFactory", name, k, err)
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

// decodeConfig is the inverse of toWire for the tests: it turns a
// config's JSON encoding back into a runnable machine.Config. ok is
// false when data is not a config. A "factory" field in the policy,
// which toWire never writes, decodes as a custom factory.
func decodeConfig(data []byte) (cfg machine.Config, ok bool) {
	var w struct {
		configWire
		Policy struct {
			policyWire
			Factory string `json:"factory"`
		} `json:"Policy"`
	}
	if json.Unmarshal(data, &w) != nil {
		return machine.Config{}, false
	}
	cfg = w.Config
	// Key never encodes the observers, so FuzzKey must not poison
	// their fields either.
	cfg.Probe, cfg.Audit = nil, nil
	p := w.Policy.policyWire
	cfg.Policy = machine.PolicySpec{
		Kind:       p.Kind,
		P:          p.P,
		DynamicP:   p.DynamicP,
		ScanPeriod: p.ScanPeriod,
		ScanBatch:  p.ScanBatch,
	}
	if w.Policy.Factory != "" {
		cfg.Policy.Factory = customFIFO
	}
	return cfg, true
}

// encodeConfig is the JSON encoding Key hashes.
func encodeConfig(t testing.TB, cfg machine.Config) []byte {
	t.Helper()
	w, err := toWire(cfg)
	if err != nil {
		t.Fatalf("toWire: %v", err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestKeyCorpus keys one config per shape the encoding must carry:
// each keys deterministically, no two shapes share a key, and a config
// decoded from the encoding keys the same as the original, so the key
// is a function of the encoding alone.
func TestKeyCorpus(t *testing.T) {
	seen := map[string]string{}
	for name, cfg := range keyCorpus() {
		key, err := Key(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := Key(cfg); err != nil || again != key {
			t.Errorf("%s: keyed %s then %s (err %v)", name, key, again, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share key %s", name, prev, key)
		}
		seen[key] = name
		back, ok := decodeConfig(encodeConfig(t, cfg))
		if !ok {
			t.Fatalf("%s: encoding does not decode", name)
		}
		if got, err := Key(back); err != nil || got != key {
			t.Errorf("%s: decoded config keys %s (err %v), want %s", name, got, err, key)
		}
	}
}

// keyCorpus is one config per shape the encoding must carry: the
// fuzz target's seed corpus under testdata/fuzz/FuzzKey holds their
// encodings, plus a "factory" seed whose config Key must refuse.
func keyCorpus() map[string]machine.Config {
	builtin := testCfg(3)
	builtin.Policy = machine.PolicySpec{Kind: machine.CMCP, P: 0.5, DynamicP: true}
	topo := testCfg(4)
	topo.Topology = sim.DefaultTopology(2, 1)
	faults := testCfg(5)
	faults.Faults = &fault9
	return map[string]machine.Config{
		"builtin":  builtin,
		"tenants":  tenantCfg(1),
		"topology": topo,
		"faults":   faults,
	}
}

// floatFields returns every settable float64 reachable from v through
// struct fields, non-nil pointers, slices and arrays.
func floatFields(v reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Float64:
		if v.CanSet() {
			return []reflect.Value{v}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return floatFields(v.Elem())
		}
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, floatFields(v.Field(i))...)
		}
		return out
	case reflect.Slice, reflect.Array:
		var out []reflect.Value
		for i := 0; i < v.Len(); i++ {
			out = append(out, floatFields(v.Index(i))...)
		}
		return out
	}
	return nil
}

// FuzzKey feeds arbitrary bytes, decoded as a config, to Key. Nothing
// may panic; a config with a custom factory must fail with
// ErrCustomFactory; every other decodable config must key,
// deterministically and identically after a further encode/decode
// round trip; and a non-finite value in any of its float fields must
// make Key fail with an error rather than hash a partial encoding.
func FuzzKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ok := decodeConfig(data)
		if !ok {
			return
		}
		if cfg.Policy.Factory != nil {
			if k, err := Key(cfg); !errors.Is(err, ErrCustomFactory) {
				t.Fatalf("custom-factory config: key %q, err %v; want ErrCustomFactory", k, err)
			}
			return
		}
		key, err := Key(cfg)
		if err != nil {
			t.Fatalf("decoded config cannot be keyed: %v", err)
		}
		if again, err := Key(cfg); err != nil || again != key {
			t.Fatalf("key not deterministic: %s then %s (err %v)", key, again, err)
		}
		back, ok := decodeConfig(encodeConfig(t, cfg))
		if !ok {
			t.Fatal("re-encoded config does not decode")
		}
		if again, err := Key(back); err != nil || again != key {
			t.Fatalf("key drifted over a round trip: %s -> %s (err %v)", key, again, err)
		}
		// One field and one non-finite value per input, picked from the
		// input's length, keeps an execution at three encodings; the
		// fuzzer's stream of inputs covers the rest.
		if fields := floatFields(reflect.ValueOf(&cfg).Elem()); len(fields) > 0 {
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[len(data)%3]
			fields[len(data)%len(fields)].SetFloat(bad)
			if k, err := Key(cfg); err == nil {
				t.Fatalf("non-finite %v keyed as %s", bad, k)
			}
		}
	})
}
