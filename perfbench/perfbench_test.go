package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cmcp"
	"cmcp/internal/vm"
)

// smallConfig is a seconds-long config for tests.
func smallConfig(tables cmcp.TableKind, ps cmcp.PolicySpec) cmcp.Config {
	return cmcp.Config{
		Cores: 8, Workload: cmcp.BT().Scale(0.05), Tables: tables, MemoryRatio: 0.5,
		Policy: ps, Seed: 7,
	}
}

func smallTenantConfig() cmcp.Config {
	s := cmcp.DefaultTenantSpec(32, 1.1, 50)
	return cmcp.Config{
		Cores: 4, Tenants: &s, Tables: cmcp.PSPT, MemoryRatio: 0.5,
		Policy: cmcp.PolicySpec{Kind: cmcp.CMCP, P: -1}, Seed: 7,
	}
}

func mustSimulate(t *testing.T, cfg cmcp.Config) *cmcp.Result {
	t.Helper()
	res, err := cmcp.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDecoratorFidelity(t *testing.T) {
	var cases []benchConfig
	for _, tables := range []cmcp.TableKind{cmcp.RegularPT, cmcp.PSPT} {
		for _, k := range []cmcp.PolicyKind{cmcp.FIFO, cmcp.LRU, cmcp.CMCP, cmcp.CLOCK, cmcp.LFU, cmcp.Random} {
			cases = append(cases, benchConfig{k.String(), smallConfig(tables, cmcp.PolicySpec{Kind: k, P: -1})})
		}
	}
	cases = append(cases,
		benchConfig{"CMCP-dynamic-p", smallConfig(cmcp.PSPT, cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.5, DynamicP: true})},
		benchConfig{"tenants", smallTenantConfig()},
	)
	for _, bc := range cases {
		pages, err := bc.pages()
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		cfg, err := tracedConfig(bc, pages, tr)
		if err != nil {
			t.Fatal(err)
		}
		plain := fingerprintOf(mustSimulate(t, bc.cfg))
		traced := fingerprintOf(mustSimulate(t, cfg))
		if !traced.Equal(plain) {
			t.Errorf("%v/%s: decorated run differs: runtime %d, plain %d", bc.cfg.Tables, bc.name, traced.Runtime, plain.Runtime)
		}
		if tr.tally.calls[spanVictim] == 0 || tr.tally.calls[spanPTESetup] == 0 {
			t.Errorf("%v/%s: decorator saw no policy calls", bc.cfg.Tables, bc.name)
		}
		// Every scanner tick ticks each policy once, closing its span.
		if tr.tickLeft != 0 || tr.tally.tickCalls != tr.tally.calls[spanTick]*int64(tr.policies) {
			t.Errorf("%v/%s: %d Ticks in %d tick spans over %d policies", bc.cfg.Tables, bc.name,
				tr.tally.tickCalls, tr.tally.calls[spanTick], tr.policies)
		}
	}
}

func TestDecoratorForwardsExtensions(t *testing.T) {
	tr := newTracer()
	for _, ps := range []cmcp.PolicySpec{{Kind: cmcp.CMCP, P: -1}, {Kind: cmcp.FIFO}, {Kind: cmcp.LRU}} {
		f, err := builtinFactory(smallConfig(cmcp.PSPT, ps), 64, 256)
		if err != nil {
			t.Fatal(err)
		}
		inner := f(tracedHost{tr: tr})
		wrapped := wrapPolicy(inner, tr)
		_, innerFO := inner.(vm.FaultObserver)
		_, wrappedFO := wrapped.(vm.FaultObserver)
		_, innerG := inner.(grouper)
		_, wrappedG := wrapped.(grouper)
		if innerFO != wrappedFO || innerG != wrappedG {
			t.Errorf("%v: inner FaultObserver/Groups %v/%v, wrapped %v/%v", ps.Kind, innerFO, innerG, wrappedFO, wrappedG)
		}
	}
}

// testWorkload is one small config under a name no pin file holds.
func testWorkload() benchWorkload {
	return benchWorkload{name: "test", configs: func(seed uint64) []benchConfig {
		cfg := smallConfig(cmcp.PSPT, cmcp.PolicySpec{Kind: cmcp.CMCP, P: -1})
		cfg.Seed = seed
		return []benchConfig{{"CMCP", cfg}}
	}}
}

func TestPerturbedFingerprintCountsAsFailure(t *testing.T) {
	wl := testWorkload()
	bc := wl.configs(defaultSeed)[0]
	pages, err := bc.pages()
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintOf(mustSimulate(t, bc.cfg))
	fp.Counters["page_faults"]++
	pins := pinTable{Seed: defaultSeed, Configs: map[string]Fingerprint{bc.key(wl.name): fp}}

	var logged []string
	r := &runner{wl: wl, seed: defaultSeed, log: func(f string, a ...any) { logged = append(logged, f) }}
	r.chk = newChecker(pins, defaultSeed, r.log)
	m, err := r.measure(time.Millisecond, time.Now())
	if err != nil {
		t.Fatalf("a mismatch aborted the run: %v", err)
	}
	if r.chk.attempted < setupRounds+1 || r.chk.failed != r.chk.attempted {
		t.Fatalf("attempted %d, failed %d: every call should fail", r.chk.attempted, r.chk.failed)
	}
	if m["ok_runs_frac"] != 0 || len(logged) != r.chk.failed {
		t.Fatalf("ok_runs_frac %v, %d log lines for %d failures", m["ok_runs_frac"], len(logged), r.chk.failed)
	}

	// The exact pin passes; at an unpinned seed a call must equal the
	// first call of its config.
	fp.Counters["page_faults"]--
	c := newChecker(pins, defaultSeed, t.Logf)
	if res := mustSimulate(t, bc.cfg); !c.check(bc.key(wl.name), bc, pages, res, nil) {
		t.Fatal("the pinned fingerprint was rejected")
	}
	c = newChecker(pins, 99, t.Logf)
	res := mustSimulate(t, bc.cfg)
	if !c.check("x", bc, pages, res, nil) || !c.check("x", bc, pages, res, nil) {
		t.Fatal("a repeated result was rejected")
	}
	res.Runtime++
	if c.check("x", bc, pages, res, nil) || c.failed != 1 || c.attempted != 3 {
		t.Fatalf("a perturbed repeat was accepted (failed %d of %d)", c.failed, c.attempted)
	}
}

func TestPinsCoverEveryConfig(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, wl := range workloads {
		for _, bc := range wl.configs(pins.Seed) {
			want[bc.key(wl.name)] = true
			if _, ok := pins.Configs[bc.key(wl.name)]; !ok {
				t.Errorf("%s has no pinned fingerprint", bc.key(wl.name))
			}
		}
	}
	for key := range pins.Configs {
		if !want[key] {
			t.Errorf("pinned fingerprint %s belongs to no workload", key)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, want %d", len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if w := c.want[i]; d != (def{w.name, w.unit, w.better}) {
				t.Errorf("metric %d: %+v, want %+v", i, d, w)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		if q1, q2, q3 := quartiles(c.xs); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTracedRunSpans(t *testing.T) {
	r := &runner{wl: testWorkload(), seed: 3, log: t.Logf}
	m, spans, err := r.traced(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.chk.failed != 0 {
		t.Fatalf("%d of %d calls failed", r.chk.failed, r.chk.attempted)
	}
	m.emit(perLayer) // panics on a missing or undeclared metric
	if m["machine.parallel_speedup"] <= 0 || m["workload.next_ns"] <= 0 || m["policy.victim_calls"] == 0 {
		t.Fatalf("implausible per-layer metrics: %v", m)
	}
	for i, s := range spans {
		if s.End < s.Start || s.Parent >= i || (s.Parent >= 0 && spans[s.Parent].Call != s.Call) {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}

	dir := t.TempDir()
	if err := writeSpans(dir, "test", hostFingerprint("c", 3), spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "test.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph  string
			Tid int
		}
	}
	if err := json.Unmarshal(b, &chrome); err != nil {
		t.Fatal(err)
	}
	tracks := map[int]bool{}
	for _, e := range chrome.TraceEvents {
		if e.Ph == "X" {
			tracks[e.Tid] = true
		}
	}
	if len(chrome.TraceEvents) != len(spans)+len(layers) || len(tracks) < 3 {
		t.Fatalf("%d events on %d tracks for %d spans", len(chrome.TraceEvents), len(tracks), len(spans))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		var buf bytes.Buffer
		for seed := uint64(1); seed <= 4; seed++ {
			rec := record{Schema: recordSchema, Workload: "w", Host: hostInfo{Seed: seed}, Result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"touches_per_s": {Value: rate + float64(seed), Unit: "1/s"}},
			}}
			b, _ := json.Marshal(rec)
			buf.Write(append(b, '\n'))
			buf.WriteString("{\"correct\":true}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a", 100), write("b", 110)
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", a, b}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "4/4") || !strings.Contains(out.String(), "102.5") {
		t.Fatalf("compare output:\n%s", out.String())
	}
}
