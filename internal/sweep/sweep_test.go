package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmcp/internal/machine"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// testCfg is a small, fast PSPT run; seeds differentiate grid points.
func testCfg(seed uint64) machine.Config {
	return machine.Config{
		Cores:       2,
		Workload:    workload.Uniform(128, 3000),
		MemoryRatio: 0.5,
		PageSize:    sim.Size4k,
		Tables:      vm.PSPTKind,
		Policy:      machine.PolicySpec{Kind: machine.FIFO, P: -1},
		Seed:        seed,
	}
}

// grid is a small mixed sweep: two policies at two seeds.
func grid() []machine.Config {
	var cfgs []machine.Config
	for _, kind := range []machine.PolicyKind{machine.FIFO, machine.CMCP} {
		for seed := uint64(1); seed <= 2; seed++ {
			c := testCfg(seed)
			c.Policy = machine.PolicySpec{Kind: kind, P: 0.5}
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	base := testCfg(1)
	k1, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same config, different keys: %s vs %s", k1, k2)
	}
	if len(k1) != 16 {
		t.Fatalf("key %q is not a 16-hex-digit hash", k1)
	}

	// Every result-influencing field must perturb the key.
	mutations := map[string]func(*machine.Config){
		"cores":      func(c *machine.Config) { c.Cores++ },
		"seed":       func(c *machine.Config) { c.Seed++ },
		"ratio":      func(c *machine.Config) { c.MemoryRatio = 0.6 },
		"pagesize":   func(c *machine.Config) { c.PageSize = sim.Size64k },
		"tables":     func(c *machine.Config) { c.Tables = vm.RegularPT },
		"policy":     func(c *machine.Config) { c.Policy.Kind = machine.LRU },
		"policy-p":   func(c *machine.Config) { c.Policy.P = 0.875 },
		"workload":   func(c *machine.Config) { c.Workload.TotalTouches += 5 },
		"wl-name":    func(c *machine.Config) { c.Workload.Name = "other" },
		"cost":       func(c *machine.Config) { c.Cost.FaultEntry += 10 },
		"verify":     func(c *machine.Config) { c.Verify = true },
		"nowarmup":   func(c *machine.Config) { c.NoWarmup = true },
		"hist":       func(c *machine.Config) { c.Hist = true },
		"dynamic-p":  func(c *machine.Config) { c.Policy.DynamicP = true },
		"scanperiod": func(c *machine.Config) { c.Policy.ScanPeriod = 77777 },
		"scanbatch":  func(c *machine.Config) { c.Policy.ScanBatch = 17 },
		// Sharing bands and tenant weights are slices: the pairs below
		// differ only in one element's field.
		"band": func(c *machine.Config) { c.Workload.Sharing = []workload.ShareBand{{Cores: 2, Frac: 0.5}} },
		"band-hot": func(c *machine.Config) {
			c.Workload.Sharing = []workload.ShareBand{{Cores: 2, Frac: 0.5, HotFrac: 0.3}}
		},
		"tenants": func(c *machine.Config) { c.Workload, c.Tenants = workload.Spec{}, tenantSpec(1) },
		"tenant-weight": func(c *machine.Config) {
			c.Workload, c.Tenants = workload.Spec{}, tenantSpec(2)
		},
	}
	seen := map[string]string{k1: "base"}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		k, err := Key(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// tenantSpec is a 4-tenant spec whose first tenant has weight w0.
func tenantSpec(w0 float64) *workload.TenantSpec {
	spec := workload.DefaultTenantSpec(4, 1.2, 100)
	spec.Weights = []float64{w0, 1, 1, 1}
	return &spec
}

func TestShardOfPartitions(t *testing.T) {
	var keys []string
	for seed := uint64(0); seed < 64; seed++ {
		k, err := Key(testCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for _, n := range []int{1, 2, 3, 5} {
		counts := make([]int, n)
		for _, k := range keys {
			s := ShardOf(k, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%q, %d) = %d, out of range", k, n, s)
			}
			if s != ShardOf(k, n) {
				t.Fatalf("ShardOf(%q, %d) not deterministic", k, n)
			}
			counts[s]++ // disjoint and covering: each key lands exactly once
		}
		if n > 1 {
			empty := 0
			for _, c := range counts {
				if c == 0 {
					empty++
				}
			}
			if empty == n-1 {
				t.Errorf("n=%d: all 64 keys on one shard: %v", n, counts)
			}
		}
	}
	if ShardOf("abc", 0) != 0 || ShardOf("abc", 1) != 0 {
		t.Error("n<=1 must map everything to shard 0")
	}
}

func TestResumeBitIdentical(t *testing.T) {
	cfgs := grid()
	opts := func() Options { return Options{Parallelism: 2, Repeats: 2} }

	ref, err := Run(cfgs, opts())
	if err != nil {
		t.Fatal(err)
	}

	// "Crash" after the first grid point: journal only cfgs[0], then
	// tear the journal the way a kill mid-write would.
	j := filepath.Join(t.TempDir(), "sweep.jsonl")
	o := opts()
	o.Journal = j
	if _, err := Run(cfgs[:1], o); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(j, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume over the full grid: the journaled replicates load, the torn
	// line costs one skip, and the merged output matches the
	// uninterrupted reference bit for bit. The counts reflect replicate
	// dedup: Repeats=2 expands seed-1 and seed-2 grid points to seed
	// sets {1,2} and {2,3}, so the seed-2 run is shared — per policy
	// there are 3 unique runs covering 4 slots. cfgs[0]'s journal holds
	// FIFO seeds {1,2}, which satisfies 3 of the FIFO slots; the other
	// 4 unique runs (FIFO@3, CMCP@{1,2,3}) execute.
	out, err := Run(cfgs, o)
	if err != nil {
		t.Fatal(err)
	}
	if out.SkippedLines != 1 {
		t.Errorf("SkippedLines = %d, want 1", out.SkippedLines)
	}
	if out.Loaded != 3 {
		t.Errorf("Loaded = %d, want 3 (cfgs[0]'s replicates, one shared)", out.Loaded)
	}
	if out.Executed != 4 {
		t.Errorf("Executed = %d, want 4", out.Executed)
	}
	if out.Missing != 0 {
		t.Errorf("Missing = %d, want 0", out.Missing)
	}
	if !reflect.DeepEqual(out.Results, ref.Results) {
		t.Fatal("resumed sweep differs from uninterrupted sweep")
	}

	// A third run satisfies every slot from the journal.
	again, err := Run(cfgs, o)
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Loaded != len(cfgs)*2 {
		t.Errorf("full resume executed %d, loaded %d, want 0 and %d",
			again.Executed, again.Loaded, len(cfgs)*2)
	}
	if !reflect.DeepEqual(again.Results, ref.Results) {
		t.Fatal("journal-only sweep differs from uninterrupted sweep")
	}
}

func TestShardsSplitAndMerge(t *testing.T) {
	cfgs := grid()
	ref, err := Run(cfgs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j0 := filepath.Join(dir, "shard0.jsonl")
	j1 := filepath.Join(dir, "shard1.jsonl")
	out0, err := Run(cfgs, Options{Journal: j0, Shard: 0, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	out1, err := Run(cfgs, Options{Journal: j1, Shard: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := out0.Executed + out1.Executed; got != len(cfgs) {
		t.Fatalf("shards executed %d+%d runs, want %d total", out0.Executed, out1.Executed, len(cfgs))
	}
	// Each shard leaves the other's grid points nil and counts them.
	if out0.Missing != out1.Executed || out1.Missing != out0.Executed {
		t.Errorf("missing counts %d/%d do not mirror executed %d/%d",
			out0.Missing, out1.Missing, out0.Executed, out1.Executed)
	}

	// The merge invocation imports both journals and executes nothing.
	merged, err := Run(cfgs, Options{Imports: []string{j0, j1}})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Executed != 0 {
		t.Errorf("merge executed %d runs, want 0", merged.Executed)
	}
	if merged.Loaded != len(cfgs) {
		t.Errorf("merge loaded %d runs, want %d", merged.Loaded, len(cfgs))
	}
	if !reflect.DeepEqual(merged.Results, ref.Results) {
		t.Fatal("sharded merge differs from unsharded sweep")
	}
}

func TestRunShardOutOfRange(t *testing.T) {
	if _, err := Run(grid(), Options{Shard: 3, Shards: 2}); err == nil {
		t.Fatal("shard 3/2 accepted")
	}
}

func TestDuplicateGridPointsRunOnce(t *testing.T) {
	c := testCfg(1)
	out, err := Run([]machine.Config{c, c, c}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 1 {
		t.Errorf("Executed = %d, want 1 (duplicates share one run)", out.Executed)
	}
	if !reflect.DeepEqual(out.Results[0], out.Results[1]) || !reflect.DeepEqual(out.Results[0], out.Results[2]) {
		t.Error("duplicate grid points got different results")
	}
}

// TestFailingRunLeavesSiblingsJournaled pins what a sweep does with a
// run that fails on every attempt: Run names that run in its error,
// every sibling is journaled anyway, and a resume re-executes only the
// failing run. (machine.RunMany turns a panicking run into the same
// per-run error; TestRunManyPanicRecovered pins that.)
func TestFailingRunLeavesSiblingsJournaled(t *testing.T) {
	bad := testCfg(9)
	bad.Policy = machine.PolicySpec{Kind: machine.CMCP, P: 2}
	cfgs := append(grid(), bad)
	j := filepath.Join(t.TempDir(), "sweep.jsonl")

	out, err := Run(cfgs, Options{Journal: j, Parallelism: 2})
	if err == nil {
		t.Fatal("sweep with a failing run reported no error")
	}
	for _, want := range []string{"policy CMCP", "seed 9", "p=2 out of [0,1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name the failing run (%q missing): %v", want, err)
		}
	}
	if out == nil || out.Executed != len(cfgs) {
		t.Fatalf("outcome %+v, want all %d runs executed", out, len(cfgs))
	}

	f, err := os.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := ReadJournalLenient(f)
	f.Close()
	if err != nil || skipped != 0 {
		t.Fatalf("journal: %v (%d lines skipped)", err, skipped)
	}
	journaled := map[string]bool{}
	for _, e := range entries {
		journaled[e.Key] = true
	}
	for i, c := range cfgs {
		key, err := Key(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Seed != 9; journaled[key] != want {
			t.Errorf("config %d (seed %d): journaled = %v, want %v", i, c.Seed, journaled[key], want)
		}
	}
	if len(entries) != len(cfgs)-1 {
		t.Errorf("journal holds %d entries, want %d", len(entries), len(cfgs)-1)
	}

	again, err := Run(cfgs, Options{Journal: j, Parallelism: 2})
	if err == nil {
		t.Error("resumed sweep lost the failing run's error")
	}
	if again == nil || again.Executed != 1 || again.Loaded != len(cfgs)-1 {
		t.Fatalf("resume outcome %+v, want 1 executed and %d loaded", again, len(cfgs)-1)
	}
}

func TestJournalRejectsForeignHeader(t *testing.T) {
	dir := t.TempDir()
	for name, contents := range map[string]string{
		"noheader.jsonl":    `{"key":"abc","cores":1}` + "\n",
		"badschema.jsonl":   `{"schema":"cmcp-sweep/v0","counters":[]}` + "\n",
		"oldschema.jsonl":   `{"schema":"cmcp-sweep/v1","counters":[]}` + "\n",
		"pretenant.jsonl":   `{"schema":"cmcp-sweep/v2","counters":[]}` + "\n",
		"badcounters.jsonl": `{"schema":"` + Schema + `","counters":["bogus"]}` + "\n",
		"badhists.jsonl":    validCountersBadHistsHeader() + "\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
		o := Options{Journal: path}
		if _, err := Run([]machine.Config{testCfg(1)}, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// validCountersBadHistsHeader builds a current-schema header whose
// counter table is current but whose histogram table is foreign.
func validCountersBadHistsHeader() string {
	h := map[string]any{
		"schema":   Schema,
		"counters": stats.CounterNames(),
		"hists":    []string{"bogus_hist"},
	}
	data, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	return string(data)
}

// TestHistResumeBitIdentical is the histogram variant of the resume
// guarantee: a histogram-bearing sweep interrupted and resumed from its
// journal must reproduce the uninterrupted sweep's results — histogram
// buckets included — bit for bit, and the Repeats merge must pool the
// replicates' distributions exactly.
func TestHistResumeBitIdentical(t *testing.T) {
	cfgs := grid()
	for i := range cfgs {
		cfgs[i].Hist = true
	}
	opts := func() Options { return Options{Parallelism: 2, Repeats: 2} }

	ref, err := Run(cfgs, opts())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ref.Results {
		if r.Run.Hists == nil {
			t.Fatalf("result %d has no histograms", i)
		}
		for id := stats.HistID(0); id < stats.HistID(stats.NumHists); id++ {
			if !r.Run.Hists.Get(id).CheckInvariant() {
				t.Fatalf("result %d: %s invariant broken after merge", i, id.Name())
			}
		}
	}

	// Interrupt after one grid point, then resume over the full grid.
	j := filepath.Join(t.TempDir(), "hist.jsonl")
	o := opts()
	o.Journal = j
	if _, err := Run(cfgs[:1], o); err != nil {
		t.Fatal(err)
	}
	out, err := Run(cfgs, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Results, ref.Results) {
		t.Fatal("resumed hist sweep differs from uninterrupted sweep")
	}

	// Journal-only pass: everything loads, nothing executes, still equal.
	again, err := Run(cfgs, o)
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 {
		t.Errorf("full resume executed %d runs, want 0", again.Executed)
	}
	if !reflect.DeepEqual(again.Results, ref.Results) {
		t.Fatal("journal-only hist sweep differs from uninterrupted sweep")
	}

	// Repeats pooling: the merged distribution is the exact sum of the
	// replicates' — replicate runs under seeds 1 and 2 for cfgs[0].
	var want stats.HistSet
	for r := 0; r < 2; r++ {
		c := cfgs[0]
		c.Seed = cfgs[0].Seed + uint64(r)
		res, err := Run([]machine.Config{c}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want.Merge(res.Results[0].Run.Hists)
	}
	if *ref.Results[0].Run.Hists != want {
		t.Fatal("Repeats merge did not pool histograms exactly")
	}
}

// TestHistKeysDisjointFromBare pins that a histogram-less journal can
// never satisfy a Hist sweep (and vice versa): the same grid with and
// without Hist shares no content keys.
func TestHistKeysDisjointFromBare(t *testing.T) {
	c := testCfg(1)
	bare, err := Key(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Hist = true
	hist, err := Key(c)
	if err != nil {
		t.Fatal(err)
	}
	if bare == hist {
		t.Fatal("Hist flag does not perturb the content key")
	}
}

// FuzzReadJournalLenient feeds arbitrary bytes to the journal reader.
// Nothing may panic, and whatever decodes must survive a round trip:
// re-encoded line by line as the journal writer encodes it and read
// back, it yields the same entries with no line skipped.
func FuzzReadJournalLenient(f *testing.F) {
	j := filepath.Join(f.TempDir(), "seed.jsonl")
	hist := testCfg(1)
	hist.Hist = true
	if _, err := Run([]machine.Config{hist, tenantCfg(1)}, Options{Journal: j}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(j)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-9]) // torn last line
	head, err := json.Marshal(header{Schema: Schema, Counters: stats.CounterNames(), Hists: stats.HistNames()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, _, err := ReadJournalLenient(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		buf.Write(head)
		buf.WriteByte('\n')
		for _, e := range entries {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("re-encoding %s: %v", e.Key, err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		again, skipped, err := ReadJournalLenient(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("re-encoded journal: %v (%d lines skipped)", err, skipped)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("entries drifted over a round trip:\n%+v\n%+v", entries, again)
		}
	})
}
