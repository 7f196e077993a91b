package coord

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/sweep"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// testCfg mirrors the sweep package's test grid: small, fast PSPT runs.
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

// coordTestCrash is a registered factory that panics on construction —
// the poisoned-key scenario. It must be a named top-level function:
// closures defined at one source location share a code pointer.
func coordTestCrash(policy.Host) policy.Policy {
	panic("injected crash: policy refuses to construct")
}

var registerOnce sync.Once

func registerTestPolicies() {
	registerOnce.Do(func() {
		sweep.RegisterPolicy("coord-test-crash", coordTestCrash)
	})
}

func keysOf(t *testing.T, cfgs []machine.Config) []string {
	t.Helper()
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		k, err := sweep.Key(c)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// entryFor simulates cfg locally and wraps the result as the journal
// entry a worker would post.
func entryFor(t *testing.T, cfg machine.Config) (string, sweep.Entry) {
	t.Helper()
	key, err := sweep.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return key, sweep.EntryOf(key, cfg, res)
}

// fakeClock drives the lease machinery deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

type batchOut struct {
	res []*machine.Result
	err error
}

// startBatch launches c.Run in the background and returns the channel
// its outcome lands on.
func startBatch(t *testing.T, c *Coordinator, cfgs []machine.Config, notify func(int, *machine.Result, error)) <-chan batchOut {
	t.Helper()
	keys := keysOf(t, cfgs)
	ch := make(chan batchOut, 1)
	go func() {
		res, err := c.Run(cfgs, keys, 0, notify)
		ch <- batchOut{res, err}
	}()
	return ch
}

// pollGrant retries Lease until a grant appears (the batch enqueue runs
// in a background goroutine, so the first call may race it).
func pollGrant(t *testing.T, c *Coordinator, worker string) *LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g, _, done := c.Lease(worker)
		if done {
			t.Fatal("Lease said done while a grant was expected")
		}
		if g != nil {
			return g
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no lease granted within 5s")
	return nil
}

func waitBatch(t *testing.T, ch <-chan batchOut) batchOut {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not complete within 10s")
		return batchOut{}
	}
}

// TestLeaseExpiryBackoffAndPoison walks one key through the whole
// failure ladder with a fake clock: expiry -> retry with exponential
// backoff -> capped backoff -> poisoned at MaxAttempts.
func TestLeaseExpiryBackoffAndPoison(t *testing.T) {
	clk := newClock()
	prog := obs.NewProgress()
	c := New(Options{
		LeaseTTL:    time.Second,
		MaxAttempts: 3,
		BackoffBase: 10 * time.Second,
		BackoffCap:  15 * time.Second,
		StealAfter:  -1, // isolate expiry from stealing
		Now:         clk.now,
		Progress:    prog,
	})
	cfgs := []machine.Config{testCfg(1)}
	ch := startBatch(t, c, cfgs, nil)

	g1 := pollGrant(t, c, "w1")
	if g1.TTL != time.Second || g1.Stolen {
		t.Fatalf("grant = %+v", g1)
	}

	// Attempt 1 dies: TTL passes without a heartbeat.
	clk.advance(1500 * time.Millisecond)
	if g, wait, _ := c.Lease("w1"); g != nil || wait <= 0 {
		t.Fatalf("expired key leased again inside backoff (grant=%v wait=%v)", g, wait)
	}
	s := c.Stats()
	if s.LeasesExpired != 1 || s.Retries != 1 || s.KeysPending != 1 {
		t.Fatalf("after first expiry: %+v", s)
	}

	// Backoff is 10s from the failure; 9s in, still gated.
	clk.advance(9 * time.Second)
	if g, _, _ := c.Lease("w1"); g != nil {
		t.Fatal("backoff gate ignored")
	}
	clk.advance(1500 * time.Millisecond)
	g2 := pollGrant(t, c, "w1")
	if g2.Key != g1.Key || g2.LeaseID == g1.LeaseID {
		t.Fatalf("regrant wrong: %+v", g2)
	}

	// Attempt 2 dies: backoff doubles to 20s but caps at 15s.
	clk.advance(1500 * time.Millisecond)
	if g, _, _ := c.Lease("w1"); g != nil {
		t.Fatal("leased during second backoff")
	}
	clk.advance(14 * time.Second) // 14s < 15s cap: still gated
	if g, _, _ := c.Lease("w1"); g != nil {
		t.Fatal("backoff cap not applied (leased before 15s)")
	}
	clk.advance(1500 * time.Millisecond)
	g3 := pollGrant(t, c, "w1")

	// Attempt 3 dies: MaxAttempts reached, key poisoned, batch ends.
	clk.advance(1500 * time.Millisecond)
	c.Lease("w1") // trigger the reap
	out := waitBatch(t, ch)
	if out.err == nil || !strings.Contains(out.err.Error(), "poisoned") {
		t.Fatalf("poisoned batch error = %v", out.err)
	}
	if out.res[0] != nil {
		t.Error("poisoned key produced a result")
	}
	s = c.Stats()
	if s.KeysPoisoned != 1 || s.LeasesExpired != 3 || s.Retries != 2 || s.LeasesGranted != 3 {
		t.Errorf("final stats: %+v", s)
	}
	report := c.PoisonedReport()
	if len(report) != 1 || report[0].Key != g3.Key || report[0].Attempts != 3 ||
		!strings.Contains(report[0].LastErr, "expired") {
		t.Errorf("poisoned report: %+v", report)
	}
	if ps := prog.Snapshot(); ps.Retried != 2 || ps.Poisoned != 1 {
		t.Errorf("progress retried=%d poisoned=%d, want 2 and 1", ps.Retried, ps.Poisoned)
	}
}

// TestFailRetriesThenSucceeds: a worker-reported failure requeues the
// key, and a later clean run completes the batch with no error.
func TestFailRetriesThenSucceeds(t *testing.T) {
	clk := newClock()
	c := New(Options{
		LeaseTTL:    time.Minute,
		MaxAttempts: 3,
		BackoffBase: time.Second,
		StealAfter:  -1,
		Now:         clk.now,
	})
	cfg := testCfg(1)
	_, entry := entryFor(t, cfg)
	ch := startBatch(t, c, []machine.Config{cfg}, nil)

	g1 := pollGrant(t, c, "w1")
	c.Fail(g1.LeaseID, g1.Key, "transient scratch-disk hiccup")
	clk.advance(1100 * time.Millisecond)
	g2 := pollGrant(t, c, "w1")
	if err := c.Result(g2.LeaseID, entry); err != nil {
		t.Fatal(err)
	}
	out := waitBatch(t, ch)
	if out.err != nil {
		t.Fatalf("batch with one retried key errored: %v", out.err)
	}
	if out.res[0] == nil || out.res[0].Runtime == 0 {
		t.Fatal("retried key has no result")
	}
	if s := c.Stats(); s.Retries != 1 || s.KeysDone != 1 || s.KeysPoisoned != 0 {
		t.Errorf("stats: %+v", s)
	}
}

// TestDuplicateResultAfterExpiry pins the idempotence half of crash
// tolerance: a worker whose lease expired posts anyway and wins;
// the replacement's copy is counted as a duplicate and discarded.
func TestDuplicateResultAfterExpiry(t *testing.T) {
	clk := newClock()
	c := New(Options{
		LeaseTTL:    time.Second,
		MaxAttempts: 5,
		BackoffBase: time.Millisecond,
		StealAfter:  -1,
		Now:         clk.now,
	})
	cfg := testCfg(2)
	_, entry := entryFor(t, cfg)
	ch := startBatch(t, c, []machine.Config{cfg}, nil)

	gA := pollGrant(t, c, "slow-worker")
	clk.advance(1500 * time.Millisecond) // A's lease dies...
	c.Lease("replacement")               // ...on this reap, which also starts the backoff
	clk.advance(5 * time.Millisecond)    // backoff passes
	gB := pollGrant(t, c, "replacement")
	if gB.Key != gA.Key {
		t.Fatalf("replacement leased %s, want %s", gB.Key, gA.Key)
	}

	// The presumed-dead worker finishes first and posts on its stale
	// lease. Results are keyed, not leased: accepted.
	if err := c.Result(gA.LeaseID, entry); err != nil {
		t.Fatal(err)
	}
	out := waitBatch(t, ch)
	if out.err != nil || out.res[0] == nil {
		t.Fatalf("batch outcome: res=%v err=%v", out.res[0], out.err)
	}

	// The replacement finishes the same deterministic run: duplicate.
	if err := c.Result(gB.LeaseID, entry); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.DuplicateResults != 1 || s.KeysDone != 1 || s.LeasesExpired != 1 {
		t.Errorf("stats: %+v", s)
	}
}

// TestWorkStealing: with nothing pending, an idle worker shadows the
// longest-running straggler; the bound is MaxLeasesPerKey.
func TestWorkStealing(t *testing.T) {
	clk := newClock()
	c := New(Options{
		LeaseTTL:    10 * time.Second,
		StealAfter:  50 * time.Millisecond,
		MaxAttempts: 3,
		Now:         clk.now,
	})
	cfg := testCfg(3)
	_, entry := entryFor(t, cfg)
	ch := startBatch(t, c, []machine.Config{cfg}, nil)

	g1 := pollGrant(t, c, "straggler")
	// Too fresh to steal.
	if g, _, _ := c.Lease("thief"); g != nil {
		t.Fatal("stole a lease younger than StealAfter")
	}
	clk.advance(100 * time.Millisecond)
	g2, _, _ := c.Lease("thief")
	if g2 == nil || !g2.Stolen || g2.Key != g1.Key {
		t.Fatalf("steal grant = %+v", g2)
	}
	// MaxLeasesPerKey (2) exhausted: a third worker waits.
	if g, wait, _ := c.Lease("third"); g != nil || wait <= 0 {
		t.Fatalf("third lease on one key (grant=%v wait=%v)", g, wait)
	}

	// The thief wins; the straggler's later copy is a duplicate.
	if err := c.Result(g2.LeaseID, entry); err != nil {
		t.Fatal(err)
	}
	out := waitBatch(t, ch)
	if out.err != nil || out.res[0] == nil {
		t.Fatalf("batch outcome: res=%v err=%v", out.res[0], out.err)
	}
	if err := c.Result(g1.LeaseID, entry); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.LeasesStolen != 1 || s.DuplicateResults != 1 || s.KeysDone != 1 {
		t.Errorf("stats: %+v", s)
	}
}

// TestOrphanAdoption: a result that arrives before its key is enqueued
// (worker finishing across a coordinator restart) is stashed and
// completes the unit the moment the batch appears.
func TestOrphanAdoption(t *testing.T) {
	c := New(Options{})
	cfg := testCfg(4)
	key, entry := entryFor(t, cfg)

	// No batch in flight, the lease ID is from a previous life.
	if err := c.Result("lease-from-before-the-crash", entry); err != nil {
		t.Fatal(err)
	}

	var notified int
	res, err := c.Run([]machine.Config{cfg}, []string{key}, 0,
		func(i int, r *machine.Result, e error) {
			if i == 0 && r != nil && e == nil {
				notified++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] == nil || notified != 1 {
		t.Fatalf("orphan not adopted: res=%v notified=%d", res[0], notified)
	}
	if s := c.Stats(); s.KeysDone != 1 || s.LeasesGranted != 0 {
		t.Errorf("adoption should not consume a lease: %+v", s)
	}
}

// TestAbortStashesLateResults covers the coordinator-shutdown path: the
// in-flight batch fails fast, a surviving worker's late result becomes
// an orphan, and the restarted batch adopts it without re-running.
func TestAbortStashesLateResults(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute})
	cfg := testCfg(5)
	_, entry := entryFor(t, cfg)
	ch := startBatch(t, c, []machine.Config{cfg}, nil)

	g := pollGrant(t, c, "survivor")

	// Second batch while one is in flight: refused.
	if _, err := c.Run([]machine.Config{cfg}, keysOf(t, []machine.Config{cfg}), 0, nil); err == nil {
		t.Error("concurrent batch accepted")
	}

	c.Abort(errTest)
	out := waitBatch(t, ch)
	if out.err == nil || !strings.Contains(out.err.Error(), "aborted") {
		t.Fatalf("aborted batch error = %v", out.err)
	}

	// The worker survived the coordinator and posts its result late.
	if err := c.Result(g.LeaseID, entry); err != nil {
		t.Fatal(err)
	}

	// The restarted batch adopts it instantly.
	res, err := c.Run([]machine.Config{cfg}, keysOf(t, []machine.Config{cfg}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] == nil {
		t.Fatal("late result not adopted after restart")
	}
}

var errTest = errors.New("test-induced shutdown")

// TestMalformedResultRejected: a torn or inconsistent entry must not
// complete a unit.
func TestMalformedResultRejected(t *testing.T) {
	c := New(Options{LeaseTTL: time.Minute})
	cfg := testCfg(6)
	_, entry := entryFor(t, cfg)
	ch := startBatch(t, c, []machine.Config{cfg}, nil)
	g := pollGrant(t, c, "w1")

	bad := entry
	bad.Key = ""
	if err := c.Result(g.LeaseID, bad); err == nil {
		t.Error("keyless entry accepted")
	}
	bad = entry
	bad.Run = nil
	if err := c.Result(g.LeaseID, bad); err == nil {
		t.Error("runless entry accepted")
	}
	bad = entry
	bad.Cores = entry.Cores + 1
	if err := c.Result(g.LeaseID, bad); err == nil {
		t.Error("core-mismatched entry accepted")
	}

	// The unit is still completable: post the good entry. Its lease was
	// consumed by the first malformed post, but results are keyed.
	if err := c.Result(g.LeaseID, entry); err != nil {
		t.Fatal(err)
	}
	out := waitBatch(t, ch)
	if out.err != nil || out.res[0] == nil {
		t.Fatalf("batch outcome: res=%v err=%v", out.res[0], out.err)
	}
}

// TestCoordinatedSweepBitIdentical is the tentpole invariant in its
// happy path: a sweep run through the HTTP coordinator and a fleet of
// workers journals and merges bit-identically to a plain local sweep.
func TestCoordinatedSweepBitIdentical(t *testing.T) {
	cfgs := grid()
	dir := t.TempDir()
	refJ := dir + "/ref.jsonl"
	coordJ := dir + "/coord.jsonl"

	ref, err := sweep.Run(cfgs, sweep.Options{Parallelism: 2, Journal: refJ})
	if err != nil {
		t.Fatal(err)
	}

	c := New(Options{LeaseTTL: 2 * time.Second})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const fleet = 3
	var wg sync.WaitGroup
	workerErrs := make([]error, fleet)
	for i := 0; i < fleet; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				Base:       "http://" + c.Addr(),
				Name:       "w" + string(rune('0'+i)),
				RetryPause: 10 * time.Millisecond,
				Patience:   500,
			}
			workerErrs[i] = w.Run()
		}(i)
	}

	out, err := sweep.Run(cfgs, sweep.Options{Journal: coordJ, Runner: c})
	if err != nil {
		t.Fatalf("coordinated sweep: %v", err)
	}
	c.Finish()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}

	if out.Executed != len(cfgs) {
		t.Errorf("Executed = %d, want %d", out.Executed, len(cfgs))
	}
	if !reflect.DeepEqual(out.Results, ref.Results) {
		t.Error("coordinated results differ from local results")
	}

	// Journals compact to identical bytes: the bit-identity invariant.
	if _, err := sweep.CompactJournal(refJ, refJ+".c"); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.CompactJournal(coordJ, coordJ+".c"); err != nil {
		t.Fatal(err)
	}
	assertFilesEqual(t, refJ+".c", coordJ+".c")

	// The coordinated journal resumes a local sweep with zero work.
	resumed, err := sweep.Run(cfgs, sweep.Options{Journal: coordJ})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 || resumed.Loaded != len(cfgs) {
		t.Errorf("resume from coordinated journal: executed=%d loaded=%d", resumed.Executed, resumed.Loaded)
	}

	if s := c.Stats(); s.KeysDone != uint64(len(cfgs)) || s.LeasesGranted < uint64(len(cfgs)) {
		t.Errorf("stats: %+v", s)
	}
}

// TestPoisonedKeyQuarantine: a config that crashes every worker that
// touches it is quarantined after MaxAttempts without wedging the rest
// of the sweep — every good key completes and journals normally.
func TestPoisonedKeyQuarantine(t *testing.T) {
	registerTestPolicies()
	good := grid()
	bad := testCfg(9)
	bad.Policy = machine.PolicySpec{Factory: coordTestCrash}
	badKey, err := sweep.Key(bad)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := append(append([]machine.Config{}, good...), bad)

	j := t.TempDir() + "/poison.jsonl"
	c := New(Options{
		LeaseTTL:    2 * time.Second,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
	})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				Base:       "http://" + c.Addr(),
				Name:       "pw" + string(rune('0'+i)),
				RetryPause: 10 * time.Millisecond,
				Patience:   500,
			}
			workerErrs[i] = w.Run()
		}(i)
	}

	out, err := sweep.Run(cfgs, sweep.Options{Journal: j, Runner: c})
	c.Finish()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("sweep with a crashing config: err = %v", err)
	}
	_ = out
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d did not survive the crashing config: %v", i, werr)
		}
	}

	report := c.PoisonedReport()
	if len(report) != 1 || report[0].Key != badKey || report[0].Attempts != 2 ||
		!strings.Contains(report[0].LastErr, "injected crash") {
		t.Fatalf("poisoned report: %+v", report)
	}

	// Every good key journaled: a local re-run of the good grid loads
	// everything and executes nothing.
	resumed, err := sweep.Run(good, sweep.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 || resumed.Loaded != len(good) {
		t.Errorf("good keys after quarantine: executed=%d loaded=%d, want 0 and %d",
			resumed.Executed, resumed.Loaded, len(good))
	}
}
