package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"cmcp/internal/obs"
	"cmcp/internal/stats"
)

// publishSample builds a server with two published runs, one carrying
// histograms.
func publishSample() *Server {
	s := New(nil)
	r1 := stats.NewRun(2)
	r1.Add(0, stats.PageFaults, 10)
	r1.Add(1, stats.PageFaults, 5)
	hs := r1.EnableHists()
	hs.Record(stats.FaultServiceHist, 100)
	hs.Record(stats.FaultServiceHist, 3000)
	hs.Record(stats.FanoutHist, 4)
	s.Publish(r1)

	r2 := stats.NewRun(2)
	r2.Add(0, stats.Touches, 7)
	s.Publish(r2)
	return s
}

func TestPublishAccumulates(t *testing.T) {
	s := publishSample()
	snap := s.Snapshot()
	if snap.Runs != 2 || snap.HistRuns != 1 {
		t.Fatalf("Runs=%d HistRuns=%d, want 2 and 1", snap.Runs, snap.HistRuns)
	}
	if got := snap.Counters[stats.PageFaults]; got != 15 {
		t.Errorf("page_faults = %d, want 15", got)
	}
	if got := snap.Counters[stats.Touches]; got != 7 {
		t.Errorf("touches = %d, want 7", got)
	}
	h := snap.Hists.Get(stats.FaultServiceHist)
	if h.Count != 2 || h.Sum != 3100 {
		t.Errorf("fault_service hist = %+v", *h)
	}
}

// TestPublishedSnapshotImmutable pins the no-perturbation design: a
// snapshot handed out before further publishes must not change under
// them, and Publish must not retain the caller's run.
func TestPublishedSnapshotImmutable(t *testing.T) {
	s := New(nil)
	r := stats.NewRun(1)
	r.Add(0, stats.Touches, 1)
	s.Publish(r)
	before := s.Snapshot()
	r.Add(0, stats.Touches, 100) // caller mutates after publish
	s.Publish(r)
	if got := before.Counters[stats.Touches]; got != 1 {
		t.Fatalf("earlier snapshot changed underneath the reader: touches=%d", got)
	}
	if got := s.Snapshot().Counters[stats.Touches]; got != 1+101 {
		t.Fatalf("accumulator wrong after second publish: touches=%d", got)
	}
}

func TestPublishConcurrent(t *testing.T) {
	s := New(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r := stats.NewRun(1)
				r.Add(0, stats.Touches, 1)
				r.EnableHists().Record(stats.LockWaitHist, uint64(i))
				s.Publish(r)
				_ = s.Snapshot().Runs // concurrent reader
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Runs != 800 || snap.Counters[stats.Touches] != 800 {
		t.Fatalf("lost publishes: %+v", snap.Runs)
	}
	if got := snap.Hists.Get(stats.LockWaitHist).Count; got != 800 {
		t.Fatalf("lost histogram records: %d", got)
	}
}

// TestMetricNamesDriftGuard is the satellite drift guard: the metric
// registry must be exactly the runs family plus one family per
// stats counter and per stats histogram, and
// the rendered exposition must contain every registered family and
// nothing else (ValidateExposition rejects unregistered families).
func TestMetricNamesDriftGuard(t *testing.T) {
	names := MetricNames()
	want := 1 + stats.NumCounters + stats.NumHists
	if len(names) != want {
		t.Fatalf("MetricNames has %d entries, want %d", len(names), want)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate metric family %q", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "cmcp_") {
			t.Errorf("family %q missing cmcp_ namespace", n)
		}
	}
	for _, c := range stats.CounterNames() {
		if !seen["cmcp_"+c+"_total"] {
			t.Errorf("counter %q has no metric family", c)
		}
	}
	for _, h := range stats.HistNames() {
		if !seen["cmcp_"+h] {
			t.Errorf("histogram %q has no metric family", h)
		}
	}

	var b strings.Builder
	if err := WriteMetrics(&b, publishSample().Snapshot()); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, n := range names {
		if !strings.Contains(body, "# TYPE "+n+" ") {
			t.Errorf("exposition missing family %q", n)
		}
	}
	if err := ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("rendered exposition fails its own schema check: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	var b strings.Builder
	if err := WriteMetrics(&b, publishSample().Snapshot()); err != nil {
		t.Fatal(err)
	}
	good := b.String()
	// The sample server recorded fan-out 4, so that histogram's +Inf
	// bucket and count are both 1; forging the count breaks the
	// +Inf==count cross-check.
	forged := strings.Replace(good, "cmcp_shootdown_fanout_cores_count 1", "cmcp_shootdown_fanout_cores_count 2", 1)
	if forged == good {
		t.Fatal("test setup: count line to forge not found")
	}
	cases := map[string]string{
		"unregistered family": good + "cmcp_bogus_total 1\n",
		"rogue type":          good + "# TYPE cmcp_rogue_total counter\n",
		"garbage line":        good + "!!!\n",
		"missing family":      strings.Replace(good, "cmcp_page_faults_total", "cmcp_page_faultz_total", -1),
		"inf/count mismatch":  forged,
	}
	for name, body := range cases {
		if err := ValidateExposition(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Truncation (a partial scrape) must also fail: some family loses
	// its samples.
	if err := ValidateExposition(strings.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated exposition accepted")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	p := obs.NewProgress()
	p.AddTotal(10)
	p.NoteExecuted()
	s := New(p)
	r := stats.NewRun(1)
	r.Add(0, stats.PageFaults, 42)
	s.Publish(r)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("metrics content type %q", ctype)
	}
	if err := ValidateExposition(strings.NewReader(metrics)); err != nil {
		t.Errorf("served /metrics fails schema check: %v", err)
	}
	if !strings.Contains(metrics, "cmcp_page_faults_total 42") {
		t.Error("published counter missing from /metrics")
	}

	progressBody, ctype := get("/progress")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("progress content type %q", ctype)
	}
	var pj map[string]any
	if err := json.Unmarshal([]byte(progressBody), &pj); err != nil {
		t.Fatalf("progress not JSON: %v", err)
	}
	if pj["total"].(float64) != 10 || pj["published"].(float64) != 1 {
		t.Errorf("progress = %v", pj)
	}

	index, ctype := get("/")
	if !strings.Contains(ctype, "text/html") || !strings.Contains(index, "/metrics") {
		t.Errorf("index page wrong: content type %q", ctype)
	}

	pprofIdx, _ := get("/debug/pprof/")
	if !strings.Contains(pprofIdx, "profile") {
		t.Error("pprof index not served")
	}

	resp, err := http.Get(ts.URL + "/no-such-page")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d", resp.StatusCode)
	}
}

func TestStartAddrClose(t *testing.T) {
	s := New(nil)
	if s.Addr() != "" {
		t.Error("Addr before Start must be empty")
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still serving after Close")
	}
}

// TestValidateExpositionFile validates an externally scraped /metrics
// body (CI curls a live cmcpsim -serve and passes the capture via
// METRICS_FILE). Skipped when the variable is unset.
func TestValidateExpositionFile(t *testing.T) {
	path := os.Getenv("METRICS_FILE")
	if path == "" {
		t.Skip("METRICS_FILE not set (CI-only schema check)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ValidateExposition(f); err != nil {
		t.Fatalf("scraped exposition invalid: %v", err)
	}
}
