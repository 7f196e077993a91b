// Package telemetry is the live-observability layer of the simulator:
// an HTTP server that exposes a running sweep's cumulative counters and
// latency histograms in Prometheus text exposition format (/metrics),
// the sweep's progress meter as JSON (/progress), a minimal HTML status
// page (/), and net/http/pprof for profiling the simulator process
// itself.
//
// The server is provably incapable of perturbing simulation results:
// it never touches engine state. Completed runs are *pushed* into it
// (Publish, fed from sweep.Options.OnResult), where they accumulate
// into an immutable Snapshot stored behind an atomic pointer; HTTP
// handlers only Load() that pointer and read the sweep-owned
// obs.Progress meter, which is mutex-guarded and designed for
// concurrent readers. A run executed with the server attached is
// therefore bit-identical to one without — CI asserts exactly that by
// comparing journals.
//
// The exposition is hand-rolled (no client_golang dependency): the
// format is a stable, line-oriented text protocol, and the metric
// registry is derived entirely from stats.CounterNames() and
// stats.HistNames(), so a new counter or histogram appears in /metrics
// automatically and the drift-guard test keeps the three in lock-step.
package telemetry

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmcp/internal/hist"
	"cmcp/internal/obs"
	"cmcp/internal/stats"
)

// namespace prefixes every exposed metric family.
const namespace = "cmcp"

// runsFamily counts runs published into the server — the one metric
// family not derived from a stats table.
const runsFamily = namespace + "_runs_published_total"

// Snapshot is one immutable, internally consistent reading of
// everything published so far. Handlers hand out fields of a Snapshot
// they atomically loaded; nothing in a Snapshot is ever mutated after
// Publish stores it.
type Snapshot struct {
	// Runs is the number of published (completed) runs.
	Runs int
	// Counters holds the cumulative application-core totals of every
	// stats counter across published runs, in stats.Counter index order.
	Counters [stats.NumCounters]uint64
	// Hists pools the histograms of every published histogram-bearing
	// run (exact bucket merge). Runs without histograms contribute
	// nothing here but still count toward Runs and Counters.
	Hists stats.HistSet
	// HistRuns is the number of published runs that carried histograms.
	HistRuns int
}

// Server accumulates published runs and serves them over HTTP. The
// zero value is not usable; call New.
type Server struct {
	mu   sync.Mutex // serializes Publish (accumulate + swap)
	agg  Snapshot   // the accumulator Publish folds runs into
	snap atomic.Pointer[Snapshot]

	progress *obs.Progress // nil when no sweep progress is wired
	started  time.Time

	httpSrv *http.Server
	ln      net.Listener
}

// New builds a server. progress may be nil; when set, /progress and
// the status page report the sweep meter's live snapshot.
func New(progress *obs.Progress) *Server {
	s := &Server{progress: progress, started: time.Now()}
	s.snap.Store(&Snapshot{})
	return s
}

// Publish folds one completed run into the served state. Safe for
// concurrent use (sweep workers call it as runs finish); the run is
// read, never retained, so the caller keeps ownership.
func (s *Server) Publish(run *stats.Run) {
	if run == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agg.Runs++
	for c := 0; c < stats.NumCounters; c++ {
		s.agg.Counters[c] += run.Total(stats.Counter(c))
	}
	if run.Hists != nil {
		s.agg.Hists.Merge(run.Hists)
		s.agg.HistRuns++
	}
	snap := s.agg // copy: the stored Snapshot is immutable
	s.snap.Store(&snap)
}

// Snapshot returns the current immutable snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Handler returns the server's HTTP mux: /, /metrics, /progress and
// /debug/pprof. Exposed for tests; Start wires it to a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves in
// a background goroutine until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// MetricNames returns every metric family the exposition emits, in
// emission order: the runs counter, one counter family per stats
// counter, one histogram family per stats histogram. This is the
// registry the drift-guard test pins against stats.CounterNames() /
// stats.HistNames() and against the rendered /metrics output.
func MetricNames() []string {
	names := make([]string, 0, 1+stats.NumCounters+stats.NumHists)
	names = append(names, runsFamily)
	for _, n := range stats.CounterNames() {
		names = append(names, namespace+"_"+n+"_total")
	}
	for _, n := range stats.HistNames() {
		names = append(names, namespace+"_"+n)
	}
	return names
}

// WriteMetrics renders snap in Prometheus text exposition format 0.0.4.
func WriteMetrics(w io.Writer, snap *Snapshot) error {
	bw := &errWriter{w: w}
	bw.printf("# HELP %s Completed simulation runs published to the telemetry server.\n", runsFamily)
	bw.printf("# TYPE %s counter\n", runsFamily)
	bw.printf("%s %d\n", runsFamily, snap.Runs)
	for c := 0; c < stats.NumCounters; c++ {
		fam := namespace + "_" + stats.Counter(c).Name() + "_total"
		bw.printf("# HELP %s Cumulative %s across published runs (application-core totals).\n", fam, stats.Counter(c).Name())
		bw.printf("# TYPE %s counter\n", fam)
		bw.printf("%s %d\n", fam, snap.Counters[c])
	}
	for h := 0; h < stats.NumHists; h++ {
		fam := namespace + "_" + stats.HistID(h).Name()
		hg := &snap.Hists[h]
		bw.printf("# HELP %s Pooled %s distribution across published runs (log2 buckets).\n", fam, stats.HistID(h).Name())
		bw.printf("# TYPE %s histogram\n", fam)
		var cum uint64
		for i := 0; i < hist.NumBuckets; i++ {
			cum += hg.Buckets[i]
			bw.printf("%s_bucket{le=\"%d\"} %d\n", fam, hist.UpperBound(i), cum)
		}
		bw.printf("%s_bucket{le=\"+Inf\"} %d\n", fam, hg.Count)
		bw.printf("%s_sum %d\n", fam, hg.Sum)
		bw.printf("%s_count %d\n", fam, hg.Count)
	}
	return bw.err
}

// errWriter folds fmt errors so WriteMetrics needs one check.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.snap.Load()) //nolint:errcheck // client went away
}

// progressJSON is the /progress payload: the sweep meter plus the
// server's own published-run tally.
type progressJSON struct {
	Total      int     `json:"total"`
	Executed   int     `json:"executed"`
	Loaded     int     `json:"loaded"`
	Missing    int     `json:"missing"`
	Done       int     `json:"done"`
	RunsPerSec float64 `json:"runs_per_sec"`
	ETASeconds float64 `json:"eta_seconds"`
	ElapsedSec float64 `json:"elapsed_seconds"`
	Published  int     `json:"published"`
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	var p progressJSON
	if s.progress != nil {
		ps := s.progress.Snapshot()
		p = progressJSON{
			Total:      ps.Total,
			Executed:   ps.Executed,
			Loaded:     ps.Loaded,
			Missing:    ps.Missing,
			Done:       ps.Done(),
			RunsPerSec: ps.RunsPerSec,
			ETASeconds: ps.ETA.Seconds(),
			ElapsedSec: ps.Elapsed.Seconds(),
		}
	}
	p.Published = s.snap.Load().Runs
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p) //nolint:errcheck // client went away
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>cmcpsim telemetry</title></head>
<body>
<h1>cmcpsim telemetry</h1>
<p>up {{.Up}} · {{.Runs}} runs published{{if .Progress}} · {{.Progress}}{{end}}</p>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition (counters + latency histograms)</li>
<li><a href="/progress">/progress</a> — sweep progress JSON</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiling</li>
</ul>
<h2>Histogram summaries (pooled over {{.HistRuns}} runs)</h2>
<table border="1" cellpadding="4">
<tr><th>histogram</th><th>count</th><th>mean</th><th>max</th><th>p50</th><th>p90</th><th>p99</th><th>p999</th></tr>
{{range .Hists}}<tr><td>{{.Name}}</td><td>{{.S.Count}}</td><td>{{printf "%.1f" .S.Mean}}</td><td>{{.S.Max}}</td><td>{{.S.P50}}</td><td>{{.S.P90}}</td><td>{{.S.P99}}</td><td>{{.S.P999}}</td></tr>
{{end}}</table>
</body></html>
`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap := s.snap.Load()
	type row struct {
		Name string
		S    hist.Summary
	}
	data := struct {
		Up       time.Duration
		Runs     int
		HistRuns int
		Progress string
		Hists    []row
	}{
		Up:       time.Since(s.started).Round(time.Second),
		Runs:     snap.Runs,
		HistRuns: snap.HistRuns,
	}
	if s.progress != nil {
		data.Progress = s.progress.String()
	}
	for h := 0; h < stats.NumHists; h++ {
		data.Hists = append(data.Hists, row{Name: stats.HistID(h).Name(), S: snap.Hists[h].Summarize()})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	indexTmpl.Execute(w, data) //nolint:errcheck // client went away
}

// histFamilies returns the set of histogram family names.
func histFamilies() map[string]bool {
	m := make(map[string]bool, stats.NumHists)
	for _, n := range stats.HistNames() {
		m[namespace+"_"+n] = true
	}
	return m
}

// ValidateExposition is the schema check CI runs against a scraped
// /metrics body: every line must parse as a HELP/TYPE comment or a
// sample; every family in MetricNames() must appear with the right
// TYPE; histogram buckets must be cumulative and end in an +Inf bucket
// equal to _count; and no sample may belong to an unregistered family
// (that is the drift guard working in the other direction).
func ValidateExposition(r io.Reader) error {
	body, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	registry := make(map[string]bool, len(MetricNames()))
	for _, n := range MetricNames() {
		registry[n] = true
	}
	hists := histFamilies()

	typed := map[string]string{}   // family -> declared TYPE
	sampled := map[string]bool{}   // family -> saw at least one sample
	lastCum := map[string]uint64{} // histogram family -> last cumulative bucket
	infSeen := map[string]uint64{} // histogram family -> +Inf bucket value
	counts := map[string]uint64{}  // histogram family -> _count value

	for ln, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lineNo := ln + 1
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			fam := fields[2]
			if !registry[fam] {
				return fmt.Errorf("line %d: %s for unregistered family %q", lineNo, fields[1], fam)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				typed[fam] = fields[3]
				want := "counter"
				if hists[fam] {
					want = "histogram"
				}
				if fields[3] != want {
					return fmt.Errorf("line %d: family %q must be a %s, declared %q", lineNo, fam, want, fields[3])
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := name
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam = strings.TrimSuffix(name, "_bucket")
			if !hists[fam] {
				return fmt.Errorf("line %d: bucket sample for non-histogram %q", lineNo, fam)
			}
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: bucket without le label", lineNo)
			}
			if value < lastCum[fam] {
				return fmt.Errorf("line %d: %s buckets not cumulative (%d after %d)", lineNo, fam, value, lastCum[fam])
			}
			lastCum[fam] = value
			if le == "+Inf" {
				infSeen[fam] = value
			} else if _, err := parseUint(le); err != nil {
				return fmt.Errorf("line %d: non-integer le %q", lineNo, le)
			}
		case strings.HasSuffix(name, "_sum") && hists[strings.TrimSuffix(name, "_sum")]:
			fam = strings.TrimSuffix(name, "_sum")
		case strings.HasSuffix(name, "_count") && hists[strings.TrimSuffix(name, "_count")]:
			fam = strings.TrimSuffix(name, "_count")
			counts[fam] = value
		default:
			if !registry[fam] {
				return fmt.Errorf("line %d: sample for unregistered family %q (drift between stats tables and exposition?)", lineNo, fam)
			}
		}
		sampled[fam] = true
	}

	for _, fam := range MetricNames() {
		if typed[fam] == "" {
			return fmt.Errorf("family %q missing TYPE declaration", fam)
		}
		if !sampled[fam] {
			return fmt.Errorf("family %q has no samples", fam)
		}
	}
	for fam := range hists {
		inf, ok := infSeen[fam]
		if !ok {
			return fmt.Errorf("histogram %q has no +Inf bucket", fam)
		}
		if inf != counts[fam] {
			return fmt.Errorf("histogram %q: +Inf bucket %d != count %d", fam, inf, counts[fam])
		}
	}
	return nil
}

// parseSample splits one exposition sample line into name, labels and
// an unsigned integer value (all cmcp metrics are integral).
func parseSample(line string) (name string, labels map[string]string, value uint64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.IndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels = map[string]string{}
		for _, pair := range strings.Split(rest[i+1:end], ",") {
			if pair == "" {
				continue
			}
			kv := strings.SplitN(pair, "=", 2)
			if len(kv) != 2 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			labels[kv[0]] = strings.Trim(kv[1], `"`)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	v, err := parseUint(strings.TrimSpace(rest))
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %w", line, err)
	}
	return name, labels, v, nil
}

func parseUint(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("non-digit %q in %q", c, s)
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, fmt.Errorf("overflow in %q", s)
		}
		v = v*10 + d
	}
	return v, nil
}
