package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"cmcp/internal/machine"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// Schema identifies the journal file format. A journal opens with one
// header line carrying the schema and the counter- and histogram-name
// tables in force when it was written; every later line is one
// completed run. v2 added the histogram table (and histogram payloads
// inside Run records); v3 added multi-tenant machines (per-tenant
// records inside Run, tenant fields in the content key); v4 added the
// NUMA topology (new counters and a histogram in Run, topology fields
// in the content key); v5 derives every content key from the JSON wire
// encoding of the config (see Key); v6 drops four config fields that
// nothing outside tests set (DESIGN.md §16), which changes every key;
// v7 drops Config.AdaptivePageSize and two TenantSpec fields, which
// changes every key again; v8 drops the fault-injection config, its
// four cost fields and the entry's "quarantined" field, which changes
// every key once more; v9 drops the switch that skipped warm-up and
// the tenant frame shares (per-tenant weights and hard partitions),
// which changes every key again; v10 drops the NUMA topology from the
// config, which changes every key, and its histogram from the header.
// Stale schemas are rejected: their keys or runs no longer match what
// this build computes.
const Schema = "cmcp-sweep/v10"

// staleSchemas are schemas this build once wrote and now refuses, so
// the rejection can say "outdated" rather than "not a journal".
var staleSchemas = map[string]bool{
	"cmcp-sweep/v1": true,
	"cmcp-sweep/v2": true,
	"cmcp-sweep/v3": true,
	"cmcp-sweep/v4": true,
	"cmcp-sweep/v5": true,
	"cmcp-sweep/v6": true,
	"cmcp-sweep/v7": true,
	"cmcp-sweep/v8": true,
	"cmcp-sweep/v9": true,
}

// header is the journal's first line.
type header struct {
	Schema   string   `json:"schema"`
	Counters []string `json:"counters"`
	Hists    []string `json:"hists"`
}

// Entry is one journaled completed run: the run's content key, enough
// human-readable identity to grep a journal by hand, and the full
// Result payload needed to merge bit-identically with live runs.
type Entry struct {
	Key        string     `json:"key"`
	Policy     string     `json:"policy"`
	Workload   string     `json:"workload"`
	Cores      int        `json:"cores"`
	Seed       uint64     `json:"seed"`
	Runtime    sim.Cycles `json:"runtime"`
	Frames     int        `json:"frames"`
	TotalPages int        `json:"total_pages"`
	Resident   int        `json:"resident"`
	Sharing    []int      `json:"sharing,omitempty"`
	Run        *stats.Run `json:"run"`
}

// entryOf snapshots a completed run for the journal.
func entryOf(key string, cfg machine.Config, res *machine.Result) Entry {
	return Entry{
		Key:        key,
		Policy:     res.PolicyName,
		Workload:   cfg.Workload.Name,
		Cores:      cfg.Cores,
		Seed:       cfg.Seed,
		Runtime:    res.Runtime,
		Frames:     res.Frames,
		TotalPages: res.TotalPages,
		Resident:   res.Resident,
		Sharing:    res.Sharing,
		Run:        res.Run,
	}
}

// Result rebuilds the machine.Result a journaled entry stands for. The
// Config is supplied by the caller (the sweep regenerates its grid, so
// the entry need not serialize it); everything else round-trips from
// the entry losslessly.
func (e Entry) Result(cfg machine.Config) *machine.Result {
	return &machine.Result{
		Config:     cfg,
		Run:        e.Run,
		Runtime:    e.Runtime,
		Frames:     e.Frames,
		TotalPages: e.TotalPages,
		Sharing:    e.Sharing,
		Resident:   e.Resident,
		PolicyName: e.Policy,
	}
}

// ReadJournalLenient reads a sweep journal, skipping malformed lines
// and reporting how many were dropped — the same contract as the trace
// layer's obs.ReadJSONLMeta, and for the same reason: the journal
// of a crashed sweep legitimately ends in a torn, half-written line,
// and that line must cost one re-run, not the whole file.
//
// The header is NOT lenient: an empty reader yields no entries, but a
// journal whose first line is missing, malformed, or was written under
// a different schema or counter set is rejected outright. Silently
// merging counters recorded under a different table would misattribute
// every column.
func ReadJournalLenient(r io.Reader) (entries []Entry, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, 0, err
		}
		return nil, 0, nil // empty journal: fresh sweep
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Schema != Schema {
		if err == nil && staleSchemas[h.Schema] {
			return nil, 0, fmt.Errorf("sweep: journal schema %q is outdated; this build writes %q (the content key and Run payload have since changed — tenants in v3, NUMA topology in v4, keys derived from the JSON config encoding in v5 — so older entries can never satisfy current sweeps) — start a fresh journal", h.Schema, Schema)
		}
		return nil, 0, fmt.Errorf("sweep: journal header missing or not %q (corrupt first line, or not a sweep journal)", Schema)
	}
	if want := stats.CounterNames(); !equalStrings(h.Counters, want) {
		return nil, 0, fmt.Errorf("sweep: journal counter set %v does not match this build's %v; re-run the sweep with a fresh journal", h.Counters, want)
	}
	if want := stats.HistNames(); !equalStrings(h.Hists, want) {
		return nil, 0, fmt.Errorf("sweep: journal histogram set %v does not match this build's %v; re-run the sweep with a fresh journal", h.Hists, want)
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || e.Run == nil || e.Run.Cores != e.Cores {
			skipped++
			continue
		}
		if len(e.Sharing) == 0 {
			e.Sharing = nil // "sharing":[] reads as the omitted field it re-encodes to
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, err
	}
	return entries, skipped, nil
}

// readJournalFile loads one journal from disk; a missing file is an
// empty journal.
func readJournalFile(path string) ([]Entry, int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	entries, skipped, err := ReadJournalLenient(f)
	if err != nil {
		return nil, skipped, fmt.Errorf("sweep: reading journal %s: %w", path, err)
	}
	return entries, skipped, nil
}

// journalWriter appends entries to a journal file, one flushed line per
// completed run, so a kill at any instant loses at most the line being
// written (which the lenient reader then skips). Safe for concurrent
// use: RunMany workers journal from their own goroutines.
type journalWriter struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// openJournal opens path for appending, writing the header line first
// if the file is new or empty. The caller has already validated an
// existing file's header via readJournalFile.
func openJournal(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	jw := &journalWriter{f: f, w: bufio.NewWriter(f)}
	if st.Size() == 0 {
		data, err := json.Marshal(header{Schema: Schema, Counters: stats.CounterNames(), Hists: stats.HistNames()})
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := jw.writeLine(data); err != nil {
			f.Close()
			return nil, err
		}
		return jw, nil
	}
	// A journal killed mid-write ends in a torn, unterminated line. New
	// entries must start on a fresh line, or the first append glues
	// itself onto the torn tail and both are lost to the lenient reader.
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		f.Close()
		return nil, err
	}
	if last[0] != '\n' {
		if err := jw.writeLine(nil); err != nil {
			f.Close()
			return nil, err
		}
	}
	return jw, nil
}

// append journals one completed run.
func (jw *journalWriter) append(e Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return jw.writeLine(data)
}

func (jw *journalWriter) writeLine(data []byte) error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if _, err := jw.w.Write(data); err != nil {
		return err
	}
	if err := jw.w.WriteByte('\n'); err != nil {
		return err
	}
	return jw.w.Flush() // durable per line: that is the checkpoint
}

func (jw *journalWriter) close() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if err := jw.w.Flush(); err != nil {
		jw.f.Close()
		return err
	}
	return jw.f.Close()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
