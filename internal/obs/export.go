// Exporters for the flight recorder and sampler: JSONL events (one
// object per line, trivially greppable and re-loadable), Chrome
// trace_event JSON (open in Perfetto or chrome://tracing; one track
// per core), and CSV time series. All output is deterministic for a
// deterministic run, so exporter results are golden-testable.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"cmcp/internal/sim"
	"cmcp/internal/stats"
)

// CyclesPerMicrosecond converts simulated 1.053 GHz cycles to the
// microsecond timestamps the Chrome trace_event format expects.
const CyclesPerMicrosecond = 1053.0

// jsonlEvent is the JSONL wire form of an Event.
type jsonlEvent struct {
	Time uint64 `json:"t"`
	Core int32  `json:"core"`
	Type string `json:"ev"`
	Page int64  `json:"page"`
	Arg  int64  `json:"arg"`
}

// TraceSchema versions the JSONL trace metadata header.
const TraceSchema = "cmcp-trace/v1"

// TraceMeta is the metadata header line of a JSONL event trace. Its
// load-bearing field is Dropped: the flight recorder's ring is bounded,
// and a trace that silently lost events reads as a complete record of a
// quieter run. The writer puts the drop count in the file so replay can
// warn; Events lets the reader notice truncation of the file itself.
// Traces without a header remain readable (nil meta).
type TraceMeta struct {
	Schema  string `json:"schema"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// WriteJSONLWithMeta encodes events one JSON object per line, preceded
// by a TraceMeta header line carrying the recorder's drop count.
func WriteJSONLWithMeta(w io.Writer, events []Event, dropped uint64) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(TraceMeta{Schema: TraceSchema, Events: len(events), Dropped: dropped}); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(jsonlEvent{
			Time: uint64(e.Time),
			Core: int32(e.Core),
			Type: e.Type.String(),
			Page: int64(e.Page),
			Arg:  e.Arg,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONLMeta decodes a JSONL event stream and returns the trace's
// metadata header when present (nil for a trace without one). Traces
// come from interrupted or concatenated runs, so the read is lenient:
// malformed, truncated or unknown-type lines are skipped and counted in
// skipped. Only an I/O error (or a single line exceeding the scanner
// limit) fails the read.
func ReadJSONLMeta(r io.Reader) (events []Event, meta *TraceMeta, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal([]byte(text), &je); err != nil {
			skipped++
			continue
		}
		typ, ok := EventTypeByName(je.Type)
		if !ok {
			// Not an event line: the metadata header lands here (its
			// object has no "ev" field).
			var m TraceMeta
			if meta == nil && json.Unmarshal([]byte(text), &m) == nil && strings.HasPrefix(m.Schema, "cmcp-trace/") {
				meta = &m
				continue
			}
			skipped++
			continue
		}
		events = append(events, Event{
			Time: sim.Cycles(je.Time),
			Core: sim.CoreID(je.Core),
			Type: typ,
			Page: sim.PageID(je.Page),
			Arg:  je.Arg,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, 0, err
	}
	return events, meta, skipped, nil
}

// chromeTS formats a cycle timestamp as trace_event microseconds with
// fixed precision, keeping output byte-deterministic.
func chromeTS(t sim.Cycles) string {
	return fmt.Sprintf("%.3f", float64(t)/CyclesPerMicrosecond)
}

// chromeTrackName labels one track (thread) of the Chrome trace. cores
// is the application core count; the scanner pseudo-core and the
// policy track get their own names.
func chromeTrackName(core sim.CoreID, cores int) string {
	switch {
	case core == PolicyCore:
		return "policy"
	case int(core) == cores:
		return "scanner"
	default:
		return fmt.Sprintf("core %d", core)
	}
}

// chromeTID maps a core to a stable non-negative thread ID: the policy
// track is tid 0 and every real core shifts up by one.
func chromeTID(core sim.CoreID) int { return int(core) + 1 }

// WriteChromeTrace encodes events (as instant events, one track per
// core) and samples (as counter tracks) in the Chrome trace_event JSON
// object format. Load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing. cores is the application core count, used only to
// label the scanner pseudo-core's track.
func WriteChromeTrace(w io.Writer, events []Event, samples []Sample, cores int) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}

	emit(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"cmcpsim"}}`)
	tracks := map[sim.CoreID]bool{}
	for _, e := range events {
		tracks[e.Core] = true
	}
	ids := make([]int, 0, len(tracks))
	byID := map[int]sim.CoreID{}
	for c := range tracks {
		ids = append(ids, chromeTID(c))
		byID[chromeTID(c)] = c
	}
	sort.Ints(ids)
	for _, id := range ids {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%q}}`,
			id, chromeTrackName(byID[id], cores)))
	}

	for _, e := range events {
		emit(fmt.Sprintf(`{"name":%q,"ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"page":%d,"arg":%d}}`,
			e.Type.String(), chromeTS(e.Time), chromeTID(e.Core), e.Page, e.Arg))
	}
	for _, s := range samples {
		emit(fmt.Sprintf(`{"name":"resident","ph":"C","ts":%s,"pid":0,"args":{"resident":%d}}`,
			chromeTS(s.Time), s.Resident))
		if s.FIFOLen >= 0 {
			emit(fmt.Sprintf(`{"name":"cmcp_groups","ph":"C","ts":%s,"pid":0,"args":{"fifo":%d,"prio":%d}}`,
				chromeTS(s.Time), s.FIFOLen, s.PrioLen))
		}
		emit(fmt.Sprintf(`{"name":"page_faults","ph":"C","ts":%s,"pid":0,"args":{"page_faults":%d}}`,
			chromeTS(s.Time), s.Counters[stats.PageFaults]))
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSamplesCSV encodes the sampler time series as CSV. The counter
// columns come straight from stats.CounterNames, so the header can
// never drift from the counter set.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	cols := append([]string{"time_cycles", "resident", "cmcp_fifo", "cmcp_prio", "clock_skew_cycles"},
		stats.CounterNames()...)
	if _, err := bw.WriteString(strings.Join(cols, ",") + "\n"); err != nil {
		return err
	}
	for _, s := range samples {
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d", uint64(s.Time), s.Resident, s.FIFOLen, s.PrioLen, uint64(s.ClockSkew))
		for _, v := range s.Counters {
			fmt.Fprintf(bw, ",%d", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Timeline renders events as a bucketed text table — one row per time
// bucket, one column per event type that occurs — followed by totals.
// It is the cmcpsim -replay output and a quick way to see *when* a
// run's eviction or shootdown activity clusters without leaving the
// terminal.
func Timeline(events []Event, buckets int) string {
	var b strings.Builder
	if len(events) == 0 {
		return "timeline: no events\n"
	}
	if buckets < 1 {
		buckets = 1
	}
	t0, t1 := events[0].Time, events[0].Time
	for _, e := range events {
		if e.Time < t0 {
			t0 = e.Time
		}
		if e.Time > t1 {
			t1 = e.Time
		}
	}
	width := (t1 - t0 + sim.Cycles(buckets)) / sim.Cycles(buckets)
	if width == 0 {
		width = 1
	}

	var present [numEventTypes]bool
	counts := make([][numEventTypes]uint64, buckets)
	var totals [numEventTypes]uint64
	for _, e := range events {
		i := int((e.Time - t0) / width)
		if i >= buckets {
			i = buckets - 1
		}
		counts[i][e.Type]++
		totals[e.Type]++
		present[e.Type] = true
	}

	fmt.Fprintf(&b, "timeline: %d events over %.2f Mcycles (%d buckets of %.2f Mcycles)\n\n",
		len(events), float64(t1-t0)/1e6, buckets, float64(width)/1e6)
	tab := &stats.Table{Columns: []string{"t(Mcyc)"}}
	var cols []EventType
	for t := EventType(0); t < numEventTypes; t++ {
		if present[t] {
			tab.Columns = append(tab.Columns, t.String())
			cols = append(cols, t)
		}
	}
	for i := 0; i < buckets; i++ {
		cells := []any{fmt.Sprintf("%.2f", float64(t0+sim.Cycles(i)*width)/1e6)}
		for _, t := range cols {
			cells = append(cells, counts[i][t])
		}
		tab.AddRow(fmt.Sprintf("[%3d]", i), cells...)
	}
	cells := []any{""}
	for _, t := range cols {
		cells = append(cells, totals[t])
	}
	tab.AddRow("total", cells...)
	b.WriteString(tab.String())
	return b.String()
}
