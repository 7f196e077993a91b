// Package trace captures the page-access streams of a workload in
// memory and analyzes them offline, including Belady's optimal (MIN)
// fault count, the clairvoyant lower bound no online policy can beat.
// The paper compares CMCP against realizable policies only; the OPT
// analyzer quantifies how much headroom is left. A trace is a pure
// function of (workload, cores, scale, seed), so it is recomputed
// rather than stored: `cmcpsim -analyze` captures and analyzes in one
// step.
package trace

import (
	"cmcp/internal/sim"
	"cmcp/internal/workload"
)

// Record is one page touch by one core, in global interleaved order.
type Record struct {
	Core  sim.CoreID
	VPN   sim.PageID
	Write bool
}

// Trace is an in-memory access trace.
type Trace struct {
	Cores   int
	Records []Record
}

// Capture runs every stream of a workload layout round-robin and
// records the interleaved trace (the deterministic canonical order;
// the simulator's event order differs per configuration, but policies
// see the same per-core sequences).
func Capture(layout *workload.Layout, seed uint64) *Trace {
	streams := layout.Streams(seed)
	t := &Trace{Cores: layout.Cores}
	active := len(streams)
	for active > 0 {
		active = 0
		for c, s := range streams {
			a, ok := s.Next()
			if !ok {
				continue
			}
			active++
			t.Records = append(t.Records, Record{Core: sim.CoreID(c), VPN: a.VPN, Write: a.Write})
		}
	}
	return t
}

// MaxVPN returns the largest page number referenced (plus one gives the
// footprint bound).
func (t *Trace) MaxVPN() sim.PageID {
	var m sim.PageID
	for _, r := range t.Records {
		if r.VPN > m {
			m = r.VPN
		}
	}
	return m
}
