// Package hist provides fixed-bucket log₂ histograms for the CMCP
// simulator's latency and fan-out distributions.
//
// The end-of-run counters in internal/stats answer "how much in
// total"; a histogram answers "how is it distributed" — the p99 fault
// service time and shootdown fan-out tail that means hide. The design
// constraints come from the sweep layer rather than from statistics:
//
//   - Deterministic. Bucket bounds are exact integers (powers of two
//     minus one), never floats, so the same run yields byte-identical
//     histograms on every platform and quantiles are pure integer
//     functions of the bucket counts.
//   - Mergeable. Two histograms over the same bucket layout merge by
//     adding counts, losslessly — which is what lets sweep journals
//     round-trip them and lets Repeats replicates pool into one
//     distribution with no averaging error.
//   - Zero-alloc recording. Record is a few integer instructions on a
//     fixed-size array; attaching histograms to a run costs one
//     allocation at setup and nothing per event.
//
// Value v lands in bucket bits.Len64(v): bucket 0 holds exactly the
// value 0, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i - 1]. The 65
// buckets cover the whole uint64 range, so recording can never clip.
package hist

import (
	"math"
	"math/bits"
)

// NumBuckets is the fixed bucket count: one per possible bit length of
// a uint64 value (0..64).
const NumBuckets = 65

// H is one log₂ histogram. The zero value is empty and ready to use.
// All fields are exported (and JSON-tagged) so histograms serialize
// losslessly through encoding/json with no custom marshaller.
type H struct {
	// Count is the number of recorded values (always equal to the sum
	// of Buckets; readers use the invariant to reject torn data).
	Count uint64 `json:"count"`
	// Sum is the exact total of recorded values (mod 2^64).
	Sum uint64 `json:"sum"`
	// Max is the largest recorded value.
	Max uint64 `json:"max"`
	// Buckets[i] counts recorded values of bit length i.
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Record adds one value. Zero allocations, no branches beyond the max
// update — cheap enough for the engine's per-fault hot path.
func (h *H) Record(v uint64) {
	h.Buckets[bits.Len64(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge adds other's contents into h. Exact: the merged histogram is
// identical to one that recorded both value streams.
func (h *H) Merge(other *H) {
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Reset empties the histogram in place.
func (h *H) Reset() { *h = H{} }

// UpperBound returns bucket i's inclusive upper bound: 0 for bucket 0,
// 2^i - 1 otherwise. These exact integer bounds are what quantile
// estimates report.
func UpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Mean returns the arithmetic mean of the recorded values (0 when
// empty). Mean is exact — it divides the exact Sum — unlike the
// bucket-bound quantiles.
func (h *H) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// QuantileRank returns the upper bound of the bucket holding the
// ⌈Count·num/den⌉-th smallest recorded value — a deterministic,
// integer-only quantile estimate that over-reports by at most the
// bucket width (a factor of two). Zero when the histogram is empty.
func (h *H) QuantileRank(num, den uint64) uint64 {
	if h.Count == 0 || den == 0 {
		return 0
	}
	rank := (h.Count*num + den - 1) / den
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank {
			return UpperBound(i)
		}
	}
	return UpperBound(NumBuckets - 1)
}

// P50 returns the median estimate.
func (h *H) P50() uint64 { return h.QuantileRank(50, 100) }

// P90 returns the 90th-percentile estimate.
func (h *H) P90() uint64 { return h.QuantileRank(90, 100) }

// P99 returns the 99th-percentile estimate.
func (h *H) P99() uint64 { return h.QuantileRank(99, 100) }

// P999 returns the 99.9th-percentile estimate.
func (h *H) P999() uint64 { return h.QuantileRank(999, 1000) }

// CheckInvariant reports whether Count equals the bucket total — the
// self-consistency test journal readers apply to detect torn or
// truncated histogram records.
func (h *H) CheckInvariant() bool {
	var total uint64
	for _, c := range h.Buckets {
		total += c
	}
	return total == h.Count
}

// Summary is the compact rendering of one histogram: the numbers that
// land in reports and bench JSON.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Max   uint64  `json:"max"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
}

// Summarize extracts the Summary.
func (h *H) Summarize() Summary {
	return Summary{
		Count: h.Count,
		Mean:  h.Mean(),
		Max:   h.Max,
		P50:   h.P50(),
		P90:   h.P90(),
		P99:   h.P99(),
		P999:  h.P999(),
	}
}
