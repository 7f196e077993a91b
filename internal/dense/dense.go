// Package dense provides the flat, page-indexed data structures the
// simulator's hot path runs on. Workload layouts assign page IDs
// densely from 0..TotalPages (see workload.Build), so every map keyed
// by sim.PageID in the per-touch path can be a slice indexed by page
// instead: Index (page -> int32, e.g. heap positions), List (the
// FIFO/LRU/CLOCK/CMCP queues) and Heap (the positioned min-heap behind
// CMCP's priority group, LFU's frequencies, the tenant arbiter and
// Belady's OPT). That removes hashing, bucket
// chasing and per-entry allocation from the inner simulation loop. PSPT
// keeps its own page-indexed record table (pspt.entry): its records are
// wider than a word.
//
// All structures here are bookkeeping-identical to the maps they
// replace: presence is encoded explicitly (a zero sentinel), so the
// swap sites preserve bit-identical simulation results.
package dense

// Scratch has no fields and no methods. It survives only as the type
// of the ignored first parameter of policy.NewFIFOIn, NewClockIn,
// NewRandomIn, WithLRUArena, WithLFUArena and core.WithArena, which
// the benchmark module still calls with nil.
type Scratch struct{}
