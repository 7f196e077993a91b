package sim

// CostModel holds every cycle cost the simulator charges. The defaults
// are calibrated to a Knights Corner Xeon Phi 5110P (60 in-order cores
// at 1.053 GHz, PCIe gen2 x16 giving ~6 GB/s measured by the paper) and
// are the single knob set used by all experiments; EXPERIMENTS.md
// records the calibration rationale.
//
// One simulated access is a page *touch*: it stands for the burst of
// loads/stores an HPC kernel issues inside one 4 kB page before moving
// on. TouchCompute amortizes that burst's compute+cache time, so the
// ratio of TouchCompute to fault/shootdown costs — not absolute wall
// time — decides the shapes of the figures, exactly as the relative
// PCIe/IPI/compute costs do on the real card.
type CostModel struct {
	// TouchCompute is the amortized compute + cache cost of one page
	// touch when the translation is already in the L1 TLB.
	TouchCompute Cycles

	// TLBL2Hit is charged when the L1 TLB misses but the unified L2 TLB
	// holds the translation.
	TLBL2Hit Cycles

	// PageWalk is the cost of a full hardware page-table walk after
	// missing both TLB levels (4 radix levels on cold caches).
	PageWalk Cycles

	// PSPTConsult is the extra software cost, on a minor fault, of
	// consulting sibling cores' partially separated page tables and
	// copying a valid PTE (paper §2.3).
	PSPTConsult Cycles

	// FaultEntry is the trap + kernel entry/exit overhead of any page
	// fault, before the VM subsystem does real work.
	FaultEntry Cycles

	// FaultService is the software cost of servicing a major fault:
	// allocator, queues, policy bookkeeping (excluding DMA and IPIs).
	FaultService Cycles

	// LockBase is the critical-section length charged while holding a
	// page-table lock for one PTE update. The regular shared table
	// holds its single address-space lock for this long per update,
	// which is what serializes concurrent faults.
	LockBase Cycles

	// AllocLock is the hold time of the (global but short) frame
	// allocator lock taken on the PSPT major-fault path. Unlike the
	// regular tables' address-space lock, it covers only the free-list
	// operation, so it contends mildly.
	AllocLock Cycles

	// IPISend is the fixed cost, at the initiating core, of assembling
	// a remote TLB invalidation request.
	IPISend Cycles

	// IPIPerTarget is the per-destination cost at the initiator of the
	// invalidation IPI loop (write the request structure, take its
	// lock, trigger the IPI). Acknowledgement is asynchronous; the
	// heavy price is paid at the targets (IPIInterrupt).
	IPIPerTarget Cycles

	// IPIInterrupt is the cost charged to each *target* core: pipeline
	// flush, interrupt entry, synchronization on the shared request
	// structures (the paper measures up to 8x more cycles spent on
	// these locks under LRU), INVLPG, acknowledgement, pipeline refill
	// on the in-order core.
	IPIInterrupt Cycles

	// IPIPerHop is the additional per-ring-hop delivery cost of an
	// eviction IPI. KNC cores sit on a bidirectional ring; an IPI (and
	// its acknowledgement) crosses min(|a-b|, N-|a-b|) stops, so
	// shooting down a distant core costs more than a neighbour. See
	// RingHops.
	IPIPerHop Cycles

	// ScanIPIPerTarget is the per-destination cost at the statistics
	// scanner for its invalidation IPIs. Unlike eviction shootdowns —
	// which must complete before the frame is reused — accessed-bit
	// invalidations need no completion wait, so the scanner fires them
	// asynchronously and pays only the enqueue cost. The damage lands
	// on the targets (IPIInterrupt), which is the paper's point.
	ScanIPIPerTarget Cycles

	// InvlpgLocal is the cost of invalidating one entry in the local
	// TLB without an IPI.
	InvlpgLocal Cycles

	// DMALatency is the fixed PCIe round-trip setup latency of one
	// host<->device page transfer.
	DMALatency Cycles

	// DMABytesPerCycle is the effective PCIe bandwidth for page-sized
	// transfers, in the simulator's compressed time base. The real link
	// streams ~6 GB/s (~5.7 B/cycle), but the simulator compresses the
	// compute between faults (one touch stands for a burst of real
	// accesses), so the bandwidth is scaled by the same factor to keep
	// the compute-to-transfer ratio — and thus the link utilization
	// regime the paper ran in (busy but not saturated) — unchanged.
	DMABytesPerCycle float64

	// ScanPTE is the scanner cost of checking and clearing the accessed
	// bit of one PTE (excluding the shootdown it triggers).
	ScanPTE Cycles

	// ScanPeriod is the simulated time between two runs of the LRU
	// statistics scanner (the paper uses a 10 ms timer).
	ScanPeriod Cycles

	// AgePeriod is the simulated time between two CMCP aging sweeps.
	AgePeriod Cycles
}

// DefaultCostModel returns the calibrated Knights Corner model used by
// every experiment unless a test overrides individual fields.
func DefaultCostModel() CostModel {
	return CostModel{
		TouchCompute:     1200,
		TLBL2Hit:         8,
		PageWalk:         120,
		PSPTConsult:      400,
		FaultEntry:       2000,
		FaultService:     24000,
		LockBase:         600,
		AllocLock:        200,
		IPISend:          300,
		IPIPerTarget:     800,
		IPIPerHop:        20,
		IPIInterrupt:     8000,
		ScanIPIPerTarget: 150,
		InvlpgLocal:      40,
		DMALatency:       9000,
		DMABytesPerCycle: 10.0,
		ScanPTE:          20,
		ScanPeriod:       10_530_000, // 10 ms at 1.053 GHz
		AgePeriod:        21_060_000, // 20 ms
	}
}

// KNLCostModel returns a cost model for a Knights Landing-like
// standalone many-core with on-package "near" memory and DDR "far"
// memory instead of a PCIe-attached host (the architecture the paper's
// conclusion anticipates: "Knights Landing ... will replace the PCI
// Express bus with printed circuit board connection between memory
// hierarchies (rendering the bandwidth significantly higher), we
// expect to see further performance benefits of our solution"). The
// transfer path is ~8x faster in latency and bandwidth; the CPU-side
// costs (faults, IPIs, scanning) are unchanged — which is exactly why
// the TLB-shootdown argument, and CMCP, still matter there.
func KNLCostModel() CostModel {
	c := DefaultCostModel()
	c.DMALatency /= 8
	c.DMABytesPerCycle *= 8
	return c
}

// DMACost returns the cost of moving n bytes across the PCIe link,
// including fixed latency.
func (c *CostModel) DMACost(n int64) Cycles {
	if n <= 0 {
		return 0
	}
	return c.DMALatency + Cycles(float64(n)/c.DMABytesPerCycle)
}

// ShootdownInitiatorCost returns the cost charged to the core that
// initiates a remote TLB invalidation to targets other cores, ignoring
// ring distance (used where the target set is only known by size).
func (c *CostModel) ShootdownInitiatorCost(targets int) Cycles {
	if targets <= 0 {
		return 0
	}
	return c.IPISend + Cycles(targets)*c.IPIPerTarget
}

// RingHops returns the number of stops between two cores on an n-core
// bidirectional ring.
func RingHops(a, b CoreID, n int) int {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	if n > 0 && n-d < d {
		d = n - d
	}
	return d
}

// IPIDeliveryCost returns the initiator-side cost of one eviction IPI
// from core a to core b on an n-core ring: the per-target base plus the
// per-hop wire time of the request/acknowledgement round trip.
func (c *CostModel) IPIDeliveryCost(a, b CoreID, n int) Cycles {
	return c.IPIPerTarget + Cycles(RingHops(a, b, n))*c.IPIPerHop
}
