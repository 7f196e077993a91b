// The engine speedup regression guard run by CI's perf-smoke job.
//
// The guard is opt-in (CMCP_PERF_GUARD=1) because it is a wall-clock
// assertion: on a developer machine running `go test ./...` alongside
// other work it would flap, and a flaky guard trains people to ignore
// red. CI runs it on an otherwise idle runner.
package cmcp_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"cmcp"
	"cmcp/internal/machine"
)

// TestEngineThroughputGuard compares serial and parallel engine wall
// time on the benchmark configuration, interleaving the engines and
// taking each one's best of five runs so co-tenant noise hits both
// sides alike.
//
// The threshold scales with the host, because the parallel engine's
// headroom does: the probe phase fans out across GOMAXPROCS-1 workers,
// but the sweep (commit + event processing, roughly half the serial
// profile) stays serial, so single-core hosts see only the hit-run
// batching gain (~1.1x) and even wide hosts are Amdahl-bound well
// below the naive core count. Gating "parallel >= 3x serial" would
// therefore be permanently red everywhere but a large, quiet machine;
// instead the guard asserts the parallel engine never falls below
// half the serial engine's throughput — which is exactly the class of
// regression it exists to catch (an earlier unfenced-scan bug put
// CLOCK at 0.45x and would have tripped it) — plus, on hosts wide
// enough for real fan-out, that parallel beats serial outright.
func TestEngineThroughputGuard(t *testing.T) {
	if os.Getenv("CMCP_PERF_GUARD") == "" {
		t.Skip("set CMCP_PERF_GUARD=1 to run the engine throughput guard")
	}
	minRatio := 0.5
	if runtime.GOMAXPROCS(0) >= 8 {
		minRatio = 1.0
	}
	// FIFO is the fault-heavy case; CLOCK is the scan-heavy one, whose
	// tick shootdowns exercise the rollback path hardest.
	for _, kind := range []cmcp.PolicyKind{cmcp.FIFO, cmcp.CLOCK} {
		cfg := cmcp.Config{
			Cores:       56,
			Workload:    cmcp.SCALE().Scale(0.1),
			MemoryRatio: 0.5,
			Tables:      cmcp.PSPT,
			Policy:      cmcp.PolicySpec{Kind: kind, P: -1},
			Seed:        1,
		}
		best := map[machine.EngineKind]time.Duration{}
		for rep := 0; rep < 5; rep++ {
			for _, eng := range []machine.EngineKind{cmcp.SerialEngine, cmcp.ParallelEngine} {
				c := cfg
				c.Engine = eng
				start := time.Now()
				if _, err := cmcp.Simulate(c); err != nil {
					t.Fatalf("%v/%v: %v", kind, eng, err)
				}
				el := time.Since(start)
				if cur, ok := best[eng]; !ok || el < cur {
					best[eng] = el
				}
			}
		}
		ser, par := best[cmcp.SerialEngine], best[cmcp.ParallelEngine]
		ratio := ser.Seconds() / par.Seconds()
		t.Logf("%v: serial %v, parallel %v, speedup %.2fx (floor %.2fx, GOMAXPROCS %d)",
			kind, ser, par, ratio, minRatio, runtime.GOMAXPROCS(0))
		if ratio < minRatio {
			t.Errorf("%v: parallel engine %.2fx of serial, below the %.2fx floor", kind, ratio, minRatio)
		}
	}
}
