package machine

import (
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// TestPrivatePagesSanity checks two consequences of PSPT's precise
// core sets on a 56-core machine whose pages are all private (sharing
// profile [{Cores: 1, Frac: 1}]): the final sharing histogram has no
// mass above a core-map count of 1, and since each eviction can shoot
// down only the page's one owner, remote TLB invalidations never exceed
// evictions. Both runs are audited.
func TestPrivatePagesSanity(t *testing.T) {
	for _, k := range []PolicyKind{FIFO, CMCP} {
		t.Run(k.String(), func(t *testing.T) {
			aud := check.New(check.Config{Every: 4096})
			res, err := Simulate(Config{
				Cores:       56,
				Workload:    workload.Private(56*48, 120_000),
				MemoryRatio: 0.5,
				PageSize:    sim.Size4k,
				Tables:      vm.PSPTKind,
				Policy:      PolicySpec{Kind: k, P: -1},
				Seed:        3,
				Audit:       aud,
			})
			if err != nil {
				t.Fatal(err)
			}
			if vs := aud.Violations(); aud.Audits() == 0 || len(vs) != 0 {
				t.Fatalf("%d audits, violations: %v", aud.Audits(), vs)
			}
			for c, n := range res.Sharing {
				if c > 1 && n != 0 {
					t.Errorf("Sharing = %v: %d pages mapped by %d cores", res.Sharing, n, c)
				}
			}
			ev, inval := res.Run.Total(stats.Evictions), res.Run.Total(stats.RemoteTLBInvalidations)
			if ev == 0 {
				t.Fatal("no evictions: the run does not exercise shootdowns")
			}
			if inval > ev {
				t.Errorf("%d remote TLB invalidations for %d evictions", inval, ev)
			}
			t.Logf("evictions %d, remote invalidations %d, sharing %v", ev, inval, res.Sharing[:2])
		})
	}
}
