package trace

import (
	"testing"

	"cmcp/internal/sim"
)

// FuzzOPTAgainstBruteForce cross-checks the heap-based Belady
// implementation against the quadratic reference on arbitrary short
// reference strings.
func FuzzOPTAgainstBruteForce(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}, uint8(3))
	f.Add([]byte{0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, cap8 uint8) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		capacity := int(cap8%8) + 1
		tr := &Trace{Cores: 1}
		refs := make([]sim.PageID, len(raw))
		for i, v := range raw {
			vpn := sim.PageID(v % 16)
			refs[i] = vpn
			tr.Records = append(tr.Records, Record{VPN: vpn})
		}
		res, err := OPT(tr, capacity, sim.Size4k)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceOPT(refs, capacity); res.Faults != want {
			t.Fatalf("OPT = %d, brute force = %d (capacity %d, refs %v)",
				res.Faults, want, capacity, refs)
		}
	})
}
