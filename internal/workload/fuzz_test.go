package workload

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzZipfRank checks the guide-table rank lookup against a plain
// binary search over the same CDF. The input decodes to a rank count n
// in [1, 2100] (powers of two and other sizes), a Zipf exponent s in
// [0, 8) and a list of draws u; every bucket edge k/K, the float just
// below it, each CDF entry and the float just below it, 0 and the
// largest float below 1 are checked as well.
func FuzzZipfRank(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(binary.LittleEndian.Uint16(data))%2100
		s := float64(data[2]) / 32
		z := newZipfTable(zipfCDF(n, s))
		check := func(u float64) {
			if got, want := z.rank(u), sort.SearchFloat64s(z.cum, u); got != want {
				t.Fatalf("n=%d s=%g u=%v: guided rank %d, binary search %d", n, s, u, got, want)
			}
		}
		check(0)
		check(math.Nextafter(1, 0))
		for k := 1; k < len(z.guide); k++ {
			edge := float64(k) / z.k
			check(edge)
			check(math.Nextafter(edge, 0))
		}
		for _, c := range z.cum {
			if c < 1 {
				check(c)
			}
			check(math.Nextafter(c, 0))
		}
		for b := data[3:]; len(b) >= 8; b = b[8:] {
			check(float64(binary.LittleEndian.Uint64(b)>>11) / (1 << 53))
		}
	})
}
