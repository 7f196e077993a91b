package vm

import (
	"reflect"
	"testing"

	"cmcp/internal/sim"
)

// TestSharedASMappingRecord checks that the regular table alone is the
// record of resident mappings at every page size: ForEachMapping
// reports each mapping once (a 64 kB group at its first member) in
// ascending base order with its first frame, a second Map of a mapped
// base fails, and Unmap of any page inside a mapping returns its base,
// its frame and whether a store reached any of its pages.
func TestSharedASMappingRecord(t *testing.T) {
	type mapping struct {
		base sim.PageID
		pfn  int64
	}
	for _, size := range []sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M} {
		t.Run(size.String(), func(t *testing.T) {
			span := size.Span()
			s := newSharedAS(4, size)
			// Mapped out of order; bases and frames are size-aligned.
			for _, i := range []sim.PageID{5, 0, 3} {
				if err := s.Map(0, i*span, int64(i*span)+int64(span), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Map(1, 3*span, 0, 0); err == nil {
				t.Error("double map accepted")
			}
			var got []mapping
			s.ForEachMapping(func(base sim.PageID, pfn int64) { got = append(got, mapping{base, pfn}) })
			want := []mapping{{0, int64(span)}, {3 * span, int64(4 * span)}, {5 * span, int64(6 * span)}}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ForEachMapping = %v, want %v", got, want)
			}
			if s.Resident() != 3 {
				t.Errorf("resident = %d, want 3", s.Resident())
			}
			s.Touch(0, 3*span+span-1, false)
			base, pfn, dirty, targets, ok := s.Unmap(3*span + span - 1)
			if !ok || base != 3*span || pfn != int64(4*span) || dirty || len(targets) != 4 {
				t.Errorf("Unmap = base %d pfn %d dirty %v targets %v ok %v, want base %d pfn %d clean on all 4 cores",
					base, pfn, dirty, targets, ok, 3*span, 4*span)
			}
			if _, _, _, _, ok := s.Unmap(3 * span); ok {
				t.Error("second Unmap of the same mapping succeeded")
			}
			if s.Resident() != 2 {
				t.Errorf("resident = %d after Unmap, want 2", s.Resident())
			}
			// A store to the last page of a mapping makes all of it dirty.
			s.Touch(2, 5*span+span-1, true)
			if _, _, dirty, _, _ := s.Unmap(5 * span); !dirty {
				t.Error("Unmap after a store to the last page reported clean")
			}
		})
	}
}
