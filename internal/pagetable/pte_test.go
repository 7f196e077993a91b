package pagetable

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPTEBits(t *testing.T) {
	e := MakePTE(1234, Present|Writable)
	if e.PFN() != 1234 {
		t.Errorf("PFN = %d", e.PFN())
	}
	if !e.Has(Present) || !e.Has(Writable) || e.Has(Dirty) {
		t.Error("flag bits wrong")
	}
	e = e.With(Dirty | Accessed)
	if !e.Has(Dirty | Accessed) {
		t.Error("With failed")
	}
	if e.PFN() != 1234 {
		t.Error("flags clobbered PFN")
	}
	e = e.Without(Accessed)
	if e.Has(Accessed) || !e.Has(Dirty) {
		t.Error("Without failed")
	}
}

func TestPTEFlagsNeverTouchPFN(t *testing.T) {
	f := func(pfn uint32, flags uint16) bool {
		e := MakePTE(int64(pfn), PTE(flags))
		if e.PFN() != int64(pfn) {
			return false
		}
		e2 := e.With(Accessed | Dirty | Hint64k).Without(Writable)
		return e2.PFN() == int64(pfn)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(105))}); err != nil {
		t.Error(err)
	}
}

func TestPTEString(t *testing.T) {
	if s := PTE(0).String(); !strings.Contains(s, "not-present") {
		t.Error(s)
	}
	e := MakePTE(7, Present|Writable|Hint64k)
	s := e.String()
	for _, want := range []string{"pfn=7", "W", "64k"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
