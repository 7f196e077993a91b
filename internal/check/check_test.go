package check_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"cmcp/internal/check"
	"cmcp/internal/pagetable"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/vm"
)

// These tests prove the auditor actually catches bookkeeping bugs by
// deliberately injecting them into an otherwise healthy VM subsystem:
// a shootdown that never reached a TLB, a policy that miscounts its
// population, and stale PSPT bookkeeping. A clean manager must audit
// clean.

func fifoFactory(policy.Host) policy.Policy { return policy.NewFIFO() }

func newManager(t *testing.T, cfg vm.Config, factory vm.PolicyFactory) *vm.Manager {
	t.Helper()
	if factory == nil {
		factory = fifoFactory
	}
	m, err := vm.NewManager(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// touch faults a spread of pages in so every bookkeeping layer has
// non-trivial state to audit.
func touch(t *testing.T, m *vm.Manager, cores, pages int) {
	t.Helper()
	var now sim.Cycles
	for i := 0; i < pages; i++ {
		done, err := m.Access(sim.CoreID(i%cores), sim.PageID(i*3), i%2 == 0, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
}

func TestAuditorCleanManagerPasses(t *testing.T) {
	for _, kind := range []vm.TableKind{vm.PSPTKind, vm.RegularPT} {
		t.Run(kind.String(), func(t *testing.T) {
			m := newManager(t, vm.Config{
				Cores: 4, Frames: 64, PageSize: sim.Size4k, Tables: kind, Pages: 256,
			}, nil)
			touch(t, m, 4, 40)
			aud := check.New(check.Config{})
			aud.Audit(m)
			if err := aud.Err(); err != nil {
				t.Fatalf("clean manager failed audit: %v", err)
			}
			if aud.Audits() != 1 {
				t.Errorf("audits = %d, want 1", aud.Audits())
			}
		})
	}
}

func TestAuditorCatchesStaleTLBEntry(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
	}, nil)
	touch(t, m, 2, 20)
	// Inject the classic missed-shootdown bug: a cached translation for
	// a page that has no live mapping in the core's table view.
	m.TLBFor(0).Insert(199, sim.Size4k)
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "tlb")
}

// TestAuditorReportsTLBBookkeeping desynchronizes one core's TLB sets
// from its state table. A TLB is a plain value whose state table is
// shared by its copies, so restoring a copy taken before an Insert
// leaves the inserted page's state bit set while the set's live count
// stays one short. The page is mapped on that core, so the translation
// check passes it, and only TLB.CheckInvariants can report it.
func TestAuditorReportsTLBBookkeeping(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
	}, nil)
	touch(t, m, 2, 20) // core 0 maps page 0
	tl := m.TLBFor(0)
	tl.Invalidate(0)
	saved := *tl
	tl.Insert(0, sim.Size4k)
	*tl = saved
	if _, _, ok := m.Lookup(0, 0); !ok {
		t.Fatal("setup: core 0 does not map page 0")
	}
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "tlb")
	for _, v := range aud.Violations() {
		if v.Module == "tlb" && strings.HasPrefix(v.Detail, "core 0: tlb L1/") {
			return
		}
	}
	t.Fatalf("no TLB bookkeeping violation among: %v", aud.Violations())
}

// TestAuditorCatchesStaleAccessSummary desynchronizes one bit of PSPT's
// accessed/dirty summary from the PTE bit it mirrors — the signature of
// an attribute path that forgot the summary — in both directions: a
// summary bit left set over a cleared PTE bit, and a PTE bit the
// summary never saw. The PTE is edited behind PSPT's back, so the
// summary bit is the stale side.
func TestAuditorCatchesStaleAccessSummary(t *testing.T) {
	for _, tc := range []struct {
		name string
		core sim.CoreID
		vpn  sim.PageID
		edit func(pagetable.PTE) pagetable.PTE
	}{
		// touch wrote page 0 from core 0 and read page 3 from core 1.
		{"stale accessed", 0, 0, func(e pagetable.PTE) pagetable.PTE { return e.Without(pagetable.Accessed) }},
		{"unseen dirty", 1, 3, func(e pagetable.PTE) pagetable.PTE { return e.With(pagetable.Dirty) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t, vm.Config{
				Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
			}, nil)
			touch(t, m, 2, 20)
			aud := check.New(check.Config{})
			aud.Audit(m)
			if err := aud.Err(); err != nil {
				t.Fatalf("clean manager failed audit: %v", err)
			}
			p, _ := m.PSPT()
			if !p.Table(tc.core).Update(tc.vpn, tc.edit) {
				t.Fatalf("core %d does not map page %d", tc.core, tc.vpn)
			}
			aud = check.New(check.Config{})
			aud.Audit(m)
			assertViolation(t, aud, "pspt")
		})
	}
}

// TestAuditorCatchesCorelessRecord strips the only mapping core from a
// resident PSPT record: the PTE is cleared behind PSPT's back and the
// record's core set is zeroed in place, which leaves the record resident
// with an empty core set. No PSPT method can produce that state, so the
// test writes the unexported field directly.
func TestAuditorCatchesCorelessRecord(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
	}, nil)
	touch(t, m, 2, 20) // core 1 alone maps page 3
	p, _ := m.PSPT()
	p.Table(1).Clear(3)
	cores := reflect.ValueOf(p).Elem().FieldByName("ents").Index(3).FieldByName("cores")
	reflect.NewAt(cores.Type(), unsafe.Pointer(cores.UnsafeAddr())).Elem().SetZero()
	if mp, ok := p.Mapping(3); !ok || mp.Cores.Count() != 0 {
		t.Fatalf("setup: page 3 resident=%v with cores %v, want a coreless record", ok, mp.Cores)
	}
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "pspt")
	for _, v := range aud.Violations() {
		if strings.Contains(v.Detail, "page 3: resident record has no mapping core") {
			return
		}
	}
	t.Fatalf("no coreless-record violation among: %v", aud.Violations())
}

// TestAuditorReportsPhantomCoreBit leaves a core bit in a PSPT record
// with no PTE behind it. The audit must report it and leave the record
// as it found it.
func TestAuditorReportsPhantomCoreBit(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
	}, nil)
	touch(t, m, 2, 20) // core 1 alone maps page 3
	p, _ := m.PSPT()
	p.Table(1).Clear(3)
	before, _ := p.Mapping(3)
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "pspt")
	if after, _ := p.Mapping(3); after != before {
		t.Errorf("audit changed the record: %+v, was %+v", after, before)
	}
	for _, v := range aud.Violations() {
		if strings.Contains(v.Detail, "page 3: core set says core 1 mapped=true, table lookup says false") {
			return
		}
	}
	t.Fatalf("no phantom-core violation among: %v", aud.Violations())
}

// miscountingPolicy reports one more resident mapping than it tracks —
// the signature of a missed Remove or double PTESetup in a policy.
type miscountingPolicy struct{ policy.Policy }

func (p miscountingPolicy) Resident() int { return p.Policy.Resident() + 1 }

func TestAuditorCatchesMiscountingPolicy(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 1, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
	}, func(policy.Host) policy.Policy {
		return miscountingPolicy{policy.NewFIFO()}
	})
	touch(t, m, 1, 10)
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "residency")
}

// movableDeadline is a FIFO whose policy.Deadline the test can move
// outside Tick — a breach of the Deadline contract that leaves the
// tenant machine's cached deadline stale.
type movableDeadline struct {
	*policy.FIFO
	next sim.Cycles
}

func (p *movableDeadline) NextTick() sim.Cycles { return p.next }

func TestAuditorCatchesLateTenantDeadline(t *testing.T) {
	var pols []*movableDeadline
	m := newManager(t, vm.Config{
		Cores: 2, Frames: 32, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 64,
		Tenants: &vm.TenantConfig{Count: 4, PagesPerTenant: 16},
	}, func(policy.Host) policy.Policy {
		p := &movableDeadline{FIFO: policy.NewFIFO(), next: 1000}
		pols = append(pols, p)
		return p
	})
	touch(t, m, 2, 20)
	m.Tick(0)
	if got := m.TenantNextTick(); got != 1000 {
		t.Fatalf("TenantNextTick = %d after a tick, want the tenants' deadline 1000", got)
	}
	aud := check.New(check.Config{})
	aud.Audit(m)
	if err := aud.Err(); err != nil {
		t.Fatalf("clean tenant manager failed audit: %v", err)
	}
	// Tenant 2 becomes due at 500, but the scanner would skip every
	// tenant until 1000.
	pols[2].next = 500
	aud = check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "tenant")
}

func TestAuditorViolationLimitAndSummary(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 1, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 1024,
	}, nil)
	touch(t, m, 1, 10)
	for i := 0; i < 5; i++ {
		m.TLBFor(0).Insert(sim.PageID(500+i), sim.Size4k)
	}
	aud := check.New(check.Config{Limit: 2})
	aud.Audit(m)
	if got := len(aud.Violations()); got != 2 {
		t.Errorf("recorded %d violations, limit is 2", got)
	}
	err := aud.Err()
	if err == nil {
		t.Fatal("Err() = nil with violations recorded")
	}
	if !strings.Contains(err.Error(), "more") {
		t.Errorf("summary does not mention dropped violations: %v", err)
	}
}

func TestAuditorNotePeriod(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 1, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 64,
	}, nil)
	touch(t, m, 1, 5)
	aud := check.New(check.Config{Every: 4})
	for i := 0; i < 7; i++ {
		aud.Note(m)
	}
	if aud.Audits() != 1 {
		t.Errorf("audits = %d after 7 notes with period 4, want 1", aud.Audits())
	}
	aud.Note(m)
	if aud.Audits() != 2 {
		t.Errorf("audits = %d after 8 notes, want 2", aud.Audits())
	}
	if err := aud.Err(); err != nil {
		t.Errorf("clean periodic audits reported: %v", err)
	}
}

func assertViolation(t *testing.T, aud *check.Auditor, module string) {
	t.Helper()
	if aud.Err() == nil {
		t.Fatalf("auditor missed the injected %s bug", module)
	}
	for _, v := range aud.Violations() {
		if v.Module == module {
			return
		}
	}
	t.Fatalf("no %q violation among: %v", module, aud.Violations())
}
