package pspt

import (
	"testing"

	"cmcp/internal/pagetable"
	"cmcp/internal/sim"
)

func TestSocketSet(t *testing.T) {
	var s SocketSet
	if s.Count() != 0 || s.Has(0) {
		t.Fatal("zero set not empty")
	}
	s.Add(0)
	s.Add(3)
	s.Add(3)
	if s.Count() != 2 || !s.Has(0) || !s.Has(3) || s.Has(1) {
		t.Fatalf("set after adds: %b", s)
	}
}

// TestReplicasTrackSockets pins the replica bookkeeping: the first
// mapper homes the page-table page on its socket, later mappers from
// other sockets add replicas, and the home stays put.
func TestReplicasTrackSockets(t *testing.T) {
	// cores 0-3 socket 0, 4-7 socket 1
	p := NewSized(8, sim.Size4k, 0, sim.DefaultTopology(2, 4), nil)

	first, err := p.Map(5, 0, 7, pagetable.Writable)
	if err != nil || !first {
		t.Fatalf("Map: %v first=%v", err, first)
	}
	if m := p.NUMA(0); m.Home != 1 || !m.Replicas.Has(1) || m.Replicas.Has(0) {
		t.Fatalf("first mapper on socket 1: home=%d replicas=%b", m.Home, m.Replicas)
	}
	if _, err := p.Map(2, 0, 7, pagetable.Writable); err != nil {
		t.Fatalf("second Map: %v", err)
	}
	if m := p.NUMA(0); !m.Replicas.Has(0) || !m.Replicas.Has(1) || m.Home != 1 {
		t.Fatalf("after socket-0 mapper: home=%d replicas=%b", m.Home, m.Replicas)
	}

	if cm, ok, err := p.CopyFromSibling(3, 0, pagetable.Writable); err != nil || !ok || cm.Base != 0 {
		t.Fatalf("CopyFromSibling: %+v %v %v", cm, ok, err)
	}
	if m := p.NUMA(0); m.Replicas.Count() != 2 || m.Home != 1 {
		t.Fatalf("after sibling copy: home=%d replicas=%b", m.Home, m.Replicas)
	}
}

// TestNoteConsultMigration pins the numaPTE migration protocol: a
// remote consult is reported only while the consulting socket lacks a
// replica, and a streak of consults from one remote socket past the
// threshold re-homes the page-table page there.
func TestNoteConsultMigration(t *testing.T) {
	p := NewSized(8, sim.Size4k, 0, sim.DefaultTopology(2, 4), nil)
	if _, err := p.Map(0, 0, 7, pagetable.Writable); err != nil {
		t.Fatal(err)
	}

	// Not resident: no-op.
	if r, mig := p.NoteConsult(999, 1, 3); r || mig {
		t.Fatal("consult on missing page reported work")
	}
	// First consult from socket 1: remote (no replica yet), streak 1.
	if r, mig := p.NoteConsult(0, 1, 3); !r || mig {
		t.Fatalf("first remote consult: remote=%v migrated=%v", r, mig)
	}
	if !p.NUMA(0).Replicas.Has(1) {
		t.Fatal("consult did not materialize a replica")
	}
	// Second consult: replica exists, not remote; streak 2.
	if r, mig := p.NoteConsult(0, 1, 3); r || mig {
		t.Fatalf("second consult: remote=%v migrated=%v", r, mig)
	}
	// Third consult trips the threshold: migrate, re-home to socket 1.
	if r, mig := p.NoteConsult(0, 1, 3); r || !mig {
		t.Fatalf("third consult: remote=%v migrated=%v", r, mig)
	}
	if m := p.NUMA(0); m.Home != 1 || m.RemoteStreak != 0 {
		t.Fatalf("after migration: home=%d streak=%d", m.Home, m.RemoteStreak)
	}
	// Consult from the new home resets nothing further; no migration.
	if r, mig := p.NoteConsult(0, 1, 3); r || mig {
		t.Fatal("home-socket consult reported work")
	}
	// A home-socket consult resets a foreign streak.
	p.NoteConsult(0, 0, 3)
	p.NoteConsult(0, 0, 3)
	if m := p.NUMA(0); m.RemoteStreak != 2 {
		t.Fatalf("streak from socket 0: %d", m.RemoteStreak)
	}
	p.NoteConsult(0, 1, 3)
	if m := p.NUMA(0); m.RemoteStreak != 0 {
		t.Fatalf("home consult did not reset streak: %d", m.RemoteStreak)
	}
	// Threshold <= 0 disables migration entirely.
	for i := 0; i < 10; i++ {
		if _, mig := p.NoteConsult(0, 0, 0); mig {
			t.Fatal("migration fired with threshold 0")
		}
	}
	if m := p.NUMA(0); m.Home != 1 {
		t.Fatalf("home moved with threshold 0: %d", m.Home)
	}
}

// TestFlatRunsWriteNoReplicaState pins bit-identity on flat runs: with
// no topology (or a single socket) the replica fields never change.
func TestFlatRunsWriteNoReplicaState(t *testing.T) {
	for _, topo := range []*sim.Topology{nil, sim.DefaultTopology(1, 8)} {
		p := NewSized(8, sim.Size4k, 0, topo, nil)
		if _, err := p.Map(3, 0, 7, pagetable.Writable); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.CopyFromSibling(5, 0, pagetable.Writable); err != nil {
			t.Fatal(err)
		}
		if r, mig := p.NoteConsult(0, 1, 1); r || mig {
			t.Fatalf("topo=%v: a consult reported remote=%v migrated=%v", topo, r, mig)
		}
		if m := p.NUMA(0); m != (NUMAState{}) || p.numa != nil {
			t.Fatalf("topo=%v wrote replica state: %+v", topo, m)
		}
	}
}

// TestResyncCoresRecomputesReplicas: the skew-recovery path must leave
// Replicas a superset of the mapping cores' sockets.
func TestResyncCoresRecomputesReplicas(t *testing.T) {
	p := NewSized(8, sim.Size4k, 0, sim.DefaultTopology(2, 4), nil)
	if _, err := p.Map(1, 0, 7, pagetable.Writable); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(6, 0, 7, pagetable.Writable); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.InjectPhantomCoreBit(0); !ok {
		t.Fatal("inject failed")
	}
	if !p.ResyncCores(0) {
		t.Fatal("resync found nothing to fix")
	}
	if m := p.NUMA(0); !m.Replicas.Has(0) || !m.Replicas.Has(1) || m.Replicas.Count() != 2 {
		t.Fatalf("replicas after resync: %b", m.Replicas)
	}
}
