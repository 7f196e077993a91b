package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"cmcp/internal/obs"
	"cmcp/internal/sim"
)

// These tests pin the experiment harness's sweep-runner integration:
// the CLI's options actually reach the generated configs, and a
// journaled experiment resumes without re-executing anything.

func TestOptionsReachGeneratedConfigs(t *testing.T) {
	// Options.Topology must land in every config the harness generates,
	// shaped to the grid point's core count, not be silently dropped.
	o := quickOpts()
	o.Topology = sim.DefaultTopology(2, 1)
	for _, spec := range o.apps() {
		for _, cores := range []int{4, 7} {
			cfg := o.baseConfig(spec, cores)
			if cfg.Topology == nil || cfg.Topology.Sockets != 2 || cfg.Topology.CoresPerSocket != (cores+1)/2 {
				t.Fatalf("%s on %d cores: baseConfig topology %+v, want 2 sockets of %d cores",
					spec.Name, cores, cfg.Topology, (cores+1)/2)
			}
		}
	}
}

func TestExperimentJournalResume(t *testing.T) {
	o := quickOpts()
	ref, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}

	jo := quickOpts()
	jo.Journal = filepath.Join(t.TempDir(), "fig8.jsonl")
	jo.Progress = obs.NewProgress()
	first, err := Fig8(jo)
	if err != nil {
		t.Fatal(err)
	}
	s := jo.Progress.Snapshot()
	if s.Executed == 0 || s.Loaded != 0 || s.Missing != 0 {
		t.Fatalf("first journaled run: %+v", s)
	}
	if !reflect.DeepEqual(first.Tables, ref.Tables) {
		t.Fatal("journaled run differs from plain run")
	}

	// Second run with the same journal: everything loads, nothing runs.
	jo.Progress = obs.NewProgress()
	second, err := Fig8(jo)
	if err != nil {
		t.Fatal(err)
	}
	s = jo.Progress.Snapshot()
	if s.Executed != 0 {
		t.Fatalf("resumed run re-executed %d runs", s.Executed)
	}
	if s.Loaded != s.Total {
		t.Fatalf("resumed run loaded %d of %d", s.Loaded, s.Total)
	}
	if !reflect.DeepEqual(second.Tables, ref.Tables) {
		t.Fatal("resumed run differs from plain run")
	}
}
