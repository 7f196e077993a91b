package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"cmcp/internal/obs"
)

// TestExperimentJournalResume pins the experiment harness's
// sweep-runner integration: a journaled experiment resumes without
// re-executing anything.
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
	if s.Executed == 0 || s.Loaded != 0 {
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
