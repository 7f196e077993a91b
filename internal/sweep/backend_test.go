package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cmcp/internal/machine"
)

// runBackend sweeps the standard grid against a Backend and returns
// the outcome.
func runBackend(t *testing.T, b Backend) *Outcome {
	t.Helper()
	out, err := Run(grid(), Options{Backend: b, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackendResume pins the Backend contract every implementation
// must honor: a sweep journaled through the backend resumes from it —
// second pass loads everything, executes nothing, and merges
// bit-identically to an uninterrupted local sweep.
func TestBackendResume(t *testing.T) {
	ref, err := Run(grid(), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	backends := map[string]Backend{
		"file": NewFileBackend(filepath.Join(dir, "file.jsonl")),
		"mem":  NewMemBackend(),
	}
	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			first := runBackend(t, b)
			if first.Executed != len(grid()) {
				t.Fatalf("first pass executed %d, want %d", first.Executed, len(grid()))
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			// Close must not retire the backend: Load and Append still work.
			again := runBackend(t, b)
			if again.Executed != 0 || again.Loaded != len(grid()) {
				t.Fatalf("resume executed %d, loaded %d, want 0 and %d", again.Executed, again.Loaded, len(grid()))
			}
			if !reflect.DeepEqual(again.Results, ref.Results) {
				t.Fatal("backend resume differs from uninterrupted sweep")
			}
		})
	}
}

// TestFileBackendMatchesJournalOption pins that Options.Backend with a
// FileBackend writes the same journal Options.Journal would — the two
// spellings are one substrate.
func TestFileBackendMatchesJournalOption(t *testing.T) {
	dir := t.TempDir()
	viaOpt := filepath.Join(dir, "opt.jsonl")
	viaBk := filepath.Join(dir, "bk.jsonl")
	if _, err := Run(grid(), Options{Journal: viaOpt, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	b := NewFileBackend(viaBk)
	if _, err := Run(grid(), Options{Backend: b, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	// Completion order can differ run to run, so compare the canonical
	// compacted forms, not the raw files.
	for _, p := range []string{viaOpt, viaBk} {
		if _, err := CompactJournal(p, ""); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(viaOpt)
	if err != nil {
		t.Fatal(err)
	}
	bdata, err := os.ReadFile(viaBk)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(bdata) {
		t.Fatal("FileBackend journal differs from Options.Journal journal after compaction")
	}
}

// TestMemBackendLenientLoad pins that the in-memory backend applies
// the same per-entry validation the file readers do.
func TestMemBackendLenientLoad(t *testing.T) {
	b := NewMemBackend()
	cfg := testCfg(1)
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(EntryOf(key, cfg, res)); err != nil {
		t.Fatal(err)
	}
	b.lines = append(b.lines, []byte(`{"key":"torn`)) // simulated corruption
	entries, skipped, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || skipped != 1 {
		t.Fatalf("Load = %d entries, %d skipped; want 1 and 1", len(entries), skipped)
	}
	if entries[0].Key != key {
		t.Fatalf("loaded key %q, want %q", entries[0].Key, key)
	}
}
