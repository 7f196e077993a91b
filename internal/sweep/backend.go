package sweep

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Backend is the journal persistence interface: where a sweep's
// completed runs durably live. The sweep runner (and the coordinator
// built on it) speaks only this interface, so the storage substrate —
// a single JSONL file or an in-memory store for tests — is swappable
// without touching recovery logic.
//
// The contract every implementation honors:
//
//   - Append is durable on return: a process killed the instant after
//     Append returns finds the entry on the next Load. That per-entry
//     durability is the checkpoint crash recovery rebuilds from.
//   - Append is safe for concurrent use (RunMany workers and the
//     coordinator's HTTP handlers journal from their own goroutines).
//   - Load tolerates a torn final write (a kill mid-Append): the torn
//     entry is skipped and counted, never fatal, and never corrupts
//     its neighbors.
//   - Load validates provenance: entries recorded under a different
//     schema or counter table are rejected outright, exactly like the
//     JSONL header check.
//   - A Backend survives Load/Append/Close cycles: Close flushes and
//     releases resources, after which Append may transparently reopen.
type Backend interface {
	// Load returns every readable journaled entry plus the count of
	// malformed (torn, truncated) entries it skipped.
	Load() ([]Entry, int, error)
	// Append durably records one completed run.
	Append(Entry) error
	// Close flushes and releases resources. The Backend remains usable;
	// a later Append reopens as needed.
	Close() error
}

// FileBackend journals to a single append-mode JSONL file — the
// default substrate (sweep.Options.Journal), durable per line.
type FileBackend struct {
	path string
	mu   sync.Mutex
	jw   *journalWriter
}

// NewFileBackend returns a backend journaling to the JSONL file at
// path. The file is created on first Append; a missing file loads as
// an empty journal.
func NewFileBackend(path string) *FileBackend { return &FileBackend{path: path} }

// Load reads the journal file leniently (see ReadJournalLenient).
func (b *FileBackend) Load() ([]Entry, int, error) { return readJournalFile(b.path) }

// Append writes one entry as a flushed JSONL line.
func (b *FileBackend) Append(e Entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.jw == nil {
		jw, err := openJournal(b.path)
		if err != nil {
			return fmt.Errorf("sweep: journal %s: %w", b.path, err)
		}
		b.jw = jw
	}
	if err := b.jw.append(e); err != nil {
		return fmt.Errorf("sweep: journal %s: %w", b.path, err)
	}
	return nil
}

// Close flushes and closes the underlying file (reopened on the next
// Append).
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.jw == nil {
		return nil
	}
	err := b.jw.close()
	b.jw = nil
	return err
}

// MemBackend journals to process memory — the test and library-embed
// substrate. Entries round-trip through the same JSON encoding as the
// file backend, so a MemBackend-run sweep exercises the identical
// serialization path (and the identical lenient-read semantics) as a
// crash-recovered file journal, just without the disk.
type MemBackend struct {
	mu    sync.Mutex
	lines [][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// Load decodes every stored entry, skipping (and counting) any line
// that does not decode — mirroring the lenient file reader.
func (b *MemBackend) Load() ([]Entry, int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var entries []Entry
	skipped := 0
	for _, line := range b.lines {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || e.Run == nil || e.Run.Cores != e.Cores {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	return entries, skipped, nil
}

// Append stores one entry (as its JSON encoding).
func (b *MemBackend) Append(e Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.lines = append(b.lines, data)
	b.mu.Unlock()
	return nil
}

// Close is a no-op; memory needs no flushing.
func (b *MemBackend) Close() error { return nil }
