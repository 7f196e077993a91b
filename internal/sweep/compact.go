package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cmcp/internal/stats"
)

// compact deduplicates a journal's entries — keeping the LAST entry
// recorded for each content key, the same precedence the lenient
// loader applies — and returns them sorted by key. Runs are
// deterministic, so duplicates (re-runs after a resume, merged shards)
// agree in content; sorting makes the compacted form canonical: two
// journals that witnessed the same set of completed runs compact to
// byte-identical output no matter what order, or how many times, each
// run was recorded.
func compact(entries []Entry) []Entry {
	last := make(map[string]Entry, len(entries))
	for _, e := range entries {
		last[e.Key] = e
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		out = append(out, last[k])
	}
	return out
}

// CompactStats reports what a journal compaction did.
type CompactStats struct {
	// Kept is the number of unique content keys written out.
	Kept int
	// Dropped is the number of duplicate entries removed.
	Dropped int
	// Skipped is the number of malformed lines the lenient reader
	// discarded (e.g. the torn tail of a crashed sweep).
	Skipped int
}

// CompactJournal rewrites the JSONL journal at path keeping only the
// last entry per content key, sorted by key (see Compact). The rewrite
// is atomic — written to a temp file, fsynced, renamed over the
// destination — so a crash mid-compaction leaves the original journal
// intact. out selects a different destination ("" compacts in place);
// the source is never modified when out is set. A compacted journal
// replays bit-identically: the loader keys entries by content key, so
// dropping shadowed duplicates cannot change any merge.
func CompactJournal(path, out string) (CompactStats, error) {
	entries, skipped, err := readJournalFile(path)
	if err != nil {
		return CompactStats{}, err
	}
	if _, err := os.Stat(path); err != nil {
		// readJournalFile treats a missing file as empty; compacting
		// nothing into existence would be surprising, so say so.
		return CompactStats{}, fmt.Errorf("sweep: compact %s: %w", path, err)
	}
	compacted := compact(entries)
	st := CompactStats{Kept: len(compacted), Dropped: len(entries) - len(compacted), Skipped: skipped}
	if out == "" {
		out = path
	}
	data, err := encodeJournal(compacted)
	if err != nil {
		return CompactStats{}, err
	}
	if err := writeFileAtomic(out, data); err != nil {
		return CompactStats{}, fmt.Errorf("sweep: compact %s: %w", path, err)
	}
	return st, nil
}

// encodeJournal renders a complete JSONL journal (header + entries).
func encodeJournal(entries []Entry) ([]byte, error) {
	var buf []byte
	hdr, err := json.Marshal(header{Schema: Schema, Counters: stats.CounterNames(), Hists: stats.HistNames()})
	if err != nil {
		return nil, err
	}
	buf = append(buf, hdr...)
	buf = append(buf, '\n')
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return buf, nil
}

// tmpPrefix marks an in-flight writeFileAtomic temp file.
const tmpPrefix = ".tmp-"

// writeFileAtomic installs data at path via temp file + fsync + rename
// + directory fsync: after it returns, the file is durable; if the
// process dies first, the old state (or absence) survives untouched.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, tmpPrefix+filepath.Base(path))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// fsync the directory so the rename itself survives a crash.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
