package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"

	"cmcp"
	"cmcp/internal/stats"
)

// Fingerprint is the part of a Result every call of a config must
// reproduce exactly: runtime, device size, footprint, final residency
// and the machine-wide total of every counter.
type Fingerprint struct {
	Runtime    uint64            `json:"runtime"`
	Frames     int               `json:"frames"`
	TotalPages int               `json:"total_pages"`
	Resident   int               `json:"resident"`
	Counters   map[string]uint64 `json:"counters"`
}

func fingerprintOf(res *cmcp.Result) Fingerprint {
	fp := Fingerprint{
		Runtime:    uint64(res.Runtime),
		Frames:     res.Frames,
		TotalPages: res.TotalPages,
		Resident:   res.Resident,
		Counters:   make(map[string]uint64, stats.NumCounters),
	}
	for c := 0; c < stats.NumCounters; c++ {
		fp.Counters[stats.Counter(c).Name()] = total(res, stats.Counter(c))
	}
	return fp
}

// total sums counter c over every core, the scanner pseudo-core (which
// counts scan clears and the IPIs scans send) included.
func total(res *cmcp.Result, c stats.Counter) uint64 {
	return res.Run.Total(c) + res.Run.Get(cmcp.CoreID(res.Run.Cores), c)
}

// Equal reports whether two fingerprints match in every field.
func (f Fingerprint) Equal(o Fingerprint) bool {
	return f.Runtime == o.Runtime && f.Frames == o.Frames && f.TotalPages == o.TotalPages &&
		f.Resident == o.Resident && maps.Equal(f.Counters, o.Counters)
}

// pinFile is the fingerprint table of every workload config at the
// default seed; regenerate it with `go run . -pin` after a change that
// is meant to move simulated results.
//
//go:embed fingerprints.json
var pinFile []byte

// pinTable is the decoded form of pinFile.
type pinTable struct {
	Seed    uint64                 `json:"seed"`
	Configs map[string]Fingerprint `json:"configs"`
}

func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinFile, &t); err != nil {
		return t, fmt.Errorf("fingerprints.json: %w", err)
	}
	return t, nil
}

// checker validates every Simulate call of a run. At the pinned seed a
// call must equal its pinned fingerprint; at any other seed it must
// equal the first call of the same config in this process. Failures are
// counted, never fatal, so one bad call cannot abort a measurement.
type checker struct {
	pins      map[string]Fingerprint // nil unless the run uses the pinned seed
	first     map[string]Fingerprint
	attempted int
	failed    int
	log       func(format string, args ...any)
}

func newChecker(pins pinTable, seed uint64, log func(string, ...any)) *checker {
	c := &checker{first: map[string]Fingerprint{}, log: log}
	if seed == pins.Seed {
		c.pins = pins.Configs
	}
	return c
}

// check records one call of the config named key and reports whether it
// was correct: no error, a plausible shape, and the expected fingerprint.
func (c *checker) check(key string, bc benchConfig, pages int, res *cmcp.Result, err error) bool {
	c.attempted++
	if err == nil {
		err = c.verify(key, bc, pages, res)
	}
	if err != nil {
		c.failed++
		c.log("%s: %v", key, err)
		return false
	}
	return true
}

func (c *checker) verify(key string, bc benchConfig, pages int, res *cmcp.Result) error {
	fp := fingerprintOf(res)
	switch {
	case fp.TotalPages != pages:
		return fmt.Errorf("laid out %d pages, want %d", fp.TotalPages, pages)
	case fp.Frames != bc.frames(pages):
		return fmt.Errorf("%d device frames, want %d", fp.Frames, bc.frames(pages))
	case fp.Resident > fp.Frames:
		return fmt.Errorf("%d resident mappings exceed %d frames", fp.Resident, fp.Frames)
	case fp.Counters["touches"] == 0:
		return fmt.Errorf("no touches measured")
	}
	want, ok := c.pins[key]
	if c.pins != nil && !ok {
		return fmt.Errorf("no pinned fingerprint")
	}
	if !ok {
		if want, ok = c.first[key]; !ok {
			c.first[key] = fp
			return nil
		}
	}
	if !fp.Equal(want) {
		return fmt.Errorf("fingerprint mismatch: runtime %d, want %d", fp.Runtime, want.Runtime)
	}
	return nil
}
