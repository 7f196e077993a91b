// Command perfbench is the cmcp simulator's benchmark. It runs one named
// workload against the public cmcp.Simulate API as a closed loop with one
// client (one goroutine, serial engine, each call issued after the
// previous one returns), checks every call against a pinned result
// fingerprint, and prints its metrics as one JSON line.
//
//	go run . -workload hits-cmcp-scale -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes
// a separate traced run that times the calls it makes into each layer
// and reports the per-layer metrics, writing the spans it recorded to
// -out/<workload>.spans.json and, for Perfetto, -out/<workload>.trace.json.
// Before the result line it prints a record line carrying the workload,
// the host fingerprint and the same result, which compare mode reads:
//
//	go run . compare base.jsonl change.jsonl
//
// `go run . -pin fingerprints.json` re-pins the default-seed fingerprints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cmcp"
)

// processStart is taken during package initialisation, before main: the
// first set-up round is measured from it.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// record is the self-describing line printed before the result line.
type record struct {
	Schema   string   `json:"schema"`
	Workload string   `json:"workload"`
	Trace    int      `json:"trace"`
	Host     hostInfo `json:"host"`
	Result   result   `json:"result"`
}

const recordSchema = "cmcp-perfbench/v1"

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	commit := fs.String("commit", "unknown", "commit of the code under test, for the host fingerprint")
	out := fs.String("out", filepath.Join(".bench_build", "spans"), "directory for traced spans")
	pin := fs.String("pin", "", "write every workload's default-seed fingerprints to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...) }
	if *pin != "" {
		if err := writePins(*pin); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	wl, err := workloadByName(*name)
	if err != nil || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		logf("usage: -workload NAME -seed N -seconds S -trace 0|1 (%v)", err)
		return 2
	}

	r := &runner{wl: wl, seed: *seed, log: logf}
	budget := time.Duration(*seconds * float64(time.Second))
	host := hostFingerprint(*commit, *seed)
	var res result
	if *traceMode == 0 {
		m, err := r.measure(budget, processStart)
		if err != nil {
			logf("%v", err)
			return 1
		}
		res.Metrics = m.emit(endToEnd)
	} else {
		m, spans, err := r.traced(budget)
		if err != nil {
			logf("%v", err)
			return 1
		}
		res.Metrics = m.emit(perLayer)
		if err := writeSpans(*out, wl.name, host, spans); err != nil {
			logf("writing spans: %v", err)
			return 1
		}
	}
	res.Attempted, res.Failed = r.chk.attempted, r.chk.failed
	res.Correct = res.Failed == 0
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(record{recordSchema, wl.name, *traceMode, host, res}); err != nil {
		logf("%v", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// writePins simulates every workload config once at the default seed
// and writes the fingerprint table fingerprints.json embeds.
func writePins(path string) error {
	t := pinTable{Seed: defaultSeed, Configs: map[string]Fingerprint{}}
	for _, wl := range workloads {
		for _, bc := range wl.configs(defaultSeed) {
			res, err := cmcp.Simulate(bc.cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", bc.key(wl.name), err)
			}
			t.Configs[bc.key(wl.name)] = fingerprintOf(res)
		}
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
