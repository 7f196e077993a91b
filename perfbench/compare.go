package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// compareMain implements `perfbench compare A B`: A and B hold the
// captured output of benchmark runs of two commits (any other lines are
// skipped). For every workload and metric it prints each side's first
// quartile, median and third quartile, and how many runs of B beat the
// run of A with the same workload, trace mode and seed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE CHANGE")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		sides[i] = recs
	}
	compare(stdout, args[0], args[1], sides[0], sides[1])
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Schema == recordSchema {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no %s records", path, recordSchema)
	}
	return out, nil
}

// group is one workload in one trace mode.
type group struct {
	workload string
	trace    int
}

func compare(w io.Writer, nameA, nameB string, a, b []record) {
	for _, side := range []struct {
		name string
		recs []record
	}{{nameA, a}, {nameB, b}} {
		h := side.recs[0].Host
		fmt.Fprintf(w, "%s: commit %s, %s, nproc %d, GOMAXPROCS %d, %s\n",
			side.name, h.Commit, h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
	}
	byGroup := func(recs []record) map[group][]record {
		m := map[group][]record{}
		for _, r := range recs {
			g := group{r.Workload, r.Trace}
			m[g] = append(m[g], r)
		}
		return m
	}
	ga, gb := byGroup(a), byGroup(b)
	var groups []group
	for g := range ga {
		if _, ok := gb[g]; ok {
			groups = append(groups, g)
		}
	}
	slices.SortFunc(groups, func(x, y group) int {
		if c := strings.Compare(x.workload, y.workload); c != 0 {
			return c
		}
		return x.trace - y.trace
	})
	for _, g := range groups {
		ra, rb := ga[g], gb[g]
		pairs := pairBySeed(ra, rb)
		fmt.Fprintf(w, "\n%s (trace %d): %d runs vs %d runs, %d pairs by seed\n", g.workload, g.trace, len(ra), len(rb), len(pairs))
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tbase q1\tbase median\tbase q3\tchange q1\tchange median\tchange q3\tchange/base\tchange won\t")
		for _, name := range metricNames(ra) {
			va, vb := values(ra, name), values(rb, name)
			if len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			ratio := "-"
			if a2 != 0 {
				ratio = fmt.Sprintf("%.4f", b2/a2)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%s\t%s\t\n",
				name, ra[0].Result.Metrics[name].Unit, a1, a2, a3, b1, b2, b3, ratio, wins(pairs, name))
		}
		tw.Flush()
	}
}

// pairBySeed matches the k-th run of a seed on one side with the k-th
// run of the same seed on the other, so both sides of a pair ran the
// same inputs.
func pairBySeed(a, b []record) [][2]record {
	type key struct {
		seed uint64
		k    int
	}
	index := func(recs []record) map[key]record {
		m, seen := map[key]record{}, map[uint64]int{}
		for _, r := range recs {
			s := r.Host.Seed
			m[key{s, seen[s]}] = r
			seen[s]++
		}
		return m
	}
	ib := index(b)
	var out [][2]record
	seen := map[uint64]int{}
	for _, r := range a {
		s := r.Host.Seed
		if other, ok := ib[key{s, seen[s]}]; ok {
			out = append(out, [2]record{r, other})
		}
		seen[s]++
	}
	return out
}

func metricNames(recs []record) []string {
	var names []string
	for name := range recs[0].Result.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// wins counts the pairs whose change side is better; ties count for
// neither side.
func wins(pairs [][2]record, name string) string {
	def, ok := defOf(name)
	if !ok {
		return "-"
	}
	won, n := 0, 0
	for _, p := range pairs {
		ma, oka := p[0].Result.Metrics[name]
		mb, okb := p[1].Result.Metrics[name]
		if !oka || !okb {
			continue
		}
		n++
		if (def.better == "higher" && mb.Value > ma.Value) || (def.better == "lower" && mb.Value < ma.Value) {
			won++
		}
	}
	return fmt.Sprintf("%d/%d", won, n)
}
