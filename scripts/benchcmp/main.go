// Command benchcmp compares two BENCH_<date>.json snapshots produced by
// scripts/bench.sh and fails (exit 1) when any benchmark matching the
// filter regressed in ns/op beyond the threshold. It is the regression
// gate behind `scripts/bench.sh --check`: the E1–E15 experiment suite is
// the paper's price/performance surface, so a >20% slowdown in any of
// them should stop a PR, while new or removed benchmarks are reported but
// never fail the check.
//
// Sub-benchmarks that exist as deliberately-degraded baseline foils
// (E13's "/sweep" replays a graph with no merged reverse index) are
// excluded from the gate by the -exclude regexp: their cost model is
// allowed to get worse when the serving path sheds a structure the foil
// was defined against, and gating them would punish exactly that trade.
// Excluded names are still reported.
//
// E16 (durability cost), E18 (subscription fan-out), E19 (rule
// derivation), and E20 (open-loop overload) are report-only for now (E17,
// the parallel executor's scaling curve, left with the executor): the
// default -filter stops at E15, so their numbers land in every snapshot
// and show up in --check output without failing it. Every E18 number
// includes a real coalescing-window wait, and E20 wraps a wall-clock
// capacity probe plus a saturated open-loop run, so wall-clock jitter
// swamps the threshold; gate them only once snapshots come from fixed
// hardware (the JSON records gomaxprocs/numcpu per row).
//
// Allocation regressions are reported but never fail the gate: any
// compared benchmark whose allocs/op grew beyond the threshold gets an
// "allocs" line, so writer-side alloc creep is visible in --check output
// without making the gate flaky on allocation-count noise.
//
// ns/op is gated only between rows taken on the same kind of machine: a
// benchmark whose two rows differ in numcpu or gomaxprocs is printed as
// "otherbox" and never fails the gate (its allocs/op is still compared).
// When no gated benchmark was run on the same machine, the gate says so
// and passes instead of judging one machine's speed by another's.
//
// Usage:
//
//	go run ./scripts/benchcmp [-threshold 1.20] [-filter regex] [-exclude regex] old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

// entry mirrors one element of the bench.sh JSON array.
type entry struct {
	Date       string             `json:"date"`
	Name       string             `json:"name"`
	Iters      int64              `json:"iters"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op"`
	AllocsOp   float64            `json:"allocs_per_op"`
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"numcpu"`
	Metrics    map[string]float64 `json:"metrics"`
}

// load indexes a snapshot by benchmark name. A name appearing more than
// once (bench.sh with BENCH_COUNT > 1) keeps its fastest run: the
// minimum is the standard noise-damping statistic for same-machine
// comparisons — a benchmark can run slower than its best for a hundred
// environmental reasons but faster for none.
func load(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []entry
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]entry, len(list))
	for _, e := range list {
		if prev, ok := out[e.Name]; ok && prev.NsPerOp <= e.NsPerOp {
			continue
		}
		out[e.Name] = e
	}
	return out, nil
}

// gate is what decides whether a compared benchmark regressed.
type gate struct {
	threshold       float64
	filter, exclude *regexp.Regexp
}

// compare writes one line per benchmark of cur (plus GONE lines for the
// names only old has) and returns the gated ns/op regressions, how many
// gated names were compared on the same machine, and how many gated names
// were left ungated because their two rows come from different machines.
func compare(w io.Writer, old, cur map[string]entry, g gate) (regressions []string, gated, otherBox int) {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := cur[name]
		o, ok := old[name]
		if !ok {
			fmt.Fprintf(w, "NEW      %-55s %12.0f ns/op\n", name, n.NsPerOp)
			continue
		}
		if o.NsPerOp <= 0 {
			continue
		}
		ratio := n.NsPerOp / o.NsPerOp
		inGate := g.filter.MatchString(name) && !g.exclude.MatchString(name)
		sameBox := o.NumCPU == n.NumCPU && o.GoMaxProcs == n.GoMaxProcs
		status := "ok"
		switch {
		case !sameBox:
			status = "otherbox"
		case inGate && ratio > g.threshold:
			status = "REGRESS"
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx)", name, o.NsPerOp, n.NsPerOp, ratio))
		case ratio > g.threshold:
			status = "slower" // informational: outside the gated set
		case ratio < 1/g.threshold:
			status = "faster"
		}
		switch {
		case inGate && sameBox:
			gated++
		case inGate:
			otherBox++
		}
		fmt.Fprintf(w, "%-8s %-55s %12.0f -> %10.0f ns/op  %5.2fx", status, name, o.NsPerOp, n.NsPerOp, ratio)
		if !sameBox {
			fmt.Fprintf(w, "  (not gated: numcpu %d -> %d, gomaxprocs %d -> %d)", o.NumCPU, n.NumCPU, o.GoMaxProcs, n.GoMaxProcs)
		}
		fmt.Fprintln(w)
		// Allocation creep is report-only: flag any compared benchmark
		// whose allocs/op grew past the threshold, gated or not.
		if o.AllocsOp > 0 && n.AllocsOp/o.AllocsOp > g.threshold {
			fmt.Fprintf(w, "allocs   %-55s %12.0f -> %10.0f allocs/op  %5.2fx (report-only)\n",
				name, o.AllocsOp, n.AllocsOp, n.AllocsOp/o.AllocsOp)
		}
	}
	var gone []string
	for name := range old {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "GONE     %-55s\n", name)
	}
	return regressions, gated, otherBox
}

func main() {
	threshold := flag.Float64("threshold", 1.20, "fail when new/old ns/op exceeds this ratio")
	filter := flag.String("filter", `^BenchmarkE([1-9]|1[0-5])([^0-9]|$)`, "regexp of benchmark names the gate applies to")
	exclude := flag.String("exclude", `/sweep$`, "regexp of benchmark names excluded from the gate (baseline foils); still reported")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold r] [-filter re] [-exclude re] old.json new.json")
		os.Exit(2)
	}
	re, err := regexp.Compile(*filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	exRe, err := regexp.Compile(*exclude)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	regressions, gated, otherBox := compare(os.Stdout, old, cur, gate{threshold: *threshold, filter: re, exclude: exRe})
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchcmp: %d gated regression(s) beyond %.2fx:\n", len(regressions), *threshold)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
	if gated == 0 && otherBox > 0 {
		fmt.Printf("\nbenchcmp: ns/op not gated: the %d benchmarks matching %q were run on different machines (numcpu/gomaxprocs differ); allocs/op is reported above\n", otherBox, *filter)
		return
	}
	if gated == 0 {
		// A gate that compared nothing proves nothing — most likely the
		// two snapshots' names do not line up (or the filter is wrong).
		fmt.Fprintf(os.Stderr, "\nbenchcmp: no benchmark matching %q was present in BOTH snapshots; the gate is vacuous\n", *filter)
		os.Exit(1)
	}
	fmt.Printf("\nbenchcmp: no gated regressions beyond %.2fx (%d gated, %d on another machine and not gated)\n", *threshold, gated, otherBox)
}
