package main

import (
	"regexp"
	"strings"
	"testing"
)

func testGate() gate {
	return gate{
		threshold: 1.20,
		filter:    regexp.MustCompile(`^BenchmarkE([1-9]|1[0-5])([^0-9]|$)`),
		exclude:   regexp.MustCompile(`/sweep$`),
	}
}

func snapshot(numcpu, gomaxprocs int, rows ...entry) map[string]entry {
	out := make(map[string]entry, len(rows))
	for _, r := range rows {
		r.NumCPU, r.GoMaxProcs = numcpu, gomaxprocs
		out[r.Name] = r
	}
	return out
}

// A 1.5x slowdown of a gated experiment fails the gate when both
// snapshots come from the same kind of machine.
func TestSameMachineRegressionIsGated(t *testing.T) {
	old := snapshot(2, 2, entry{Name: "BenchmarkE1FactRanking", NsPerOp: 1000, AllocsOp: 5})
	cur := snapshot(2, 2, entry{Name: "BenchmarkE1FactRanking", NsPerOp: 1500, AllocsOp: 5})
	var out strings.Builder
	regs, gated, otherBox := compare(&out, old, cur, testGate())
	if len(regs) != 1 || gated != 1 || otherBox != 0 {
		t.Fatalf("regressions %v, gated %d, otherbox %d; want one regression, 1 gated\n%s", regs, gated, otherBox, out.String())
	}
	if !strings.HasPrefix(out.String(), "REGRESS") {
		t.Fatalf("output does not flag the regression:\n%s", out.String())
	}
}

// The same slowdown between a 1-core and a 2-core snapshot is reported
// but not gated, and allocs/op growth is still reported.
func TestOtherMachineNsIsReportedNotGated(t *testing.T) {
	for _, box := range [][2]int{{1, 2}, {2, 1}, {2, 0}} {
		old := snapshot(box[0], box[1],
			entry{Name: "BenchmarkE1FactRanking", NsPerOp: 1000, AllocsOp: 5},
			entry{Name: "BenchmarkGraphAssert", NsPerOp: 100, AllocsOp: 0},
		)
		cur := snapshot(2, 2,
			entry{Name: "BenchmarkE1FactRanking", NsPerOp: 1500, AllocsOp: 9},
			entry{Name: "BenchmarkGraphAssert", NsPerOp: 100, AllocsOp: 0},
		)
		var out strings.Builder
		regs, gated, otherBox := compare(&out, old, cur, testGate())
		if len(regs) != 0 || gated != 0 || otherBox != 1 {
			t.Fatalf("old box %v: regressions %v, gated %d, otherbox %d; want none gated, 1 on another machine\n%s", box, regs, gated, otherBox, out.String())
		}
		text := out.String()
		for _, want := range []string{"otherbox", "1500 ns/op", "not gated", "allocs   BenchmarkE1FactRanking"} {
			if !strings.Contains(text, want) {
				t.Fatalf("old box %v: output lacks %q:\n%s", box, want, text)
			}
		}
	}
}
