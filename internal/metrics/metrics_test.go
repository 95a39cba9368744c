package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMRR(t *testing.T) {
	if got := MRR([]int{1, 2, 4}); !almost(got, (1+0.5+0.25)/3) {
		t.Fatalf("MRR = %v", got)
	}
	if got := MRR([]int{0, 0}); got != 0 {
		t.Fatalf("MRR of misses = %v", got)
	}
	if got := MRR(nil); got != 0 {
		t.Fatalf("MRR(nil) = %v", got)
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Add(true, true)
	c.Add(true, false)
	c.Add(false, false)
	c.Add(false, true)
	if !almost(c.Precision(), 0.5) || !almost(c.Recall(), 0.5) || !almost(c.F1(), 0.5) {
		t.Fatalf("confusion = %+v p=%v r=%v f1=%v", c, c.Precision(), c.Recall(), c.F1())
	}
	var empty Confusion
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Fatal("empty confusion must be all zeros")
	}
}

func TestAUC(t *testing.T) {
	if got := AUC([]float64{0.9, 0.8}, []float64{0.1, 0.2}); !almost(got, 1) {
		t.Fatalf("separable AUC = %v", got)
	}
	if got := AUC([]float64{0.1}, []float64{0.9}); !almost(got, 0) {
		t.Fatalf("inverted AUC = %v", got)
	}
	if got := AUC([]float64{0.5}, []float64{0.5}); !almost(got, 0.5) {
		t.Fatalf("tied AUC = %v", got)
	}
	if got := AUC(nil, []float64{1}); got != 0 {
		t.Fatalf("empty AUC = %v", got)
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if !almost(Mean(xs), 2.5) {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if got := Percentile(xs, 50); got != 2 {
		t.Fatalf("P50 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if Percentile(nil, 50) != 0 || Mean(nil) != 0 {
		t.Fatal("empty-input stats must be 0")
	}
}

// Property: AUC is invariant under any order-preserving transformation of
// scores, and always within [0,1].
func TestAUCProperties(t *testing.T) {
	f := func(pos, neg []float64) bool {
		if len(pos) == 0 || len(neg) == 0 {
			return true
		}
		for _, x := range append(append([]float64{}, pos...), neg...) {
			// Skip values where 3*x+1 would overflow or lose ordering.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		a := AUC(pos, neg)
		if a < 0 || a > 1 {
			return false
		}
		mono := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = 3*x + 1 // strictly increasing
			}
			return out
		}
		return almost(a, AUC(mono(pos), mono(neg)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MRR never exceeds the fraction of queries that retrieved
// their item, and moving any hit up to rank 1 never lowers it.
func TestRankingProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		ranks := make([]int, 0, len(raw))
		found := 0
		for _, r := range raw {
			ranks = append(ranks, int(r%200))
			if r%200 > 0 {
				found++
			}
		}
		if len(ranks) == 0 {
			return true
		}
		mrr := MRR(ranks)
		if mrr < 0 || mrr > float64(found)/float64(len(ranks))+1e-9 {
			return false
		}
		for i, r := range ranks {
			if r > 1 {
				ranks[i] = 1
				if MRR(ranks) < mrr {
					return false
				}
				ranks[i] = r
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
