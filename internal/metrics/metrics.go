// Package metrics implements the evaluation metrics the experiments
// print: mean reciprocal rank, a binary confusion matrix's
// precision/recall/F1, ROC AUC, and the mean and nearest-rank percentile
// of a sample.
package metrics

import (
	"math"
	"sort"
)

// MRR computes the mean reciprocal rank given the 1-based rank of the true
// item in each query. A rank of 0 means the item was not retrieved and
// contributes 0.
func MRR(ranks []int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	var sum float64
	for _, r := range ranks {
		if r > 0 {
			sum += 1.0 / float64(r)
		}
	}
	return sum / float64(len(ranks))
}

// Confusion is a binary-classification confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction against its gold label.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Precision returns TP / (TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// AUC computes the ROC area under the curve from scores of positive and
// negative examples using the rank-sum (Mann-Whitney U) formulation.
// Ties contribute 0.5.
func AUC(posScores, negScores []float64) float64 {
	if len(posScores) == 0 || len(negScores) == 0 {
		return 0
	}
	var wins float64
	for _, p := range posScores {
		for _, n := range negScores {
			switch {
			case p > n:
				wins += 1
			case p == n:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(posScores)*len(negScores))
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) using nearest-rank on a
// copy of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}
