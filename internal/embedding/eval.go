package embedding

import (
	"sort"
)

// EvalResult holds link-prediction quality metrics.
type EvalResult struct {
	MRR    float64
	Hits1  float64
	Hits3  float64
	Hits10 float64
	N      int
}

// Evaluate computes filtered link-prediction metrics over the test
// triples: for each (h, r, t) the true tail is ranked against every
// entity as candidate tail, skipping candidates that form other known
// true triples (the standard "filtered" protocol). maxCandidates 0 means
// all entities.
func Evaluate(m Model, d *Dataset, test [][3]int32) EvalResult {
	var res EvalResult
	if len(test) == 0 {
		return res
	}
	nEnt := int32(d.NumEntities())
	var ranks []int
	for _, tr := range test {
		h, r, t := tr[0], tr[1], tr[2]
		trueScore := m.Score(h, r, t)
		rank := 1
		for c := int32(0); c < nEnt; c++ {
			if c == t {
				continue
			}
			// Filtered protocol: other true tails don't count against us.
			if d.Known(h, r, c) {
				continue
			}
			if m.Score(h, r, c) > trueScore {
				rank++
			}
		}
		ranks = append(ranks, rank)
	}
	res.N = len(ranks)
	for _, rk := range ranks {
		res.MRR += 1 / float64(rk)
		if rk <= 1 {
			res.Hits1++
		}
		if rk <= 3 {
			res.Hits3++
		}
		if rk <= 10 {
			res.Hits10++
		}
	}
	n := float64(len(ranks))
	res.MRR /= n
	res.Hits1 /= n
	res.Hits3 /= n
	res.Hits10 /= n
	return res
}

// ScoredTail pairs a candidate tail entity index with its model score.
type ScoredTail struct {
	Tail  int32
	Score float64
}

// CalibrateThreshold picks the score threshold that maximizes accuracy on
// labelled positive and negative triples (simple sweep over midpoints).
func CalibrateThreshold(m Model, pos, neg [][3]int32) float64 {
	var scores []float64
	var labels []bool
	for _, tr := range pos {
		scores = append(scores, m.Score(tr[0], tr[1], tr[2]))
		labels = append(labels, true)
	}
	for _, tr := range neg {
		scores = append(scores, m.Score(tr[0], tr[1], tr[2]))
		labels = append(labels, false)
	}
	if len(scores) == 0 {
		return 0
	}
	type sl struct {
		s float64
		l bool
	}
	all := make([]sl, len(scores))
	for i := range scores {
		all[i] = sl{scores[i], labels[i]}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	// Count of positives below/at each cut vs negatives above.
	totalPos := len(pos)
	bestAcc := -1.0
	bestThr := all[0].s
	negBelow := 0
	posBelow := 0
	// Threshold before the first element: everything classified positive.
	if acc := float64(totalPos) / float64(len(all)); acc > bestAcc {
		bestAcc = acc
		bestThr = all[0].s - 1e-9
	}
	for i := 0; i < len(all); i++ {
		if all[i].l {
			posBelow++
		} else {
			negBelow++
		}
		// Threshold just above all[i].s: below => negative prediction.
		correct := negBelow + (totalPos - posBelow)
		if acc := float64(correct) / float64(len(all)); acc > bestAcc {
			bestAcc = acc
			bestThr = all[i].s + 1e-9
		}
	}
	return bestThr
}
