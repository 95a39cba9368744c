package embedding

import (
	"fmt"
	"sort"
)

// Multi-hop reasoning in embedding space (§2's second model family:
// "reasoning-based embedding models are used for more complex tasks that
// involve multi-hop reasoning"). We implement the path-query primitive —
// answer ?t for h →r1→ x →r2→ ... →rk→ t without materializing the
// intermediate entities — by composing relation embeddings:
//
//   - TransE composes by vector addition:  q = h + r1 + ... + rk,
//     candidates ranked by -||q - t||².
//   - DistMult composes by element-wise product of relation vectors.
//   - ComplEx composes by complex element-wise (Hadamard) product.
//
// This is the classic path-query formulation (Guu et al. 2015) that
// box/query embeddings generalize; experiment E14 checks composition
// against graph-traversal ground truth.

// PathQuery is a multi-hop query: start entity plus a relation chain.
type PathQuery struct {
	Start     int32
	Relations []int32
}

// AnswerPathQuery scores every candidate tail for the path query and
// returns them sorted best-first. It returns an error for model kinds
// without a composition rule or for empty relation chains.
func AnswerPathQuery(m Model, q PathQuery, candidates []int32) ([]ScoredTail, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("embedding: path query needs at least one relation")
	}
	scorer, err := pathScorer(m, q)
	if err != nil {
		return nil, err
	}
	out := make([]ScoredTail, len(candidates))
	for i, c := range candidates {
		out[i] = ScoredTail{Tail: c, Score: scorer(c)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tail < out[j].Tail
	})
	return out, nil
}

// pathScorer builds the per-candidate scoring closure for the model kind.
func pathScorer(m Model, q PathQuery) (func(int32) float64, error) {
	switch mm := m.(type) {
	case *transEModel:
		// q = h + Σ r; score = -||q - t||².
		acc := append([]float32(nil), mm.entRow(q.Start)...)
		for _, r := range q.Relations {
			rv := mm.relRow(r)
			for i := range acc {
				acc[i] += rv[i]
			}
		}
		return func(t int32) float64 {
			tv := mm.entRow(t)
			var s float64
			for i := range acc {
				d := float64(acc[i] - tv[i])
				s += d * d
			}
			return -s
		}, nil
	case *distMultModel:
		// q = h ⊙ r1 ⊙ ... ⊙ rk; score = Σ q·t.
		acc := append([]float32(nil), mm.entRow(q.Start)...)
		for _, r := range q.Relations {
			rv := mm.relRow(r)
			for i := range acc {
				acc[i] *= rv[i]
			}
		}
		return func(t int32) float64 {
			tv := mm.entRow(t)
			var s float64
			for i := range acc {
				s += float64(acc[i]) * float64(tv[i])
			}
			return s
		}, nil
	case *complExModel:
		// Complex Hadamard product of (h, r1..rk), then Re(<q, conj(t)>).
		d := mm.half
		re := make([]float64, d)
		im := make([]float64, d)
		hv := mm.entRow(q.Start)
		for i := 0; i < d; i++ {
			re[i] = float64(hv[i])
			im[i] = float64(hv[d+i])
		}
		for _, r := range q.Relations {
			rv := mm.relRow(r)
			for i := 0; i < d; i++ {
				rr, ri := float64(rv[i]), float64(rv[d+i])
				nre := re[i]*rr - im[i]*ri
				nim := re[i]*ri + im[i]*rr
				re[i], im[i] = nre, nim
			}
		}
		return func(t int32) float64 {
			tv := mm.entRow(t)
			var s float64
			for i := 0; i < d; i++ {
				tr, ti := float64(tv[i]), float64(tv[d+i])
				// Re(q * conj(t)) = re*tr + im*ti.
				s += re[i]*tr + im[i]*ti
			}
			return s
		}, nil
	default:
		return nil, fmt.Errorf("embedding: path queries unsupported for model kind %q", m.Kind())
	}
}

// PathGroundTruth computes the exact answer set of a path query by
// traversal over the dataset's triples (the baseline E14 evaluates
// composition against). Returns the tails reachable from start via the
// relation chain.
func PathGroundTruth(d *Dataset, q PathQuery) map[int32]bool {
	frontier := map[int32]bool{q.Start: true}
	// Index triples by (head, rel) once per call; datasets are small
	// enough that a scan per hop is acceptable for the harness.
	for _, r := range q.Relations {
		next := make(map[int32]bool)
		for _, tr := range d.Triples {
			if tr[1] == r && frontier[tr[0]] {
				next[tr[2]] = true
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return frontier
}
