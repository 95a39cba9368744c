package embedding

import (
	"testing"

	"saga/internal/graphengine"
	"saga/internal/workload"
)

// multihopFixture trains all three model kinds on one world and prepares
// 2-hop path queries (person -memberOf-> team is 1-hop; person
// -collaborator-> person -memberOf-> team is a 2-hop chain with
// ground-truth answers inside the cluster).
type multihopFixture struct {
	w      *workload.World
	d      *Dataset
	models map[ModelKind]Model
	collab int32
	member int32
}

func newMultihopFixture(t *testing.T) *multihopFixture {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 60, NumClusters: 6, Seed: 131})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDataset(graphengine.New(w.Graph).Materialize(graphengine.ViewDef{}))
	f := &multihopFixture{w: w, d: d, models: make(map[ModelKind]Model)}
	var ok bool
	if f.collab, ok = d.RelationIndex(w.Preds["collaborator"]); !ok {
		t.Fatal("collaborator relation missing from dataset")
	}
	if f.member, ok = d.RelationIndex(w.Preds["memberOf"]); !ok {
		t.Fatal("memberOf relation missing")
	}
	for _, kind := range []ModelKind{TransE, DistMult, ComplEx} {
		m, err := Train(d, TrainConfig{
			Model: kind, Dim: 32, Epochs: 40, LearningRate: 0.08,
			Negatives: 4, Workers: 2, Seed: 131,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.models[kind] = m
	}
	return f
}

func TestPathGroundTruth(t *testing.T) {
	f := newMultihopFixture(t)
	// 1-hop: person -memberOf-> their cluster team.
	p := f.w.People[0]
	pIdx, _ := f.d.EntityIndex(p)
	gt := PathGroundTruth(f.d, PathQuery{Start: pIdx, Relations: []int32{f.member}})
	teamIdx, _ := f.d.EntityIndex(f.w.Teams[f.w.Cluster[p]])
	if !gt[teamIdx] {
		t.Fatalf("ground truth misses direct memberOf fact")
	}
	// Unsatisfiable chain: team has no outgoing memberOf.
	gt2 := PathGroundTruth(f.d, PathQuery{Start: teamIdx, Relations: []int32{f.member, f.member}})
	if len(gt2) != 0 {
		t.Fatalf("impossible path has answers: %v", gt2)
	}
}

func TestAnswerPathQueryErrors(t *testing.T) {
	f := newMultihopFixture(t)
	m := f.models[DistMult]
	if _, err := AnswerPathQuery(m, PathQuery{Start: 0}, []int32{0}); err == nil {
		t.Fatal("empty relation chain accepted")
	}
}

// TestPathQueryCompositionQuality: for 2-hop queries
// (person -collaborator-> x -memberOf-> team), the composed embedding
// score must rank a true answer well above a random candidate set —
// Hits@5 over all teams as candidates.
func TestPathQueryCompositionQuality(t *testing.T) {
	f := newMultihopFixture(t)
	// Candidates: all teams.
	var teamIdx []int32
	for _, team := range f.w.Teams {
		if ti, ok := f.d.EntityIndex(team); ok {
			teamIdx = append(teamIdx, ti)
		}
	}
	if len(teamIdx) < 4 {
		t.Skip("too few teams in embedding space")
	}
	for kind, m := range f.models {
		var hits, total int
		for _, p := range f.w.People[:30] {
			pIdx, ok := f.d.EntityIndex(p)
			if !ok {
				continue
			}
			q := PathQuery{Start: pIdx, Relations: []int32{f.collab, f.member}}
			gt := PathGroundTruth(f.d, q)
			if len(gt) == 0 {
				continue
			}
			ranked, err := AnswerPathQuery(m, q, teamIdx)
			if err != nil {
				t.Fatal(err)
			}
			total++
			top := ranked
			if len(top) > 3 {
				top = top[:3]
			}
			for _, st := range top {
				if gt[st.Tail] {
					hits++
					break
				}
			}
		}
		if total == 0 {
			t.Fatal("no evaluable path queries")
		}
		rate := float64(hits) / float64(total)
		// Random guessing over ≥6 teams would land in the top-3 about
		// half the time at best; demand clearly better.
		if rate < 0.6 {
			t.Errorf("%s: 2-hop Hits@3 = %.3f (n=%d), composition not working", kind, rate, total)
		}
	}
}

// TestPathQuerySingleHopMatchesScore: a 1-hop path query must rank tails
// identically to direct triple scoring for every model kind.
func TestPathQuerySingleHopMatchesScore(t *testing.T) {
	f := newMultihopFixture(t)
	pIdx, _ := f.d.EntityIndex(f.w.People[3])
	cands := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	for kind, m := range f.models {
		path, err := AnswerPathQuery(m, PathQuery{Start: pIdx, Relations: []int32{f.member}}, cands)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != len(cands) {
			t.Fatalf("%s: %d ranked tails, want %d", kind, len(path), len(cands))
		}
		for i := 1; i < len(path); i++ {
			prev := m.Score(pIdx, f.member, path[i-1].Tail)
			if s := m.Score(pIdx, f.member, path[i].Tail); s > prev {
				t.Errorf("%s: 1-hop path order differs from direct scoring at %d: %v (%v) after %v (%v)",
					kind, i, path[i], s, path[i-1], prev)
				break
			}
		}
	}
}
