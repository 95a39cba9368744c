package graphengine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"saga/internal/kg"
)

// The overlay's contract is byte-identity: a conjunctive solve over
// NewOverlay(base, suffix) must produce exactly the rows — in exactly
// the stream order — that the same solve produced over a live graph
// holding the first asOf mutations. These tests pin that against
// from-scratch replays across randomized assert/retract/re-assert
// histories and several base/asOf cuts.

const (
	ovEnts  = 8
	ovPreds = 3
)

// newOverlayWorld registers a fixed dictionary so every replica assigns
// identical IDs; only asserts and retracts follow (those are what the
// mutation log carries).
func newOverlayWorld(t testing.TB) (*kg.Graph, []kg.EntityID, []kg.PredicateID) {
	t.Helper()
	g := kg.NewGraph()
	ents := make([]kg.EntityID, ovEnts)
	for i := range ents {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = id
	}
	preds := make([]kg.PredicateID, ovPreds)
	for i := range preds {
		id, err := g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = id
	}
	return g, ents, preds
}

// overlayObject draws from a deliberately small value domain so the
// history hits retract-then-re-assert of the same triple identity and
// literal objects exercise the posting-key paths.
func overlayObject(rng *rand.Rand, ents []kg.EntityID) kg.Value {
	switch rng.Intn(5) {
	case 0:
		return kg.StringValue(fmt.Sprintf("s%d", rng.Intn(4)))
	case 1:
		return kg.IntValue(int64(rng.Intn(4)))
	default:
		return kg.EntityValue(ents[rng.Intn(len(ents))])
	}
}

// ovMutator drives asserts, retracts, and re-asserts of previously
// retracted triples (the history shape the overlay's removed-then-
// appended enumeration order must reproduce). One step is one attempted
// mutation.
type ovMutator struct {
	t    testing.TB
	g    *kg.Graph
	rng  *rand.Rand
	live []kg.Triple
	dead []kg.Triple
}

func (m *ovMutator) step() {
	switch {
	case len(m.dead) > 0 && m.rng.Intn(5) == 0:
		j := m.rng.Intn(len(m.dead))
		tr := m.dead[j]
		added, err := m.g.AssertNew(tr)
		if err != nil {
			m.t.Fatalf("re-assert of retracted triple: %v", err)
		}
		m.dead[j] = m.dead[len(m.dead)-1]
		m.dead = m.dead[:len(m.dead)-1]
		if added { // !added means the random-assert branch already revived it
			m.live = append(m.live, tr)
		}
	case len(m.live) > 3 && m.rng.Intn(4) == 0:
		j := m.rng.Intn(len(m.live))
		tr := m.live[j]
		if !m.g.Retract(tr) {
			m.t.Fatalf("retract of live triple failed: %v", tr)
		}
		m.live[j] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		m.dead = append(m.dead, tr)
	default:
		ents, preds := entsAndPreds(m.g)
		tr := kg.Triple{
			Subject:   ents[m.rng.Intn(len(ents))],
			Predicate: preds[m.rng.Intn(len(preds))],
			Object:    overlayObject(m.rng, ents),
		}
		added, err := m.g.AssertNew(tr)
		if err != nil {
			m.t.Fatalf("assert: %v", err)
		}
		if added {
			m.live = append(m.live, tr)
		}
	}
}

func mutateOverlayWorld(t testing.TB, g *kg.Graph, rng *rand.Rand, steps int) {
	t.Helper()
	m := &ovMutator{t: t, g: g, rng: rng}
	for i := 0; i < steps; i++ {
		m.step()
	}
}

func entsAndPreds(g *kg.Graph) ([]kg.EntityID, []kg.PredicateID) {
	ents := make([]kg.EntityID, ovEnts)
	for i := range ents {
		ents[i] = kg.EntityID(i + 1)
	}
	preds := make([]kg.PredicateID, ovPreds)
	for i := range preds {
		preds[i] = kg.PredicateID(i + 1)
	}
	return ents, preds
}

// replayMuts rebuilds a fresh graph from a mutation prefix.
func replayMuts(t testing.TB, muts []kg.Mutation) *kg.Graph {
	t.Helper()
	g, _, _ := newOverlayWorld(t)
	for _, mu := range muts {
		switch mu.Op {
		case kg.OpAssert:
			if added, err := g.AssertNew(mu.T); err != nil || !added {
				t.Fatalf("replay assert LSN %d: added=%v err=%v", mu.Seq, added, err)
			}
		case kg.OpRetract:
			if !g.Retract(mu.T) {
				t.Fatalf("replay retract LSN %d failed", mu.Seq)
			}
		}
	}
	return g
}

func canonBinding(b Binding) string {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%v;", n, b[n].MapKey())
	}
	return sb.String()
}

// collectStream drains a binding stream into canonical row strings,
// preserving order.
func collectCanonRows(t testing.TB, label string, s func(yield func(Binding, error) bool)) []string {
	t.Helper()
	var rows []string
	for b, err := range s {
		if err != nil {
			t.Fatalf("%s: stream error: %v", label, err)
		}
		rows = append(rows, canonBinding(b))
	}
	return rows
}

func overlayQueries(ents []kg.EntityID, preds []kg.PredicateID) [][]Clause {
	return [][]Clause{
		{{Subject: V("x"), Predicate: preds[0], Object: V("y")}},
		{{Subject: V("x"), Predicate: preds[1], Object: V("y")}},
		{{Subject: V("x"), Predicate: preds[2], Object: V("y")}},
		{
			{Subject: V("x"), Predicate: preds[0], Object: V("y")},
			{Subject: V("y"), Predicate: preds[1], Object: V("z")},
		},
		{
			{Subject: V("x"), Predicate: preds[0], Object: CE(ents[2])},
			{Subject: V("x"), Predicate: preds[1], Object: V("y")},
		},
		{
			{Subject: V("x"), Predicate: preds[0], Object: V("y")},
			{Subject: V("x"), Predicate: preds[2], Object: V("y")},
		},
		{{Subject: V("x"), Predicate: preds[1], Object: C(kg.StringValue("s1"))}},
		{{Subject: CE(ents[0]), Predicate: preds[0], Object: V("y")}},
	}
}

// TestOverlayMatchesLiveReplay: for random histories and several
// (base, asOf) cuts, every query solved through the overlay streams the
// same rows in the same order as the identical solve over a live graph
// replayed to asOf — unlimited, limited, and via the sorted collect.
func TestOverlayMatchesLiveReplay(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			src, ents, preds := newOverlayWorld(t)
			mutateOverlayWorld(t, src, rand.New(rand.NewSource(seed)), 400)
			muts, complete := src.Feed(0).Pull()
			if !complete || len(muts) == 0 {
				t.Fatalf("source history unavailable: %d muts, complete=%v", len(muts), complete)
			}
			m := len(muts)
			cuts := [][2]int{{0, m / 2}, {m / 3, m / 3}, {m / 3, 2 * m / 3}, {m / 2, m}, {0, m}}
			for _, cut := range cuts {
				base := replayMuts(t, muts[:cut[0]])
				ov := NewOverlay(base, muts[cut[0]:cut[1]])
				liveEng := New(replayMuts(t, muts[:cut[1]]))
				for qi, q := range overlayQueries(ents, preds) {
					label := fmt.Sprintf("cut=%v q=%d", cut, qi)
					want := collectCanonRows(t, label, liveEng.StreamConjunctive(q, QueryOptions{}))
					got := collectCanonRows(t, label, ov.StreamConjunctive(q, QueryOptions{}))
					if !equalRows(want, got) {
						t.Fatalf("%s: overlay stream diverged\nlive:    %v\noverlay: %v", label, want, got)
					}
					wantLim := collectCanonRows(t, label, liveEng.StreamConjunctive(q, QueryOptions{Limit: 5}))
					gotLim := collectCanonRows(t, label, ov.StreamConjunctive(q, QueryOptions{Limit: 5}))
					if !equalRows(wantLim, gotLim) {
						t.Fatalf("%s: limited overlay stream diverged\nlive:    %v\noverlay: %v", label, wantLim, gotLim)
					}
					wantAll, err := liveEng.QueryConjunctive(q)
					if err != nil {
						t.Fatalf("%s: live query: %v", label, err)
					}
					gotAll, err := ov.QueryConjunctive(q)
					if err != nil {
						t.Fatalf("%s: overlay query: %v", label, err)
					}
					if len(wantAll) != len(gotAll) {
						t.Fatalf("%s: %d live rows vs %d overlay rows", label, len(wantAll), len(gotAll))
					}
					for i := range wantAll {
						if canonBinding(wantAll[i]) != canonBinding(gotAll[i]) {
							t.Fatalf("%s: sorted row %d differs: %v vs %v", label, i, wantAll[i], gotAll[i])
						}
					}
				}
			}
		})
	}
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOverlayConjGraphContract compares every solver-facing accessor of
// the overlay against the live replayed graph directly — counts,
// membership, and enumeration order — across the whole (subject,
// predicate) and (predicate, object) probe space.
func TestOverlayConjGraphContract(t *testing.T) {
	src, ents, preds := newOverlayWorld(t)
	mutateOverlayWorld(t, src, rand.New(rand.NewSource(42)), 500)
	muts, complete := src.Feed(0).Pull()
	if !complete {
		t.Fatal("source history unavailable")
	}
	m := len(muts)
	base := replayMuts(t, muts[:m/3])
	ov := NewOverlay(base, muts[m/3:])
	live := replayMuts(t, muts)

	objects := make([]kg.Value, 0, len(ents)+8)
	for _, e := range ents {
		objects = append(objects, kg.EntityValue(e))
	}
	for i := 0; i < 4; i++ {
		objects = append(objects, kg.StringValue(fmt.Sprintf("s%d", i)), kg.IntValue(int64(i)))
	}

	for _, p := range preds {
		if got, want := ov.PredicateFrequency(p), live.PredicateFrequency(p); got != want {
			t.Fatalf("PredicateFrequency(%d): %d, want %d", p, got, want)
		}
		for _, s := range ents {
			if got, want := ov.FactCount(s, p), live.FactCount(s, p); got != want {
				t.Fatalf("FactCount(%d,%d): %d, want %d", s, p, got, want)
			}
			var gotFacts, wantFacts []string
			ov.FactsChunked(s, p, 3, func(chunk []kg.Triple) bool {
				for _, tr := range chunk {
					gotFacts = append(gotFacts, fmt.Sprintf("%v", tr.IdentityKey()))
				}
				return true
			})
			live.FactsChunked(s, p, 3, func(chunk []kg.Triple) bool {
				for _, tr := range chunk {
					wantFacts = append(wantFacts, fmt.Sprintf("%v", tr.IdentityKey()))
				}
				return true
			})
			if !equalRows(wantFacts, gotFacts) {
				t.Fatalf("FactsChunked(%d,%d) order: %v, want %v", s, p, gotFacts, wantFacts)
			}
		}
		for _, o := range objects {
			if got, want := ov.SubjectsWithCount(p, o), live.SubjectsWithCount(p, o); got != want {
				t.Fatalf("SubjectsWithCount(%d,%v): %d, want %d", p, o, got, want)
			}
			// From the start, and resumed after a key in the middle.
			for _, after := range []kg.EntityID{kg.NoEntity, ents[len(ents)/2]} {
				var gotSubs, wantSubs []string
				ov.SubjectsWithChunked(p, o, after, 3, func(chunk []kg.EntityID) bool {
					for _, id := range chunk {
						gotSubs = append(gotSubs, fmt.Sprint(id))
					}
					return true
				})
				live.SubjectsWithChunked(p, o, after, 3, func(chunk []kg.EntityID) bool {
					for _, id := range chunk {
						wantSubs = append(wantSubs, fmt.Sprint(id))
					}
					return true
				})
				if !equalRows(wantSubs, gotSubs) {
					t.Fatalf("SubjectsWithChunked(%d,%v) after %d order: %v, want %v", p, o, after, gotSubs, wantSubs)
				}
			}
			for _, s := range ents {
				if got, want := ov.HasFact(s, p, o), live.HasFact(s, p, o); got != want {
					t.Fatalf("HasFact(%d,%d,%v): %v, want %v", s, p, o, got, want)
				}
			}
		}
		gotEntries := make(map[string]int)
		wantEntries := make(map[string]int)
		ov.PredicateEntriesFunc(p, func(obj kg.Value, subj kg.EntityID) bool {
			gotEntries[fmt.Sprintf("%v|%d", obj.MapKey(), subj)]++
			return true
		})
		live.PredicateEntriesFunc(p, func(obj kg.Value, subj kg.EntityID) bool {
			wantEntries[fmt.Sprintf("%v|%d", obj.MapKey(), subj)]++
			return true
		})
		if len(gotEntries) != len(wantEntries) {
			t.Fatalf("PredicateEntriesFunc(%d): %d entries, want %d", p, len(gotEntries), len(wantEntries))
		}
		for k, n := range wantEntries {
			if gotEntries[k] != n {
				t.Fatalf("PredicateEntriesFunc(%d): entry %s count %d, want %d", p, k, gotEntries[k], n)
			}
		}
	}

	// Early-stop contract: a false return halts enumeration.
	stops := 0
	ov.FactsChunked(ents[0], preds[0], 1, func([]kg.Triple) bool { stops++; return false })
	if stops > 1 {
		t.Fatalf("FactsChunked ignored early stop: %d calls", stops)
	}
}
