package embedding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"saga/internal/kg"
)

// TestWalkEmbeddingsGolden pins the walk embeddings bit for bit: the
// SHA-256 of every person's vector, float32 bits little-endian, in
// w.People order. The walks must consume the same neighbour rows from the
// same RNG in the same order for it to hold.
func TestWalkEmbeddingsGolden(t *testing.T) {
	const want = "c434a62148c2ba2e91202ca17f2b57e09ec63ff327d449edd37f455b369740b7"
	w := testWorld(t)
	vecs := TrainWalkEmbeddings(w.Graph, w.People, WalkEmbedConfig{Dim: 48, WalksPerNode: 30, WalkLength: 3, Seed: 13})
	h := sha256.New()
	var buf [4]byte
	for _, p := range w.People {
		for _, x := range vecs[p] {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("walk embeddings hash to %s, want %s", got, want)
	}
}

// naiveNeighbors recomputes the undirected entity adjacency of id from a
// scan of every stored triple — out-edges are the triples id is the
// subject of, in-edges those it is the entity object of — deduplicated
// through a map, self-loops removed, sorted. It is the reference the
// walk adjacency must agree with exactly.
func naiveNeighbors(g *kg.Graph, id kg.EntityID) []kg.EntityID {
	set := make(map[kg.EntityID]struct{})
	for _, t := range g.AllTriples() {
		if !t.Object.IsEntity() {
			continue
		}
		if t.Subject == id {
			set[t.Object.Entity] = struct{}{}
		}
		if t.Object.Entity == id {
			set[t.Subject] = struct{}{}
		}
	}
	delete(set, id)
	out := make([]kg.EntityID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []kg.EntityID) bool {
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

// TestWalkAdjacencyMatchesNaiveNeighbors drives a randomized interleaving
// of Assert and Retract calls and checks, at every step, that the walk
// adjacency's neighbour rows exactly match the naive computation for
// every entity — including entities with no edges and freshly drained
// rows.
func TestWalkAdjacencyMatchesNaiveNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := kg.NewGraph()

	const numEnts = 24
	ids := make([]kg.EntityID, numEnts)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("Q%d", i), Name: fmt.Sprintf("e%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	preds := make([]kg.PredicateID, 3)
	for i := range preds {
		p, err := g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}

	// live tracks asserted triples so retracts hit real facts ~half the time.
	var live []kg.Triple
	randomTriple := func() kg.Triple {
		return kg.Triple{
			Subject:   ids[rng.Intn(numEnts)],
			Predicate: preds[rng.Intn(len(preds))],
			Object:    kg.EntityValue(ids[rng.Intn(numEnts)]),
		}
	}

	for step := 0; step < 600; step++ {
		switch {
		case len(live) > 0 && rng.Intn(3) == 0:
			i := rng.Intn(len(live))
			tr := live[i]
			g.Retract(tr)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case rng.Intn(6) == 0:
			// Retract something that may or may not exist.
			g.Retract(randomTriple())
		default:
			tr := randomTriple()
			if isNew, err := g.AssertNew(tr); err != nil {
				t.Fatal(err)
			} else if isNew {
				live = append(live, tr)
			}
		}

		adj := buildAdjacency(g)
		for _, id := range ids {
			if want, got := naiveNeighbors(g, id), adj[id]; !equalIDs(want, got) {
				t.Fatalf("step %d: neighbors(%v) = %v, want %v", step, id, got, want)
			}
		}
	}
}

// walkFixture is a small typed graph: lebron has two occupations, and
// lebron, curry and kobe share the mvp award.
type walkFixture struct {
	g                                        *kg.Graph
	lebron, curry, kobe, bball, tvactor, mvp kg.EntityID
}

func newWalkFixture(t *testing.T) *walkFixture {
	t.Helper()
	f := &walkFixture{g: kg.NewGraph()}
	add := func(key string) kg.EntityID {
		id, err := f.g.AddEntity(kg.Entity{Key: key, Name: key})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.lebron, f.curry, f.kobe = add("lebron"), add("curry"), add("kobe")
	f.bball, f.tvactor, f.mvp = add("bball"), add("tvactor"), add("mvp")
	occ, _ := f.g.AddPredicate(kg.Predicate{Name: "occupation"})
	award, _ := f.g.AddPredicate(kg.Predicate{Name: "award"})
	height, _ := f.g.AddPredicate(kg.Predicate{Name: "height"})
	for _, tr := range []kg.Triple{
		{Subject: f.lebron, Predicate: occ, Object: kg.EntityValue(f.bball)},
		{Subject: f.lebron, Predicate: occ, Object: kg.EntityValue(f.tvactor)},
		{Subject: f.lebron, Predicate: award, Object: kg.EntityValue(f.mvp)},
		{Subject: f.curry, Predicate: award, Object: kg.EntityValue(f.mvp)},
		{Subject: f.kobe, Predicate: award, Object: kg.EntityValue(f.mvp)},
		{Subject: f.lebron, Predicate: height, Object: kg.IntValue(203)},
	} {
		if err := f.g.Assert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestRandomWalksAndCoOccurrence(t *testing.T) {
	f := newWalkFixture(t)
	rng := rand.New(rand.NewSource(1))
	walks := buildAdjacency(f.g).randomWalks(f.lebron, 50, 4, rng)
	if len(walks) != 50 {
		t.Fatalf("walks = %d", len(walks))
	}
	for _, w := range walks {
		if w[0] != f.lebron {
			t.Fatal("walk does not start at source")
		}
		if len(w) > 5 {
			t.Fatalf("walk too long: %v", w)
		}
	}
	co := coOccurrence(walks)
	if co[f.mvp] == 0 {
		t.Fatal("1-hop neighbor never co-occurred in 50 walks")
	}
	if co[f.lebron] != 0 {
		t.Fatal("source counted in its own co-occurrence")
	}
}

func TestRandomWalkIsolatedNode(t *testing.T) {
	g := kg.NewGraph()
	id, err := g.AddEntity(kg.Entity{Key: "lonely", Name: "Lonely"})
	if err != nil {
		t.Fatal(err)
	}
	walks := buildAdjacency(g).randomWalks(id, 3, 5, rand.New(rand.NewSource(2)))
	for _, w := range walks {
		if len(w) != 1 {
			t.Fatalf("isolated node walk = %v", w)
		}
	}
}
