package main

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"saga/internal/kg"
)

// The oracle is the benchmark's reference model: a plain set of facts
// with hash indexes and a nested-loop conjunctive evaluator, sharing no
// code with internal/kg's indexes or internal/graphengine's planner.
// Every correctness check compares the serving stack against it by row
// multiset (count + set of row hashes), never by bytes or row order —
// row order depends on shard count today and ROADMAP direction 1 will
// change it.

// oval is a comparable object value: an entity id, or a literal in its
// rendered form (kg.Value.String, which is also what /query renders).
type oval struct {
	ent kg.EntityID
	lit string
}

func ovalOf(v kg.Value) oval {
	if v.IsEntity() {
		return oval{ent: v.Entity}
	}
	return oval{lit: v.String()}
}

type fact struct {
	s kg.EntityID
	p kg.PredicateID
	o oval
}

func factOf(t kg.Triple) fact { return fact{s: t.Subject, p: t.Predicate, o: ovalOf(t.Object)} }

// term is a query position: a variable name, or a constant entity.
type term struct {
	v string
	e kg.EntityID
}

type clause struct {
	s term
	p kg.PredicateID
	o term
}

// model is the fact set. Writes go through assert/retract; reads build
// the indexes lazily and drop them on the next write.
type model struct {
	// The dictionary is copied out of the graph so the model pins no graph.
	keys, names []string // by EntityID
	preds       []string // by PredicateID
	facts       map[fact]struct{}
	ix          *modelIndex
}

type spKey struct {
	s kg.EntityID
	p kg.PredicateID
}

type poKey struct {
	p kg.PredicateID
	o oval
}

type modelIndex struct {
	bySP map[spKey][]oval
	byPO map[poKey][]kg.EntityID
	byP  map[kg.PredicateID][]fact
	byS  map[kg.EntityID][]fact
}

func newModel(g *kg.Graph) *model {
	ts := g.AllTriples()
	m := &model{
		keys: make([]string, g.NumEntities()+1), names: make([]string, g.NumEntities()+1),
		preds: make([]string, g.NumPredicates()+1), facts: make(map[fact]struct{}, len(ts)),
	}
	g.Entities(func(e *kg.Entity) bool {
		m.keys[e.ID], m.names[e.ID] = e.Key, e.Name
		return true
	})
	g.Predicates(func(p *kg.Predicate) bool {
		m.preds[p.ID] = p.Name
		return true
	})
	for _, t := range ts {
		m.facts[factOf(t)] = struct{}{}
	}
	return m
}

func (m *model) assert(f fact)  { m.facts[f] = struct{}{}; m.ix = nil }
func (m *model) retract(f fact) { delete(m.facts, f); m.ix = nil }
func (m *model) has(f fact) bool {
	_, ok := m.facts[f]
	return ok
}

func (m *model) index() *modelIndex {
	if m.ix != nil {
		return m.ix
	}
	ix := &modelIndex{
		bySP: make(map[spKey][]oval),
		byPO: make(map[poKey][]kg.EntityID),
		byP:  make(map[kg.PredicateID][]fact),
		byS:  make(map[kg.EntityID][]fact),
	}
	for f := range m.facts {
		ix.bySP[spKey{f.s, f.p}] = append(ix.bySP[spKey{f.s, f.p}], f.o)
		ix.byPO[poKey{f.p, f.o}] = append(ix.byPO[poKey{f.p, f.o}], f.s)
		ix.byP[f.p] = append(ix.byP[f.p], f)
		ix.byS[f.s] = append(ix.byS[f.s], f)
	}
	m.ix = ix
	return ix
}

// digest is the order-insensitive identity of the whole fact set: the
// wrapping sum of per-fact hashes, plus the count.
func (m *model) digest() (sum uint64, n int) {
	for f := range m.facts {
		sum += hashFact(f)
	}
	return sum, len(m.facts)
}

// graphDigest is digest over a live graph's triples.
func graphDigest(g *kg.Graph) (sum uint64, n int) {
	ts := g.AllTriples()
	for _, t := range ts {
		sum += hashFact(factOf(t))
	}
	return sum, len(ts)
}

func hashFact(f fact) uint64 {
	h := fnv.New64a()
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(f.s))
	binary.LittleEndian.PutUint32(b[4:], uint32(f.p))
	binary.LittleEndian.PutUint32(b[8:], uint32(f.o.ent))
	h.Write(b[:])
	h.Write([]byte(f.o.lit))
	return h.Sum64()
}

// render is the wire form of a value in a /query row: "@key" for an
// entity, the literal's rendered string otherwise.
func (m *model) render(o oval) string {
	if o.ent != 0 {
		return "@" + m.keys[o.ent]
	}
	return o.lit
}

// rowHash hashes one answer row given as variable → wire form. Both the
// oracle and the response checker reduce rows to this.
func rowHash(row map[string]string) uint64 {
	vars := make([]string, 0, len(row))
	for v := range row {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	h := fnv.New64a()
	for _, v := range vars {
		h.Write([]byte(v))
		h.Write([]byte{'='})
		h.Write([]byte(row[v]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// answers evaluates the conjunction by nested loops in the order given
// and returns the set of distinct row hashes.
func (m *model) answers(cls []clause) map[uint64]struct{} {
	out := make(map[uint64]struct{})
	m.solve(cls, func(b map[string]oval) {
		row := make(map[string]string, len(b))
		for v, o := range b {
			row[v] = m.render(o)
		}
		out[rowHash(row)] = struct{}{}
	})
	return out
}

// solve calls emit once per satisfying binding (duplicates included;
// callers dedup). emit must not retain b.
func (m *model) solve(cls []clause, emit func(b map[string]oval)) {
	ix := m.index()
	bind := make(map[string]oval)
	var rec func(i int)
	rec = func(i int) {
		if i == len(cls) {
			emit(bind)
			return
		}
		c := cls[i]
		sv, sBound := resolveTerm(c.s, bind)
		ov, oBound := resolveTerm(c.o, bind)
		try := func(s kg.EntityID, o oval) {
			var setS, setO bool
			if !sBound {
				bind[c.s.v], setS = oval{ent: s}, true
			}
			// The same variable in both positions must agree.
			if !oBound {
				if prev, ok := bind[c.o.v]; ok {
					if prev != o {
						if setS {
							delete(bind, c.s.v)
						}
						return
					}
				} else {
					bind[c.o.v], setO = o, true
				}
			}
			rec(i + 1)
			if setS {
				delete(bind, c.s.v)
			}
			if setO {
				delete(bind, c.o.v)
			}
		}
		switch {
		case sBound && oBound:
			if sv.ent != 0 && m.has(fact{sv.ent, c.p, ov}) {
				try(sv.ent, ov)
			}
		case sBound:
			if sv.ent != 0 {
				for _, o := range ix.bySP[spKey{sv.ent, c.p}] {
					try(sv.ent, o)
				}
			}
		case oBound:
			for _, s := range ix.byPO[poKey{c.p, ov}] {
				try(s, ov)
			}
		default:
			for _, f := range ix.byP[c.p] {
				try(f.s, f.o)
			}
		}
	}
	rec(0)
}

func resolveTerm(t term, bind map[string]oval) (oval, bool) {
	if t.v == "" {
		return oval{ent: t.e}, true
	}
	o, ok := bind[t.v]
	return o, ok
}

// entityFacts is the multiset of rendered "predicate = object" strings
// GET /entity returns for e, as a sorted slice.
func (m *model) entityFacts(e kg.EntityID) []string {
	fs := m.index().byS[e]
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		obj := f.o.lit
		if f.o.ent != 0 {
			obj = m.names[f.o.ent]
		}
		out = append(out, m.preds[f.p]+" = "+obj)
	}
	sort.Strings(out)
	return out
}
