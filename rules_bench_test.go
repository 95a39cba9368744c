package repro_test

import (
	"fmt"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/rules"
	"saga/internal/workload"
)

// BenchmarkE19Rules measures the rule layer (experiment E19, report-only
// — excluded from the benchcmp gate; the numbers price algorithm
// choices against each other, not a regression surface).
//
// The workload is the canonical recursive program — transitive closure
// of management chains — over an org forest: 200 reporting chains of
// depth 10 (1,800 base edges, 9,000 closure facts). "full" pays a
// from-scratch fixpoint per iteration (rules.New seeds the store by
// stratum); the "delta" cases cut a fixed fraction of the base edges,
// Sync (cascade + repair of the damaged region), re-assert them, and
// Sync again (semi-naive propagation refills the holes). The point of
// the comparison: maintenance cost scales with the damage a mutation
// does — bounded by chain depth squared per cut — not with the size of
// the derived store, so delta must come in under full at small churn,
// which is the whole argument for incremental maintenance. (A single
// maximally deep chain is the adversarial shape: every cut splits the
// whole closure and full re-derivation wins. Org hierarchies are
// shallow; the forest is the representative case.)
//
// "closure/fanin" is the delta case on the shape the forest never has: one
// manager with 2,000 direct reports, so every closure fact shares one
// object and the derived (chain, manager) posting is 2,000 subjects long;
// 1% of the edges are cut and re-asserted per iteration. Removal from that
// posting was a linear scan per fact in the rule store's private indexes
// (quadratic in the cut); on the shared FactSet it is a binary search.
// Reported, not gated.
//
// "cc" prices one connected-components materialization (CSR snapshot
// build + BFS + diff against the previous labelling) over a synthetic
// open-domain world, the analytics path's steady-state cost.
func BenchmarkE19Rules(b *testing.B) {
	b.Run("closure/full", benchRulesFull)
	for _, churn := range []int{1, 5} {
		b.Run(fmt.Sprintf("closure/delta-churn=%d%%", churn), func(b *testing.B) {
			benchRulesDelta(b, benchOrgChains, benchOrgDepth, false, churn)
		})
	}
	b.Run("closure/fanin", func(b *testing.B) { benchRulesDelta(b, benchFaninReports, 2, true, 1) })
	b.Run("cc", benchRulesComponents)
}

const (
	benchOrgChains    = 200
	benchOrgDepth     = 10
	benchFaninReports = 2000
)

// benchOrgWorld builds an org forest — chains reporting chains of depth
// entities each, all ending at one shared root when shareRoot is set —
// and its two-rule closure program. Returns the base edges and the
// closure's expected fact count.
func benchOrgWorld(b *testing.B, chains, depth int, shareRoot bool) (*kg.Graph, *graphengine.Engine, *rules.RuleSet, []kg.Triple, int) {
	b.Helper()
	g := kg.NewGraphWithShards(16)
	pred, err := g.AddPredicate(kg.Predicate{Name: "reportsTo"})
	if err != nil {
		b.Fatal(err)
	}
	root, err := g.AddEntity(kg.Entity{Key: "root"})
	if err != nil {
		b.Fatal(err)
	}
	var edges []kg.Triple
	for c := 0; c < chains; c++ {
		prev := kg.NoEntity
		for d := 0; d < depth; d++ {
			id := root
			if !shareRoot || d < depth-1 {
				if id, err = g.AddEntity(kg.Entity{Key: fmt.Sprintf("c%dd%d", c, d)}); err != nil {
					b.Fatal(err)
				}
			}
			if prev != kg.NoEntity {
				tr := kg.Triple{Subject: prev, Predicate: pred, Object: kg.EntityValue(id)}
				if err := g.Assert(tr); err != nil {
					b.Fatal(err)
				}
				edges = append(edges, tr)
			}
			prev = id
		}
	}
	rs, err := rules.ParseRules(g, `
		chain(X, Y) :- reportsTo(X, Y).
		chain(X, Z) :- chain(X, Y), reportsTo(Y, Z).
	`)
	if err != nil {
		b.Fatal(err)
	}
	return g, graphengine.New(g), rs, edges, chains * depth * (depth - 1) / 2
}

func benchRulesFull(b *testing.B) {
	_, geng, rs, _, wantFacts := benchOrgWorld(b, benchOrgChains, benchOrgDepth, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := rules.New(geng, rs, rules.Options{NoMaintainer: true})
		if err != nil {
			b.Fatal(err)
		}
		if got := e.Stats().Facts; got != wantFacts {
			b.Fatalf("derived %d facts, want %d", got, wantFacts)
		}
		e.Close()
	}
	b.ReportMetric(float64(wantFacts), "facts")
}

func benchRulesDelta(b *testing.B, chains, depth int, shareRoot bool, churnPct int) {
	g, geng, rs, edges, wantFacts := benchOrgWorld(b, chains, depth, shareRoot)
	e, err := rules.New(geng, rs, rules.Options{NoMaintainer: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	churn := len(edges) * churnPct / 100
	if churn < 1 {
		churn = 1
	}
	// Spread the churned edges across the forest; rotating by iteration
	// mixes cut positions (and so repair costs) across the run.
	step := len(edges) / churn
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < churn; j++ {
			if !g.Retract(edges[(j*step+i)%len(edges)]) {
				b.Fatal("retract failed")
			}
		}
		e.Sync() // cascade the damage, repair what survives
		for j := 0; j < churn; j++ {
			if err := g.Assert(edges[(j*step+i)%len(edges)]); err != nil {
				b.Fatal(err)
			}
		}
		e.Sync() // semi-naive propagation refills the holes
		if got := e.Stats().Facts; got != wantFacts {
			b.Fatalf("iteration %d: %d facts, want %d", i, got, wantFacts)
		}
	}
	b.StopTimer()
	if e.Stats().FullRuns != 1 {
		b.Fatalf("maintenance fell back to full re-derivation %d times", e.Stats().FullRuns-1)
	}
	b.ReportMetric(float64(churn), "edges/op")
}

func benchRulesComponents(b *testing.B) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 2000, NumClusters: 40, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	g := w.Graph
	geng := graphengine.New(g)
	rs, err := rules.ParseRules(g, "")
	if err != nil {
		b.Fatal(err)
	}
	e, err := rules.New(geng, rs, rules.Options{NoMaintainer: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	out, err := g.AddPredicate(kg.Predicate{Name: "component"})
	if err != nil {
		b.Fatal(err)
	}
	var facts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.DeriveComponents(out)
		if err != nil {
			b.Fatal(err)
		}
		facts = rep.Facts
	}
	b.StopTimer()
	b.ReportMetric(float64(facts), "facts")
}
