package saga

import (
	"testing"
)

func buildPlatform(t *testing.T) (*Platform, *World) {
	t.Helper()
	w, err := GenerateWorld(WorldConfig{NumPeople: 60, NumClusters: 6, OccupationsPerPerson: 2, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	p := New(w.Graph)
	if err := p.TrainEmbeddings(EmbeddingOptions{
		Train: TrainConfig{Model: DistMult, Dim: 24, Epochs: 20, LearningRate: 0.08, Negatives: 4, Workers: 2, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.BuildAnnotator(AnnotateConfig{Mode: ModeContextual, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return p, w
}

func TestPlatformLifecycleGuards(t *testing.T) {
	w, err := GenerateWorld(WorldConfig{NumPeople: 10, NumClusters: 2, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	p := New(w.Graph)
	if _, err := p.RankFacts(w.People[0], w.Preds["occupation"]); err == nil {
		t.Fatal("RankFacts before training accepted")
	}
	if _, err := p.Annotate("text"); err == nil {
		t.Fatal("Annotate before BuildAnnotator accepted")
	}
	if _, err := p.RunODKE(nil); err == nil {
		t.Fatal("RunODKE before BuildODKE accepted")
	}
	if _, err := p.RelatedEntities(w.People[0], 3); err == nil {
		t.Fatal("RelatedEntities before training accepted")
	}
	if _, err := p.VerifyFact(w.People[0], w.Preds["occupation"], w.Occupations[0]); err == nil {
		t.Fatal("VerifyFact before training accepted")
	}
	if err := p.BuildODKE(nil, MajorityVoteFuser{}); err == nil {
		t.Fatal("BuildODKE without annotator accepted")
	}
}

func TestPlatformEndToEnd(t *testing.T) {
	p, w := buildPlatform(t)

	// Fact ranking.
	ranked, err := p.RankFacts(w.People[0], w.Preds["occupation"])
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked = %v", ranked)
	}

	// Verification with calibration.
	var pos, neg [][3]uint32
	occ := w.Preds["occupation"]
	for _, person := range w.People[:20] {
		for _, f := range w.Graph.Facts(person, occ) {
			pos = append(pos, [3]uint32{uint32(person), uint32(occ), uint32(f.Object.Entity)})
		}
		neg = append(neg, [3]uint32{uint32(person), uint32(occ), uint32(w.People[(int(person)+5)%len(w.People)])})
	}
	if err := p.CalibrateVerifier(pos, neg); err != nil {
		t.Fatal(err)
	}
	v, err := p.VerifyFact(w.People[0], occ, w.OccupationGold[w.People[0]][0])
	if err != nil {
		t.Fatal(err)
	}
	if !v.Plausible {
		t.Fatalf("gold fact not plausible: %+v", v)
	}

	// Related entities.
	rel, err := p.RelatedEntities(w.People[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 5 {
		t.Fatalf("related = %v", rel)
	}

	// Annotation.
	name := w.Graph.Entity(w.People[0]).Name
	anns, err := p.Annotate(name + " played well.")
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) == 0 {
		t.Fatal("no annotations")
	}

	// ODKE end to end: delete a fact, profile, extract it back.
	docs := GenerateCorpus(w, CorpusConfig{NumDocs: 300, InfoboxFraction: 0.6, Seed: 101})
	index := NewSearchIndex(docs)
	target := w.People[0]
	pred := w.Preds["memberOf"]
	gold := w.Graph.Facts(target, pred)
	if len(gold) == 0 {
		t.Fatal("fixture person has no memberOf")
	}
	w.Graph.Retract(gold[0])
	if err := p.BuildODKE(index, MajorityVoteFuser{}); err != nil {
		t.Fatal(err)
	}
	gaps := p.FindGaps(nil, ProfilerConfig{CoverageThreshold: 0.5})
	var targetGap *Gap
	for i := range gaps {
		if gaps[i].Subject == target && gaps[i].Predicate == pred {
			targetGap = &gaps[i]
		}
	}
	if targetGap == nil {
		t.Fatalf("profiler missed planted gap; got %d gaps", len(gaps))
	}
	rep, err := p.RunODKE([]Gap{*targetGap})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Filled != 1 {
		t.Fatalf("ODKE report = %+v", rep)
	}
	restored := w.Graph.Facts(target, pred)
	if len(restored) != 1 || !restored[0].Object.Equal(gold[0].Object) {
		t.Fatalf("restored fact = %v, want %v", restored, gold[0].Object)
	}
}

func TestPlatformWalkEmbeddings(t *testing.T) {
	w, err := GenerateWorld(WorldConfig{NumPeople: 80, NumClusters: 8, Seed: 107})
	if err != nil {
		t.Fatal(err)
	}
	p := New(w.Graph)
	if err := p.TrainEmbeddings(EmbeddingOptions{
		Train:          TrainConfig{Model: DistMult, Dim: 16, Epochs: 10, Workers: 2, Seed: 2},
		WalkEmbeddings: true,
		Walk:           WalkEmbedConfig{Dim: 64, WalksPerNode: 30, WalkLength: 3, Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	rel, err := p.RelatedEntities(w.People[0], 20)
	if err != nil {
		t.Fatal(err)
	}
	// Count cluster agreement over the person-typed results only (the
	// related list legitimately includes shared hubs like occupations).
	isPerson := make(map[EntityID]bool, len(w.People))
	for _, person := range w.People {
		isPerson[person] = true
	}
	var people, same int
	for _, r := range rel {
		if !isPerson[r.ID] || people >= 6 {
			continue
		}
		people++
		if w.Cluster[r.ID] == w.Cluster[w.People[0]] {
			same++
		}
	}
	if people == 0 || same*2 < people {
		t.Fatalf("walk-based related: only %d/%d people share cluster", same, people)
	}
}

func TestPlatformTrainOnEmptyView(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddEntity(Entity{Key: "only", Name: "Only"}); err != nil {
		t.Fatal(err)
	}
	p := New(g)
	if err := p.TrainEmbeddings(EmbeddingOptions{}); err == nil {
		t.Fatal("training on empty view accepted")
	}
}

func TestFacadeAccessorsAndHelpers(t *testing.T) {
	p, w := buildPlatform(t)
	if p.Graph() != w.Graph {
		t.Fatal("Graph() mismatch")
	}
	if p.Engine() == nil || p.EmbeddingService() == nil || p.Model() == nil || p.Dataset() == nil || p.Annotator() == nil {
		t.Fatal("initialized component accessor returned nil")
	}
	if p.ODKE() != nil {
		t.Fatal("ODKE non-nil before BuildODKE")
	}

	// Conjunctive query through the facade.
	team := w.Teams[0]
	bindings, err := p.QueryConjunctive([]QueryClause{
		{Subject: QVar("p"), Predicate: w.Preds["memberOf"], Object: QEntity(team)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != len(w.ClusterMembers[0]) {
		t.Fatalf("bindings = %d, want %d", len(bindings), len(w.ClusterMembers[0]))
	}
	// QConst with a literal object.
	heights, err := p.QueryConjunctive([]QueryClause{
		{Subject: QVar("x"), Predicate: w.Preds["height"], Object: QConst(IntValue(175))},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = heights // may be empty; just exercising the path

	// Annotation pipeline through the facade.
	pipe, err := p.NewAnnotationPipeline(2)
	if err != nil {
		t.Fatal(err)
	}
	docs := GenerateCorpus(w, CorpusConfig{NumDocs: 10, Seed: 1})
	stats := pipe.Run(docs)
	if stats.Processed != 10 {
		t.Fatalf("pipeline processed %d", stats.Processed)
	}

	// Engine + KV + query log helpers.
	if NewEngine(w.Graph) == nil {
		t.Fatal("NewEngine nil")
	}
	kv, err := OpenKV(t.TempDir(), KVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	log := GenerateQueryLog(w, QueryLogConfig{NumQueries: 20, Seed: 1})
	if len(log) != 20 {
		t.Fatalf("query log = %d", len(log))
	}

	// Value constructor re-exports.
	if !EntityValue(1).IsEntity() || !StringValue("s").IsLiteral() ||
		!FloatValue(1.5).IsLiteral() || !BoolValue(true).Bool() {
		t.Fatal("value constructor re-exports broken")
	}
}

// TestRetrainSeesTheGraphAsItIsNow: a platform for continuous construction
// retrains as the graph grows, and every TrainEmbeddings call — with the
// default view or one the caller defines — trains on the facts of that
// moment, not on the first call's snapshot.
func TestRetrainSeesTheGraphAsItIsNow(t *testing.T) {
	for _, c := range []struct {
		name string
		view ViewDef
	}{
		{"default", ViewDef{}},
		{"caller's own", ViewDef{DropLiteralFacts: true, MinPredicateFreq: 2}},
	} {
		viewName := c.name
		w, err := GenerateWorld(WorldConfig{NumPeople: 60, NumClusters: 6, Seed: 109})
		if err != nil {
			t.Fatal(err)
		}
		p := New(w.Graph)
		opts := EmbeddingOptions{
			View:  c.view,
			Train: TrainConfig{Model: DistMult, Dim: 8, Epochs: 2, Workers: 1, Seed: 3},
		}
		train := func() int {
			t.Helper()
			if err := p.TrainEmbeddings(opts); err != nil {
				t.Fatal(err)
			}
			return len(p.Dataset().Triples)
		}
		before := train()

		// Two entities no fact mentions yet, and 20 entity-valued facts.
		var fresh []EntityID
		for _, key := range []string{"newcomer-a", "newcomer-b"} {
			id, err := w.Graph.AddEntity(Entity{Key: key, Name: key})
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, id)
			if _, ok := p.EmbeddingService().EntityEmbedding(id); ok {
				t.Fatalf("view %q: %s has a vector before any fact mentions it", viewName, key)
			}
		}
		var added []Triple
		for i := 0; i < 20; i++ {
			added = append(added, Triple{
				Subject: w.People[i], Predicate: w.Preds["collaborator"], Object: EntityValue(fresh[i%2]),
			})
		}
		if err := w.Graph.AssertAll(added); err != nil {
			t.Fatal(err)
		}
		if got := train(); got != before+len(added) {
			t.Fatalf("view %q: retrain after %d asserts trained on %d triples, want %d", viewName, len(added), got, before+len(added))
		}
		for _, id := range fresh {
			if _, ok := p.Dataset().EntityIndex(id); !ok {
				t.Fatalf("view %q: new entity %d missing from the retrained dataset", viewName, id)
			}
			if v, ok := p.EmbeddingService().EntityEmbedding(id); !ok || len(v) != 8 {
				t.Fatalf("view %q: new entity %d has no vector after retraining", viewName, id)
			}
		}
		if rel, err := p.RelatedEntities(fresh[0], 3); err != nil || len(rel) != 3 {
			t.Fatalf("view %q: RelatedEntities(new entity) = %v, %v", viewName, rel, err)
		}

		for _, tr := range added {
			if !w.Graph.Retract(tr) {
				t.Fatalf("view %q: retract of %v found nothing", viewName, tr)
			}
		}
		if got := train(); got != before {
			t.Fatalf("view %q: retrain after retracting them trained on %d triples, want %d", viewName, got, before)
		}
		for _, id := range fresh {
			if _, ok := p.EmbeddingService().EntityEmbedding(id); ok {
				t.Fatalf("view %q: entity %d keeps a vector after its facts were retracted", viewName, id)
			}
		}
	}
}
