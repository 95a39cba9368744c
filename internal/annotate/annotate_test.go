package annotate

import (
	"math/rand"
	"strings"
	"testing"

	"saga/internal/kg"
	"saga/internal/webcorpus"
	"saga/internal/workload"
)

func annWorld(t *testing.T) *workload.World {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 60, NumClusters: 6, AmbiguousNamePairs: 5, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewRequiresEntities(t *testing.T) {
	if _, err := New(kg.NewGraph(), Config{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestAnnotateFindsKnownEntity(t *testing.T) {
	w := annWorld(t)
	a, err := New(w.Graph, Config{Mode: ModeContextual, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := w.People[0]
	name := w.Graph.Entity(p).Name
	team := w.Graph.Entity(w.Teams[w.Cluster[p]]).Name
	text := name + " scored twice for the " + team + " last night."
	anns := a.Annotate(text)
	if len(anns) == 0 {
		t.Fatalf("no annotations for %q", text)
	}
	// The person mention must be present with correct offsets.
	var found bool
	for _, ann := range anns {
		if text[ann.Start:ann.End] != ann.Surface {
			t.Fatalf("offset mismatch: %q vs %q", text[ann.Start:ann.End], ann.Surface)
		}
		if ann.Surface == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("person %q not detected in %v", name, anns)
	}
}

func TestAnnotateEmptyText(t *testing.T) {
	w := annWorld(t)
	a, err := New(w.Graph, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Annotate(""); got != nil {
		t.Fatalf("empty text = %v", got)
	}
	if got := a.Annotate("nothing matches here at all zzz"); len(got) != 0 {
		t.Fatalf("no-entity text = %v", got)
	}
}

func TestLongestMatchWins(t *testing.T) {
	g := kg.NewGraph()
	ny, _ := g.AddEntity(kg.Entity{Key: "ny", Name: "New York", Aliases: []string{"New York"}})
	nyc, _ := g.AddEntity(kg.Entity{Key: "nyc", Name: "New York City", Aliases: []string{"New York City"}})
	a, err := New(g, Config{Mode: ModeLexical, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	anns := a.Annotate("I moved to New York City last year.")
	if len(anns) != 1 {
		t.Fatalf("annotations = %v, want single longest match", anns)
	}
	if anns[0].Entity != nyc {
		t.Fatalf("linked %v, want NYC over NY (%v)", anns[0].Entity, ny)
	}
	if anns[0].Surface != "New York City" {
		t.Fatalf("surface = %q", anns[0].Surface)
	}
}

func TestContextualDisambiguation(t *testing.T) {
	// Two "Michael Jordan"s with different descriptions; context decides.
	g := kg.NewGraph()
	baller, _ := g.AddEntity(kg.Entity{
		Key: "mj1", Name: "Michael Jordan",
		Aliases:     []string{"Michael Jordan"},
		Description: "Michael Jordan, basketball player for the Chicago Bulls, NBA champion",
		Popularity:  0.9,
	})
	prof, _ := g.AddEntity(kg.Entity{
		Key: "mj2", Name: "Michael Jordan",
		Aliases:     []string{"Michael Jordan"},
		Description: "Michael Jordan, university professor of machine learning at Berkeley",
		Popularity:  0.3,
	})
	a, err := New(g, Config{Mode: ModeContextual, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	sports := a.Annotate("Michael Jordan dominated the basketball game with the Bulls in the NBA finals.")
	if len(sports) == 0 || sports[0].Entity != baller {
		t.Fatalf("sports context linked %v, want basketball player", sports)
	}
	academia := a.Annotate("Michael Jordan published machine learning research with his university students at Berkeley.")
	if len(academia) == 0 || academia[0].Entity != prof {
		t.Fatalf("academic context linked %v, want professor (candidates: %v)", academia[0].Entity, academia[0].Candidates)
	}
	// Popularity-only mode always picks the popular one, demonstrating
	// why contextual reranking matters (the paper's §3 example).
	pop, err := New(g, Config{Mode: ModePopularity, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	popAcademia := pop.Annotate("Michael Jordan published machine learning research with his university students at Berkeley.")
	if len(popAcademia) == 0 || popAcademia[0].Entity != baller {
		t.Fatalf("popularity mode should pick the popular entity; got %v", popAcademia)
	}
}

func TestCandidateListSortedAndComplete(t *testing.T) {
	w := annWorld(t)
	a, err := New(w.Graph, Config{Mode: ModeContextual, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Find an ambiguous name and annotate a neutral sentence.
	for name, bearers := range w.AmbiguousNames {
		anns := a.Annotate("Yesterday " + name + " was seen downtown.")
		if len(anns) == 0 {
			t.Fatalf("ambiguous name %q not detected", name)
		}
		ann := anns[0]
		if len(ann.Candidates) < len(bearers) {
			t.Fatalf("candidates = %d, want >= %d bearers", len(ann.Candidates), len(bearers))
		}
		for i := 1; i < len(ann.Candidates); i++ {
			if ann.Candidates[i].Score > ann.Candidates[i-1].Score {
				t.Fatal("candidates not sorted")
			}
		}
		break
	}
}

// measureAccuracy runs the annotator over generated docs and returns the
// fraction of gold mentions that were linked to the correct entity, plus
// the fraction over ambiguous mentions only.
func measureAccuracy(t *testing.T, w *workload.World, mode Mode) (overall, ambiguous float64) {
	t.Helper()
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 250, Seed: 43})
	a, err := New(w.Graph, Config{Mode: mode, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var correct, total, ambCorrect, ambTotal int
	for _, d := range docs {
		anns := a.Annotate(d.Text)
		byStart := make(map[int]Annotation)
		for _, ann := range anns {
			byStart[ann.Start] = ann
		}
		for _, gm := range d.Gold {
			total++
			ann, ok := byStart[gm.Start]
			hit := ok && ann.Entity == gm.Entity
			if hit {
				correct++
			}
			if gm.Ambiguous {
				ambTotal++
				if hit {
					ambCorrect++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no gold mentions")
	}
	overall = float64(correct) / float64(total)
	if ambTotal > 0 {
		ambiguous = float64(ambCorrect) / float64(ambTotal)
	} else {
		ambiguous = -1
	}
	return overall, ambiguous
}

func TestLinkingQualityContextualBeatsLexical(t *testing.T) {
	w := annWorld(t)
	ctxAcc, ctxAmb := measureAccuracy(t, w, ModeContextual)
	lexAcc, _ := measureAccuracy(t, w, ModeLexical)
	if ctxAcc < 0.7 {
		t.Fatalf("contextual accuracy = %v, too low", ctxAcc)
	}
	if ctxAcc <= lexAcc-0.01 {
		t.Fatalf("contextual (%v) should not lose to lexical (%v)", ctxAcc, lexAcc)
	}
	if ctxAmb >= 0 && ctxAmb < 0.5 {
		t.Fatalf("ambiguous-mention accuracy = %v, contextual reranker not working", ctxAmb)
	}
}

func TestPipelineIncremental(t *testing.T) {
	w := annWorld(t)
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 120, Seed: 47})
	a, err := New(w.Graph, Config{Mode: ModePopularity, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(a, 4)
	first := p.Run(docs)
	if first.Processed != 120 || first.Skipped != 0 {
		t.Fatalf("first pass = %+v", first)
	}
	for _, d := range docs {
		if _, ok := p.Result(d.ID); !ok {
			t.Fatalf("doc %s not cached", d.ID)
		}
	}
	// No changes: everything skipped.
	second := p.Run(docs)
	if second.Processed != 0 || second.Skipped != 120 {
		t.Fatalf("idle pass = %+v", second)
	}
	// Mutate ~20% and re-run: only changed docs processed.
	rng := rand.New(rand.NewSource(47))
	changed := webcorpus.Mutate(docs, 0.2, rng)
	third := p.Run(docs)
	if third.Processed != len(changed) {
		t.Fatalf("incremental pass processed %d, want %d changed", third.Processed, len(changed))
	}
	if third.Skipped != 120-len(changed) {
		t.Fatalf("incremental pass skipped %d", third.Skipped)
	}
	// Cached results carry the new version.
	for _, id := range changed {
		r, ok := p.Result(id)
		if !ok || r.Version != 2 {
			t.Fatalf("changed doc %s cached version = %v", id, r)
		}
	}
}

func TestLinkToGraph(t *testing.T) {
	w := annWorld(t)
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 60, Seed: 53})
	a, err := New(w.Graph, Config{Mode: ModeContextual, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(a, 4)
	stats := p.Run(docs)
	if stats.Mentions == 0 {
		t.Fatal("no mentions annotated")
	}
	before := w.Graph.NumTriples()
	added, err := p.LinkToGraph(w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("no web edges added")
	}
	if w.Graph.NumTriples() != before+added {
		t.Fatalf("triple count %d != before %d + added %d", w.Graph.NumTriples(), before, added)
	}
	// Doc entities exist with WebDocument type.
	pred, ok := w.Graph.PredicateByName("mentionedIn")
	if !ok {
		t.Fatal("mentionedIn predicate missing")
	}
	// The total mentionedIn edge count (people, teams, cities, ...) must
	// equal what LinkToGraph reported, and at least one person must be
	// linked.
	var linked, personLinked int
	w.Graph.TriplesSnapshot(func(tr kg.Triple) bool {
		if tr.Predicate == pred.ID {
			linked++
		}
		return true
	})
	for _, person := range w.People {
		personLinked += len(w.Graph.Facts(person, pred.ID))
	}
	if linked != added {
		t.Fatalf("entity->doc links = %d, want %d", linked, added)
	}
	if personLinked == 0 {
		t.Fatal("no person linked to any document")
	}
}

func TestAnnotationOffsetsRecoverable(t *testing.T) {
	w := annWorld(t)
	a, err := New(w.Graph, Config{Mode: ModeContextual, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 40, Seed: 59})
	for _, d := range docs {
		for _, ann := range a.Annotate(d.Text) {
			if got := d.Text[ann.Start:ann.End]; !strings.EqualFold(got, ann.Surface) {
				t.Fatalf("offsets broken: %q vs %q", got, ann.Surface)
			}
		}
	}
}

func TestAccentInsensitiveLinking(t *testing.T) {
	g := kg.NewGraph()
	beyonce, _ := g.AddEntity(kg.Entity{
		Key: "beyonce", Name: "Beyoncé",
		Aliases:     []string{"Beyoncé", "Beyoncé Knowles"},
		Description: "Beyoncé, American singer",
		Popularity:  0.95,
	})
	a, err := New(g, Config{Mode: ModePopularity, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Unaccented mention matches the accented alias.
	anns := a.Annotate("Fans cheered when Beyonce arrived.")
	if len(anns) != 1 || anns[0].Entity != beyonce {
		t.Fatalf("unaccented mention not linked: %v", anns)
	}
	// Accented mention also matches, with correct byte offsets.
	anns2 := a.Annotate("Beyoncé released a new album.")
	if len(anns2) != 1 || anns2[0].Entity != beyonce {
		t.Fatalf("accented mention not linked: %v", anns2)
	}
	if anns2[0].Surface != "Beyoncé" {
		t.Fatalf("surface = %q", anns2[0].Surface)
	}
}

func BenchmarkAnnotateDoc(b *testing.B) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 100, NumClusters: 8, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(w.Graph, Config{Mode: ModeContextual, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 50, Seed: 71})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Annotate(docs[i%len(docs)].Text)
	}
}
