package odke

import (
	"errors"
	"testing"
	"time"

	"saga/internal/annotate"
	"saga/internal/kg"
	"saga/internal/webcorpus"
	"saga/internal/websearch"
	"saga/internal/workload"
)

// odkeHarness plants known gaps: it generates a world, builds a corpus
// reflecting the complete KG, then deletes chosen facts from the graph.
// The deleted facts are the gold answers ODKE should recover.
type odkeHarness struct {
	w         *workload.World
	index     *websearch.Index
	annotator *annotate.Annotator
	pipeline  *Pipeline
	// gold maps slot -> deleted gold value.
	gold map[[2]uint64]kg.Value
	gaps []Gap
}

func newODKEHarness(t *testing.T, fuser Fuser, wrongInfobox float64) *odkeHarness {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 60, NumClusters: 6, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	docs := webcorpus.Generate(w, webcorpus.Config{
		NumDocs: 500, InfoboxFraction: 0.6, WrongInfoboxFraction: wrongInfobox,
		NoiseFraction: 0.1, Seed: 61,
	})
	index := websearch.NewIndex(docs)
	a, err := annotate.New(w.Graph, annotate.Config{Mode: annotate.ModeContextual, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}

	h := &odkeHarness{w: w, index: index, annotator: a, gold: make(map[[2]uint64]kg.Value)}

	// Delete memberOf, bornIn and dateOfBirth facts for every 4th person.
	for i := 0; i < len(w.People); i += 4 {
		p := w.People[i]
		for _, predName := range []string{"memberOf", "bornIn", "dateOfBirth"} {
			pred := w.Preds[predName]
			facts := w.Graph.Facts(p, pred)
			if len(facts) == 0 {
				continue
			}
			w.Graph.Retract(facts[0])
			h.gold[[2]uint64{uint64(p), uint64(pred)}] = facts[0].Object
			h.gaps = append(h.gaps, Gap{Subject: p, Predicate: pred, Kind: GapMissing, Priority: 1, Source: "test"})
		}
	}
	if len(h.gaps) == 0 {
		t.Fatal("no gaps planted")
	}

	resolver := NewEntityResolver(w.Graph)
	extractors := []Extractor{NewInfoboxExtractor(w.Graph, resolver), NewTextExtractor(w.Graph)}
	pl, err := NewPipeline(w.Graph, index, a, extractors, fuser)
	if err != nil {
		t.Fatal(err)
	}
	h.pipeline = pl
	return h
}

func (h *odkeHarness) slots() [][2]uint64 {
	out := make([][2]uint64, 0, len(h.gold))
	for k := range h.gold {
		out = append(out, k)
	}
	return out
}

func TestFindGapsFromQueryLog(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 40, NumClusters: 4, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	// Delete a spouse fact... spouse is sparse; instead delete dateOfBirth
	// for a person and synthesize an unanswered query for it.
	p := w.People[0]
	pred := w.Preds["dateOfBirth"]
	for _, f := range w.Graph.Facts(p, pred) {
		w.Graph.Retract(f)
	}
	log := []workload.QueryLogEntry{
		{Subject: p, Predicate: pred, Answered: false, Text: "when was x born"},
		{Subject: p, Predicate: pred, Answered: false, Text: "x birthday"},
		{Subject: w.People[1], Predicate: pred, Answered: true, Text: "y birthday"},
	}
	gaps := FindGaps(w.Graph, log, ProfilerConfig{CoverageThreshold: 0.99})
	var found bool
	for _, g := range gaps {
		if g.Subject == p && g.Predicate == pred {
			found = true
			if g.Source != "querylog" && g.Source != "profile" {
				t.Fatalf("gap source = %q", g.Source)
			}
		}
		if g.Subject == w.People[1] && g.Predicate == pred {
			t.Fatal("answered slot flagged as gap")
		}
	}
	if !found {
		t.Fatalf("unanswered slot not flagged; gaps = %v", gaps)
	}
}

func TestFindGapsFromProfiling(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 40, NumClusters: 4, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	// Everyone has memberOf; delete it for one person. Profiling should
	// notice without any query log.
	p := w.People[5]
	pred := w.Preds["memberOf"]
	for _, f := range w.Graph.Facts(p, pred) {
		w.Graph.Retract(f)
	}
	gaps := FindGaps(w.Graph, nil, ProfilerConfig{CoverageThreshold: 0.5})
	var found bool
	for _, g := range gaps {
		if g.Subject == p && g.Predicate == pred && g.Kind == GapMissing {
			found = true
		}
	}
	if !found {
		t.Fatalf("profiling missed deleted memberOf; gaps = %v", gaps)
	}
}

func TestFindGapsStaleness(t *testing.T) {
	g := kg.NewGraph()
	e, _ := g.AddEntity(kg.Entity{Key: "p", Name: "P", Popularity: 0.9})
	e2, _ := g.AddEntity(kg.Entity{Key: "q", Name: "Q"})
	pred, _ := g.AddPredicate(kg.Predicate{Name: "netWorth", ValueKind: kg.KindInt, Functional: true})
	now := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	old := kg.Triple{Subject: e, Predicate: pred, Object: kg.IntValue(100),
		Prov: kg.Provenance{ObservedAt: now.Add(-400 * 24 * time.Hour)}}
	fresh := kg.Triple{Subject: e2, Predicate: pred, Object: kg.IntValue(200),
		Prov: kg.Provenance{ObservedAt: now.Add(-10 * 24 * time.Hour)}}
	if err := g.Assert(old); err != nil {
		t.Fatal(err)
	}
	if err := g.Assert(fresh); err != nil {
		t.Fatal(err)
	}
	gaps := FindGaps(g, nil, ProfilerConfig{StaleAfter: 365 * 24 * time.Hour, Now: now, CoverageThreshold: 0.99})
	var staleFound bool
	for _, gp := range gaps {
		if gp.Subject == e && gp.Kind == GapStale {
			staleFound = true
		}
		if gp.Subject == e2 && gp.Kind == GapStale {
			t.Fatal("fresh fact flagged stale")
		}
	}
	if !staleFound {
		t.Fatalf("old functional fact not flagged; gaps = %v", gaps)
	}
}

func TestFindGapsMaxAndOrder(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 40, NumClusters: 4, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	pred := w.Preds["memberOf"]
	for _, p := range w.People[:10] {
		for _, f := range w.Graph.Facts(p, pred) {
			w.Graph.Retract(f)
		}
	}
	gaps := FindGaps(w.Graph, nil, ProfilerConfig{MaxGaps: 5})
	if len(gaps) != 5 {
		t.Fatalf("MaxGaps ignored: %d", len(gaps))
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i].Priority > gaps[i-1].Priority {
			t.Fatal("gaps not sorted by priority")
		}
	}
}

func TestSynthesizeQueries(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 10, NumClusters: 2, Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	p := w.People[0]
	name := w.Graph.Entity(p).Name
	qs := SynthesizeQueries(w.Graph, Gap{Subject: p, Predicate: w.Preds["dateOfBirth"]})
	if len(qs) < 3 {
		t.Fatalf("dob queries = %v", qs)
	}
	for _, q := range qs {
		if !containsFold(q, name) {
			t.Fatalf("query %q does not mention entity name %q", q, name)
		}
	}
	// Unknown gap components return nil.
	if qs := SynthesizeQueries(w.Graph, Gap{Subject: 1 << 30, Predicate: w.Preds["dateOfBirth"]}); qs != nil {
		t.Fatalf("unknown subject queries = %v", qs)
	}
}

func containsFold(haystack, needle string) bool {
	h := []byte(haystack)
	n := []byte(needle)
	lower := func(b byte) byte {
		if 'A' <= b && b <= 'Z' {
			return b + 32
		}
		return b
	}
outer:
	for i := 0; i+len(n) <= len(h); i++ {
		for j := range n {
			if lower(h[i+j]) != lower(n[j]) {
				continue outer
			}
		}
		return true
	}
	return false
}

func TestEntityResolver(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 20, NumClusters: 2, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	r := NewEntityResolver(w.Graph)
	teamName := w.Graph.Entity(w.Teams[0]).Name
	teamType, _ := w.Graph.Ontology().TypeID("Team")
	id, ok := r.Resolve(teamName, teamType)
	if !ok || id != w.Teams[0] {
		t.Fatalf("Resolve(%q) = %v,%v", teamName, id, ok)
	}
	// Wrong type fails.
	cityType, _ := w.Graph.Ontology().TypeID("City")
	if _, ok := r.Resolve(teamName, cityType); ok {
		t.Fatal("team resolved as city")
	}
	if _, ok := r.Resolve("no such entity name", kg.NoType); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestODKEPipelineFillsGaps(t *testing.T) {
	h := newODKEHarness(t, MajorityVoteFuser{}, 0)
	before := Coverage(h.w.Graph, h.slots())
	if before != 0 {
		t.Fatalf("pre-run coverage = %v, want 0 (facts deleted)", before)
	}
	rep, err := h.pipeline.Run(h.gaps)
	if err != nil {
		t.Fatal(err)
	}
	after := Coverage(h.w.Graph, h.slots())
	if after <= before {
		t.Fatalf("coverage did not improve: %v -> %v", before, after)
	}
	if rep.Filled == 0 || rep.FactsAdded == 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Measure correctness of filled slots against gold.
	var correct, filled int
	for _, out := range rep.Outcomes {
		if !out.Filled {
			continue
		}
		filled++
		gold := h.gold[[2]uint64{uint64(out.Gap.Subject), uint64(out.Gap.Predicate)}]
		if out.Fused.Value.Equal(gold) {
			correct++
		}
	}
	if filled == 0 {
		t.Fatal("nothing filled")
	}
	prec := float64(correct) / float64(filled)
	if prec < 0.7 {
		t.Fatalf("extraction precision = %v, want > 0.7", prec)
	}
}

// fuserPrecision runs the pipeline with the given fuser on corrupted
// infoboxes and returns (precision, filled).
func fuserPrecision(t *testing.T, fuser Fuser) (float64, int) {
	t.Helper()
	h := newODKEHarness(t, fuser, 0.5) // heavy corruption stresses veracity
	rep, err := h.pipeline.Run(h.gaps)
	if err != nil {
		t.Fatal(err)
	}
	var correct, filled int
	for _, out := range rep.Outcomes {
		if !out.Filled {
			continue
		}
		filled++
		gold := h.gold[[2]uint64{uint64(out.Gap.Subject), uint64(out.Gap.Predicate)}]
		if out.Fused.Value.Equal(gold) {
			correct++
		}
	}
	if filled == 0 {
		return 0, 0
	}
	return float64(correct) / float64(filled), filled
}

func TestFusionCorroborationBeatsBestExtractor(t *testing.T) {
	majority, nm := fuserPrecision(t, MajorityVoteFuser{})
	best, nb := fuserPrecision(t, BestExtractorFuser{})
	if nm == 0 || nb == 0 {
		t.Fatal("fusers filled nothing")
	}
	// Under corrupted high-confidence infoboxes, trusting the single most
	// confident extractor must not beat corroboration.
	if best > majority+0.05 {
		t.Fatalf("best-extractor (%v) beats majority corroboration (%v); veracity machinery broken", best, majority)
	}
}

func TestTrainedFuserQuality(t *testing.T) {
	// Train on one harness's candidates, evaluate on a fresh run.
	h := newODKEHarness(t, MajorityVoteFuser{}, 0.5)
	var examples []TrainingExample
	for _, gap := range h.gaps {
		cands, _, _ := h.pipeline.CollectCandidates(gap)
		gold := h.gold[[2]uint64{uint64(gap.Subject), uint64(gap.Predicate)}]
		for _, grp := range GroupCandidates(cands) {
			examples = append(examples, TrainingExample{
				Features: grp.Features(len(cands)),
				Correct:  grp.Value.Equal(gold),
			})
		}
	}
	if len(examples) < 10 {
		t.Fatalf("too few training examples: %d", len(examples))
	}
	fuser, err := TrainLogisticFuser(examples, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	prec, filled := fuserPrecision(t, fuser)
	if filled == 0 {
		t.Fatal("trained fuser filled nothing")
	}
	if prec < 0.7 {
		t.Fatalf("trained fuser precision = %v", prec)
	}
	bestPrec, _ := fuserPrecision(t, BestExtractorFuser{})
	if prec < bestPrec-0.05 {
		t.Fatalf("trained fuser (%v) worse than best-extractor baseline (%v)", prec, bestPrec)
	}
}

func TestTrainLogisticFuserErrors(t *testing.T) {
	if _, err := TrainLogisticFuser(nil, 10, 0.1); err == nil {
		t.Fatal("empty training set accepted")
	}
}

// TestFig6Scenario reproduces the paper's worked example: the missing
// date of birth of one "Michelle Williams" (the singer) must be resolved
// to 1979-07-23 even though a high-confidence source carries the actress's
// 1980-09-09 — corroboration across sources wins.
func TestFig6Scenario(t *testing.T) {
	g := kg.NewGraph()
	o := g.Ontology()
	thing, _ := o.AddType("Thing", kg.NoType)
	person, _ := o.AddType("Person", thing)
	singer, _ := g.AddEntity(kg.Entity{
		Key: "mw-singer", Name: "Michelle Williams",
		Aliases:     []string{"Michelle Williams"},
		Description: "Michelle Williams, American singer, member of Destiny's Child",
		Types:       []kg.TypeID{person}, Popularity: 0.6,
	})
	_, _ = g.AddEntity(kg.Entity{
		Key: "mw-actress", Name: "Michelle Williams",
		Aliases:     []string{"Michelle Williams"},
		Description: "Michelle Williams, American actress, Dawson's Creek",
		Types:       []kg.TypeID{person}, Popularity: 0.8,
	})
	dobPred, _ := g.AddPredicate(kg.Predicate{Name: "dateOfBirth", ValueKind: kg.KindTime, Functional: true})

	docs := []*webcorpus.Document{
		{
			ID: "d1", URL: "u1", Title: "Michelle Williams singer biography",
			Text:    "Michelle Williams the singer of Destiny's Child was born on July 23, 1979.",
			Quality: 0.8, Version: 1,
			Infobox:        map[string]string{"dateOfBirth": "1979-07-23"},
			InfoboxSubject: singer,
		},
		{
			ID: "d2", URL: "u2", Title: "Michelle Williams discography",
			Text:    "Singer Michelle Williams, born 1979, released several gospel albums.",
			Quality: 0.7, Version: 1,
			Infobox:        map[string]string{"dateOfBirth": "1979-07-23"},
			InfoboxSubject: singer,
		},
		{
			// A confused fan page attributing the actress's birthday to
			// the singer — the Fig 6 conflict.
			ID: "d3", URL: "u3", Title: "Michelle Williams facts",
			Text:    "Michelle Williams was born on September 9, 1980 in Kalispell.",
			Quality: 0.4, Version: 1,
			Infobox:        map[string]string{"dateOfBirth": "1980-09-09"},
			InfoboxSubject: singer,
		},
	}
	index := websearch.NewIndex(docs)
	a, err := annotate.New(g, annotate.Config{Mode: annotate.ModeContextual, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resolver := NewEntityResolver(g)
	pl, err := NewPipeline(g, index, a, []Extractor{NewInfoboxExtractor(g, resolver), NewTextExtractor(g)}, MajorityVoteFuser{})
	if err != nil {
		t.Fatal(err)
	}
	gap := Gap{Subject: singer, Predicate: dobPred, Kind: GapMissing, Priority: 1}
	rep, err := pl.Run([]Gap{gap})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Filled != 1 {
		t.Fatalf("report = %+v", rep)
	}
	facts := g.Facts(singer, dobPred)
	if len(facts) != 1 {
		t.Fatalf("dob facts = %v", facts)
	}
	want := time.Date(1979, 7, 23, 0, 0, 0, 0, time.UTC)
	if !facts[0].Object.TS.Equal(want) {
		t.Fatalf("fused dob = %v, want %v (the singer's, not the actress's)", facts[0].Object.TS, want)
	}
}

func TestStaleGapReplacesOldValue(t *testing.T) {
	h := newODKEHarness(t, MajorityVoteFuser{}, 0)
	// Pick a person whose memberOf is intact and mark it stale with a
	// deliberately wrong old value.
	p := h.w.People[1]
	pred := h.w.Preds["memberOf"]
	old := h.w.Graph.Facts(p, pred)
	if len(old) == 0 {
		t.Skip("person has no memberOf")
	}
	wrongTeam := h.w.Teams[(h.w.Cluster[p]+1)%len(h.w.Teams)]
	h.w.Graph.Retract(old[0])
	stale := kg.Triple{Subject: p, Predicate: pred, Object: kg.EntityValue(wrongTeam),
		Prov: kg.Provenance{ObservedAt: time.Now().Add(-1000 * time.Hour)}}
	if err := h.w.Graph.Assert(stale); err != nil {
		t.Fatal(err)
	}
	rep, err := h.pipeline.Run([]Gap{{Subject: p, Predicate: pred, Kind: GapStale, Priority: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Filled != 1 {
		t.Skipf("stale gap not filled (no evidence in corpus): %+v", rep)
	}
	facts := h.w.Graph.Facts(p, pred)
	if len(facts) != 1 {
		t.Fatalf("facts after stale replacement = %v", facts)
	}
	if facts[0].Object.Entity == wrongTeam {
		t.Fatal("stale value survived")
	}
	if facts[0].Object.Entity != h.w.Teams[h.w.Cluster[p]] {
		t.Fatalf("replaced with %v, want cluster team", facts[0].Object.Entity)
	}
}

func TestGroupCandidatesAndFeatures(t *testing.T) {
	team := kg.EntityValue(7)
	other := kg.EntityValue(9)
	cands := []CandidateFact{
		{Value: team, Extractor: "infobox", Confidence: 0.9, DocID: "a", DocQuality: 0.8},
		{Value: team, Extractor: "text", Confidence: 0.5, DocID: "b", DocQuality: 0.6},
		{Value: other, Extractor: "text", Confidence: 0.4, DocID: "c", DocQuality: 0.2},
	}
	groups := GroupCandidates(cands)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if !groups[0].Value.Equal(team) {
		t.Fatal("groups not sorted by support")
	}
	f := groups[0].Features(3)
	if f.Support != 2 || f.MaxConfidence != 0.9 || f.HasInfobox != 1 || f.HasText != 1 {
		t.Fatalf("features = %+v", f)
	}
	if f.AgreementRatio < 0.66 || f.AgreementRatio > 0.67 {
		t.Fatalf("agreement = %v", f.AgreementRatio)
	}
	// Empty input.
	if _, ok := Fuse(MajorityVoteFuser{}, nil); ok {
		t.Fatal("Fuse on empty candidates succeeded")
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(nil, nil, nil, nil, nil); err == nil {
		t.Fatal("nil components accepted")
	}
}

func TestRunDurabilityBarrier(t *testing.T) {
	h := newODKEHarness(t, MajorityVoteFuser{}, 0)
	var barrierWM uint64
	var calls int
	h.pipeline.DurabilityBarrier = func(wm uint64) error {
		calls++
		barrierWM = wm
		return nil
	}
	if _, err := h.pipeline.Run(h.gaps); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("barrier invoked %d times, want 1", calls)
	}
	// The barrier fires after the final flush: the watermark it sees is
	// the graph's watermark at Run's return.
	if got := h.w.Graph.LastSeq(); barrierWM != got {
		t.Fatalf("barrier saw watermark %d, graph is at %d", barrierWM, got)
	}

	// A failing barrier fails the run.
	h.pipeline.DurabilityBarrier = func(uint64) error {
		return errBarrier
	}
	if _, err := h.pipeline.Run(h.gaps); err == nil {
		t.Fatal("barrier error did not fail the run")
	}
}

var errBarrier = errors.New("sync failed")

// The infobox extractor parses any 2006-01-02 date, but the graph carries
// a time as UnixNano, which wraps outside 1677-2262: a date of birth of
// 1452-04-15 would come back as 2036-11-02. Such a date is refused like
// an unparseable one; an ordinary one still parses.
func TestInfoboxRefusesDatesTheGraphCannotHold(t *testing.T) {
	g := kg.NewGraph()
	subj, err := g.AddEntity(kg.Entity{Key: "leonardo", Name: "Leonardo"})
	if err != nil {
		t.Fatal(err)
	}
	dob, err := g.AddPredicate(kg.Predicate{Name: "dateOfBirth", ValueKind: kg.KindTime, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	x := NewInfoboxExtractor(g, NewEntityResolver(g))
	gap := Gap{Subject: subj, Predicate: dob}
	extract := func(date string) []CandidateFact {
		doc := &webcorpus.Document{ID: "d", Infobox: map[string]string{"dateOfBirth": date}, InfoboxSubject: subj}
		return x.Extract(doc, nil, gap)
	}
	if got := extract("1452-04-15"); len(got) != 0 {
		t.Fatalf("extracted %v from a date outside the graph's range", got[0].Value.TS)
	}
	got := extract("1985-06-01")
	if len(got) != 1 || !got[0].Value.TS.Equal(time.Date(1985, 6, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("extracted %v from 1985-06-01", got)
	}
}
