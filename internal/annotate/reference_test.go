package annotate

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"saga/internal/kg"
	"saga/internal/textutil"
	"saga/internal/vecindex"
	"saga/internal/webcorpus"
	"saga/internal/workload"
)

// refAnnotator is the annotation path this package shipped until PR 18,
// kept as the differential reference: every mention's context is cut out
// of the text, concatenated and re-tokenized; the surface and the entity
// name are normalized once per candidate; cosines recompute both norms.
// It borrows the annotator's automaton and configuration and shares none
// of its caches (its own memo of token features only spares the test the
// cost of seeding a generator per token occurrence).
type refAnnotator struct {
	a       *Annotator
	feats   map[string]vecindex.Vector
	entVecs map[kg.EntityID]vecindex.Vector
}

func newRefAnnotator(a *Annotator) *refAnnotator {
	return &refAnnotator{a: a, feats: make(map[string]vecindex.Vector), entVecs: make(map[kg.EntityID]vecindex.Vector)}
}

func (r *refAnnotator) tokenFeature(token string) vecindex.Vector {
	if v, ok := r.feats[token]; ok {
		return v
	}
	h := fnv.New64a()
	h.Write([]byte(token))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ r.a.cfg.Seed))
	v := make(vecindex.Vector, embedDim)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	r.feats[token] = v
	return v
}

func (r *refAnnotator) textEmbedding(text string) vecindex.Vector {
	vec := make(vecindex.Vector, embedDim)
	for _, tok := range textutil.Tokenize(text) {
		f := r.tokenFeature(tok.Text)
		for i := range vec {
			vec[i] += f[i]
		}
	}
	return vecindex.Normalize(vec)
}

func (r *refAnnotator) entityVector(e *kg.Entity) vecindex.Vector {
	v, ok := r.entVecs[e.ID]
	if !ok {
		v = r.textEmbedding(e.Name + " " + e.Description)
		r.entVecs[e.ID] = v
	}
	return v
}

func (r *refAnnotator) annotate(text string) []Annotation {
	a := r.a
	tokens := textutil.Tokenize(text)
	if len(tokens) == 0 {
		return nil
	}
	words := make([]string, len(tokens))
	for i, t := range tokens {
		words[i] = t.Text
	}
	spans := resolveOverlaps(a.matcher.Match(words), len(tokens))
	var out []Annotation
	for _, m := range spans {
		startByte := tokens[m.Start].Start
		endByte := tokens[m.End-1].End
		surface := text[startByte:endByte]
		cands := r.rankCandidates(surface, a.patEnts[m.Pattern], text, startByte, endByte)
		if len(cands) == 0 {
			continue
		}
		best := cands[0]
		if best.Score < a.cfg.MinScore {
			continue
		}
		out = append(out, Annotation{Start: startByte, End: endByte, Surface: surface,
			Entity: best.Entity, Score: best.Score, Candidates: cands})
	}
	return out
}

func (r *refAnnotator) rankCandidates(surface string, ents []kg.EntityID, text string, startByte, endByte int) []Candidate {
	a := r.a
	if len(ents) == 0 {
		return nil
	}
	var ctxVec vecindex.Vector
	if a.cfg.Mode == ModeContextual {
		lo := startByte - a.cfg.ContextWindow
		if lo < 0 {
			lo = 0
		}
		hi := endByte + a.cfg.ContextWindow
		if hi > len(text) {
			hi = len(text)
		}
		ctxVec = r.textEmbedding(text[lo:startByte] + " " + text[endByte:hi])
	}
	out := make([]Candidate, 0, len(ents))
	for _, id := range ents {
		e := a.g.Entity(id)
		if e == nil {
			continue
		}
		score := textutil.JaroWinkler(textutil.NormalizePhrase(surface), textutil.NormalizePhrase(e.Name))
		switch a.cfg.Mode {
		case ModePopularity:
			score = 0.5*score + 0.5*e.Popularity
		case ModeContextual:
			ctx := float64(vecindex.Cosine(ctxVec, r.entityVector(e)))
			score = 0.25*score + 0.15*e.Popularity + 0.6*ctx
		}
		out = append(out, Candidate{Entity: id, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

// diffAnnotations describes the first difference between two annotation
// lists, or returns "". Scores may differ by 1e-12; everything else —
// offsets, surfaces, entity, the candidates and their order — must match.
func diffAnnotations(got, want []Annotation) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d annotations, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.End != w.End || g.Surface != w.Surface || g.Entity != w.Entity {
			return fmt.Sprintf("annotation %d: got [%d,%d) %q -> %d, want [%d,%d) %q -> %d",
				i, g.Start, g.End, g.Surface, g.Entity, w.Start, w.End, w.Surface, w.Entity)
		}
		if math.Abs(g.Score-w.Score) > 1e-12 {
			return fmt.Sprintf("annotation %d (%q): score %v, want %v", i, g.Surface, g.Score, w.Score)
		}
		if len(g.Candidates) != len(w.Candidates) {
			return fmt.Sprintf("annotation %d (%q): %d candidates, want %d", i, g.Surface, len(g.Candidates), len(w.Candidates))
		}
		for j := range g.Candidates {
			if g.Candidates[j].Entity != w.Candidates[j].Entity || math.Abs(g.Candidates[j].Score-w.Candidates[j].Score) > 1e-12 {
				return fmt.Sprintf("annotation %d (%q) candidate %d: got %v, want %v", i, g.Surface, j, g.Candidates[j], w.Candidates[j])
			}
		}
	}
	return ""
}

// accentedWorld is a synthetic world plus a few entities whose names and
// aliases carry diacritics and ligatures.
func accentedWorld(t testing.TB) *workload.World {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 400, NumClusters: 12, AmbiguousNamePairs: 30, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []kg.Entity{
		{Key: "beyonce", Name: "Beyoncé", Aliases: []string{"Beyoncé", "Beyoncé Knowles"}, Description: "Beyoncé, American singer", Popularity: 0.95},
		{Key: "beyonce-tribute", Name: "Beyonce", Aliases: []string{"Beyonce"}, Description: "a tribute act from Łódź", Popularity: 0.2},
		{Key: "jose", Name: "José Ñandú", Aliases: []string{"José Ñandú", "Jose Nandu"}, Description: "fútbol striker", Popularity: 0.5},
		{Key: "strasse", Name: "Große Straße", Aliases: []string{"Große Straße", "Grosse Strasse"}, Description: "a street in Köln", Popularity: 0.3},
		{Key: "aesir", Name: "Æsir Œuvre", Aliases: []string{"Æsir Œuvre"}, Description: "þe collected works", Popularity: 0.1},
	} {
		if _, err := w.Graph.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

var accentedTexts = []string{
	"Fans cheered when Beyonce arrived with José Ñandú.",
	"Beyoncé released a new album; BEYONCÉ KNOWLES toured Köln — on the Große Straße — with Jose Nandu.",
	"ÆSIR ŒUVRE, æsir œuvre and Grosse Strasse: naïve café déjà-vu, l'été, José-Ñandú?",
	"日本語のテキスト Beyoncé と José Ñandú の間に 漢字 があります。",
	"bad bytes \xff\xfe Beyonc\xc3 Beyoncé \xe2\x82 José Ñandú \xf0\x9f",
}

// TestAnnotateMatchesReferenceOnCorpus: identical annotations on a whole
// 2 000-document corpus (plus the accented fixtures) in all three modes.
func TestAnnotateMatchesReferenceOnCorpus(t *testing.T) {
	w := accentedWorld(t)
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 2000, Seed: 18})
	for _, mode := range []Mode{ModeLexical, ModePopularity, ModeContextual} {
		a, err := New(w.Graph, Config{Mode: mode, Seed: 18})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefAnnotator(a)
		texts, annotated := append([]string(nil), accentedTexts...), 0
		for _, d := range docs {
			texts = append(texts, d.Text)
		}
		for i, text := range texts {
			got, want := a.Annotate(text), ref.annotate(text)
			if d := diffAnnotations(got, want); d != "" {
				t.Fatalf("mode %s text %d %q: %s", mode, i, text, d)
			}
			annotated += len(got)
		}
		if annotated < len(docs) {
			t.Fatalf("mode %s: only %d annotations over %d documents", mode, annotated, len(docs))
		}
	}
}

// TestAnnotateMatchesReferenceOnLongDocuments: documents many times
// longer than the context window, with windows small and odd enough that
// their edges cut tokens, multi-byte runes and invalid bytes at every
// offset.
func TestAnnotateMatchesReferenceOnLongDocuments(t *testing.T) {
	w := accentedWorld(t)
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 40, Seed: 19})
	var long []string
	for i := 0; i+4 <= len(docs); i += 4 {
		long = append(long, strings.Join([]string{
			docs[i].Text, accentedTexts[i/4%len(accentedTexts)], docs[i+1].Text, "Ünïcödé—wörds…", docs[i+2].Text,
			accentedTexts[(i/4+2)%len(accentedTexts)], docs[i+3].Text}, " "))
	}
	for _, window := range []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 200} {
		a, err := New(w.Graph, Config{Mode: ModeContextual, ContextWindow: window, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefAnnotator(a)
		for i, text := range long {
			if len(text) <= 2*window {
				t.Fatalf("text %d is only %d bytes", i, len(text))
			}
			if d := diffAnnotations(a.Annotate(text), ref.annotate(text)); d != "" {
				t.Fatalf("window %d text %d: %s", window, i, d)
			}
		}
	}
}

// TestRenamedEntityIsRenormalized: the name snapshot taken at New is only
// a cache; an entity renamed afterwards is scored by its current name.
func TestRenamedEntityIsRenormalized(t *testing.T) {
	w := accentedWorld(t)
	a, err := New(w.Graph, Config{Mode: ModeLexical, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := w.Graph.EntityByKey("jose")
	if !ok {
		t.Fatal("fixture entity missing")
	}
	text := "Jose Nandu scored."
	before := a.Annotate(text)
	if !w.Graph.UpdateEntity(e.ID, func(e *kg.Entity) { e.Name = "Somebody Else Entirely" }) {
		t.Fatal("UpdateEntity found nothing")
	}
	after := a.Annotate(text)
	if len(before) != 1 || len(after) != 1 || after[0].Score >= before[0].Score {
		t.Fatalf("rename did not lower the lexical score: before %v, after %v", before, after)
	}
	if d := diffAnnotations(after, newRefAnnotator(a).annotate(text)); d != "" {
		t.Fatal(d)
	}
}

// TestFeatureCacheIsBounded: tokens that only requests bring are cached
// up to featCacheMax and no further, the build-time vocabulary stays
// resident, and answers for corpus text do not change once the cache has
// been flooded.
func TestFeatureCacheIsBounded(t *testing.T) {
	w := accentedWorld(t)
	a, err := New(w.Graph, Config{Mode: ModeContextual, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 30, Seed: 3})
	var before [][]Annotation
	for _, d := range docs {
		before = append(before, a.Annotate(d.Text))
	}
	vocab := len(a.vocab)
	name := w.Graph.Entity(w.People[0]).Name
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	for n := 0; n < 100000; {
		sb.Reset()
		sb.WriteString(name) // a mention, so the random words are somebody's context
		for i := 0; i < 25; i, n = i+1, n+1 {
			fmt.Fprintf(&sb, " w%x", rng.Uint64())
		}
		a.Annotate(sb.String())
		a.featMu.RLock()
		size := len(a.featCache)
		a.featMu.RUnlock()
		if size > featCacheMax {
			t.Fatalf("request-time feature cache holds %d entries, cap %d", size, featCacheMax)
		}
	}
	if len(a.vocab) != vocab {
		t.Fatalf("build-time vocabulary changed: %d -> %d", vocab, len(a.vocab))
	}
	for i, d := range docs {
		if diff := diffAnnotations(a.Annotate(d.Text), before[i]); diff != "" {
			t.Fatalf("doc %d after flooding the cache: %s", i, diff)
		}
	}
}
