package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"saga/internal/embedserve"
	"saga/internal/kg"
	"saga/internal/webcorpus"
	"saga/internal/websearch"
	"saga/saga"
)

// The hand encoders of /entity, /related, /search, /annotate and /rank
// replaced structs pushed through writeJSON. Their contract is the bytes
// and status writeJSON produced from those structs, so the shapes below
// ARE the old code, kept as the oracle.

type entityResponse struct {
	ID          uint32   `json:"id"`
	Key         string   `json:"key"`
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description,omitempty"`
	Popularity  float64  `json:"popularity"`
	Types       []string `json:"types,omitempty"`
	Facts       []string `json:"facts,omitempty"`
}

// referenceEntity is the deleted entityJSON.
func referenceEntity(g *saga.Graph, e *kg.Entity) entityResponse {
	resp := entityResponse{
		ID: uint32(e.ID), Key: e.Key, Name: e.Name,
		Aliases: e.Aliases, Description: e.Description, Popularity: e.Popularity,
	}
	for _, t := range e.Types {
		resp.Types = append(resp.Types, g.Ontology().Name(t))
	}
	g.OutgoingFunc(e.ID, func(tr kg.Triple) bool {
		p := g.Predicate(tr.Predicate)
		if p == nil {
			return true
		}
		obj := tr.Object.String()
		if tr.Object.IsEntity() {
			if oe := g.Entity(tr.Object.Entity); oe != nil {
				obj = oe.Name
			}
		}
		resp.Facts = append(resp.Facts, p.Name+" = "+obj)
		return true
	})
	return resp
}

type annotationJSON struct {
	Start   int     `json:"start"`
	End     int     `json:"end"`
	Surface string  `json:"surface"`
	Entity  uint32  `json:"entity"`
	Key     string  `json:"key"`
	Name    string  `json:"name"`
	Score   float64 `json:"score"`
}

type rankRow struct {
	Object string  `json:"object"`
	Score  float64 `json:"score"`
}

type relatedRow struct {
	Key   string  `json:"key"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

type hitRow struct {
	ID    string  `json:"id"`
	URL   string  `json:"url"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
}

// sameAnswer checks that render sends what writeJSON sends for ref:
// status (200, or 500 for a float JSON cannot carry) and body bytes.
func sameAnswer(t *testing.T, what string, render func(*jsonBuf), ref any) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	j := getJSONBuf()
	render(j)
	j.send(got, http.StatusOK)
	j.free()
	writeJSON(want, http.StatusOK, ref)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s:\n got %d %s\nwant %d %s", what, got.Code, got.Body, want.Code, want.Body)
	}
}

// adversarialFloats are the scores and popularities whose JSON form
// needs care: signed zero, both sides of the 1e-6 and 1e21 switches to
// exponent form, exponents that lose a leading zero, the extremes, and
// the three values JSON cannot carry at all.
var adversarialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 123456789.125,
	1e-6, 9.99e-7, 1e-7, -2.5e-7, 1e-9, 1e-10, 1e20, 1e21, -1e21, 1.5e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// renderAll runs each hand encoder on values built from s, x and n and
// checks it against the reflective oracle. g must hold entities known
// (an entity whose key and name derive from s) and none at unknown.
func renderAll(t *testing.T, g *saga.Graph, known, unknown kg.EntityID, s string, x float64, n int) {
	t.Helper()
	ke := g.Entity(known)
	e := &kg.Entity{ID: known, Key: s, Name: s + "!", Aliases: []string{s, "", "<" + s}, Description: s, Popularity: x}
	empty := &kg.Entity{ID: unknown, Key: s, Aliases: []string{}, Types: []kg.TypeID{}, Popularity: -x}
	for _, ent := range []*kg.Entity{e, empty, ke} {
		sameAnswer(t, fmt.Sprintf("entity %+v", ent), func(j *jsonBuf) { appendEntity(j, g, ent) }, referenceEntity(g, ent))
	}

	rel := []embedserve.ScoredEntity{{ID: known, Score: x}, {ID: unknown, Score: -x}, {ID: known, Score: 1}}
	relRef := []relatedRow{{ke.Key, ke.Name, x}, {"", "", -x}, {ke.Key, ke.Name, 1}}
	sameAnswer(t, "related", func(j *jsonBuf) { appendRelated(j, g, rel) }, map[string]any{"related": relRef})
	sameAnswer(t, "related, none", func(j *jsonBuf) { appendRelated(j, g, nil) }, map[string]any{"related": []relatedRow{}})

	doc := &webcorpus.Document{ID: s, URL: "https://x/" + s, Title: s}
	hits := []websearch.Hit{{Doc: doc, Score: x}, {Doc: doc, Score: 2}}
	sameAnswer(t, "hits", func(j *jsonBuf) { appendHits(j, hits) },
		map[string]any{"hits": []hitRow{{s, doc.URL, s, x}, {s, doc.URL, s, 2}}})

	anns := []saga.Annotation{{Start: n, End: -n, Surface: s, Entity: known, Score: x}, {Surface: s, Entity: unknown, Score: 0.5}}
	sameAnswer(t, "annotations", func(j *jsonBuf) { appendAnnotations(j, g, anns) }, map[string]any{"annotations": []annotationJSON{
		{n, -n, s, uint32(known), ke.Key, ke.Name, x}, {0, 0, s, uint32(unknown), "", "", 0.5},
	}})

	ranked := []saga.RankedFact{
		{Triple: kg.Triple{Object: kg.StringValue(s)}, Score: x},
		{Triple: kg.Triple{Object: kg.EntityValue(known)}, Score: 0.25},
		{Triple: kg.Triple{Object: kg.EntityValue(unknown)}, Score: -x},
		{Triple: kg.Triple{Object: kg.FloatValue(x)}, Score: 1},
	}
	sameAnswer(t, "ranked", func(j *jsonBuf) { appendRanked(j, g, ranked) }, map[string]any{"ranked": []rankRow{
		{kg.StringValue(s).String(), x}, {ke.Name, 0.25}, {kg.EntityValue(unknown).String(), -x}, {kg.FloatValue(x).String(), 1},
	}})
}

// Every adversarial string and float through every hand encoder: the
// bytes writeJSON produced from the old structs, and the same 500 for
// NaN and ±Inf.
func TestResponseEncodersMatchReflectiveEncoder(t *testing.T) {
	g, ids := adversarialGraph(t)
	for i, s := range adversarialStrings {
		for k, x := range adversarialFloats {
			renderAll(t, g, ids[(i+k)%len(ids)], kg.EntityID(1<<30), s, x, i*k-7)
		}
	}
	// The 500 is the one writeJSON answered, word for word.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		j := getJSONBuf()
		appendRelated(j, g, []embedserve.ScoredEntity{{ID: ids[0], Score: 1}, {ID: ids[1], Score: x}, {ID: ids[2], Score: math.NaN()}})
		j.send(rec, http.StatusOK)
		j.free()
		want := fmt.Sprintf(`{"error":"encode response: json: unsupported value: %s"}`+"\n", kg.FloatValue(x).String())
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
			t.Errorf("score %v: %d %q, want 500 %q", x, rec.Code, rec.Body, want)
		}
	}
}

// FuzzEncodeResponses holds the hand encoders of /entity, /related,
// /search, /annotate and /rank to the reflective oracle on whatever
// string, float and int the fuzzer finds (seed corpus:
// testdata/fuzz/FuzzEncodeResponses).
func FuzzEncodeResponses(f *testing.F) {
	for i, s := range adversarialStrings {
		f.Add(s, adversarialFloats[i%len(adversarialFloats)], i)
	}
	for _, x := range adversarialFloats {
		f.Add("<&>\u2028\xff", x, -1)
	}
	g, ids := adversarialGraph(f)
	f.Fuzz(func(t *testing.T, s string, x float64, n int) {
		renderAll(t, g, ids[uint(n)%uint(len(ids))], kg.EntityID(1<<30), s, x, n)
	})
}

// Every entity of a generated world, and of the adversarial graph with
// facts under adversarial predicate names and literals, answers GET
// /entity with the bytes the reflective encoder wrote for it.
func TestEntityBodyMatchesReflectiveEncoder(t *testing.T) {
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	adv, ids := adversarialGraph(t)
	for i, s := range adversarialStrings {
		p, err := adv.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d %s", i, s)})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range adversarialValues(ids) {
			if v.Kind == 0 || (v.IsEntity() && adv.Entity(v.Entity) == nil) {
				continue
			}
			if err := adv.Assert(kg.Triple{Subject: ids[(i+k)%len(ids)], Predicate: p, Object: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, g := range []*saga.Graph{w.Graph, adv} {
		srv, err := New(saga.New(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		checked := 0
		for id := kg.EntityID(0); int(id) <= g.NumEntities(); id++ {
			e := g.Entity(id)
			if e == nil {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/entity?id=%d", id), nil))
			want := referenceJSON(t, referenceEntity(g, e))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("entity %d: %d\n got %s\nwant %s", id, rec.Code, rec.Body, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
				t.Fatalf("entity %d: Content-Length %q, body is %d bytes", id, cl, len(want))
			}
			checked++
		}
		if checked != g.NumEntities() {
			t.Fatalf("checked %d of %d entities", checked, g.NumEntities())
		}
	}
}
