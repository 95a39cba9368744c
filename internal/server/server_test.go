package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"saga/internal/kg"
	"saga/saga"
)

func testServer(t testing.TB) (*Server, *saga.World) {
	t.Helper()
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 40, NumClusters: 4, OccupationsPerPerson: 2, Seed: 211})
	if err != nil {
		t.Fatal(err)
	}
	p := saga.New(w.Graph)
	if err := p.TrainEmbeddings(saga.EmbeddingOptions{
		Train: saga.TrainConfig{Model: saga.DistMult, Dim: 16, Epochs: 15, Workers: 2, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.BuildAnnotator(saga.AnnotateConfig{Mode: saga.ModeContextual, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// Calibrate verifier roughly.
	occ := w.Preds["occupation"]
	var pos, neg [][3]uint32
	for _, person := range w.People[:15] {
		for _, f := range w.Graph.Facts(person, occ) {
			pos = append(pos, [3]uint32{uint32(person), uint32(occ), uint32(f.Object.Entity)})
		}
		neg = append(neg, [3]uint32{uint32(person), uint32(occ), uint32(w.People[(int(person)+3)%len(w.People)])})
	}
	if err := p.CalibrateVerifier(pos, neg); err != nil {
		t.Fatal(err)
	}
	docs := saga.GenerateCorpus(w, saga.CorpusConfig{NumDocs: 80, Seed: 211})
	srv, err := New(p, saga.NewSearchIndex(docs))
	if err != nil {
		t.Fatal(err)
	}
	return srv, w
}

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, decoded
}

func TestNewRequiresPlatform(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil platform accepted")
	}
}

func TestHealth(t *testing.T) {
	srv, _ := testServer(t)
	rec, body := do(t, srv.Handler(), "GET", "/health", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["status"] != "ok" || body["triples"].(float64) == 0 {
		t.Fatalf("health = %v", body)
	}
}

func TestEntityEndpoint(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	key := w.Graph.Entity(w.People[0]).Key
	rec, body := do(t, h, "GET", "/entity?key="+key, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, body)
	}
	if body["key"] != key || body["name"] == "" {
		t.Fatalf("entity = %v", body)
	}
	if facts, ok := body["facts"].([]any); !ok || len(facts) == 0 {
		t.Fatalf("entity facts = %v", body["facts"])
	}
	// By numeric ID.
	rec, _ = do(t, h, "GET", "/entity?id=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("by-id status = %d", rec.Code)
	}
	// Errors.
	for _, path := range []string{"/entity", "/entity?key=nope", "/entity?id=abc", "/entity?id=999999"} {
		rec, _ := do(t, h, "GET", path, "")
		if rec.Code == http.StatusOK {
			t.Fatalf("%s unexpectedly OK", path)
		}
	}
}

// GET /entity lists a subject's facts in the graph's order for them, by
// predicate ID and then object key: two calls answer the same bytes, and
// so does a graph holding the same facts asserted in another order.
func TestEntityBodyIsDeterministic(t *testing.T) {
	build := func(order []int) http.Handler {
		g := kg.NewGraph()
		var ids []kg.EntityID
		for _, key := range []string{"ada", "babbage", "lovelace", "turing"} {
			id, err := g.AddEntity(kg.Entity{Key: key, Name: strings.ToUpper(key)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		var preds []kg.PredicateID
		for _, name := range []string{"knows", "bornIn", "field", "year", "award"} {
			p, err := g.AddPredicate(kg.Predicate{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, p)
		}
		for _, x := range order {
			obj := kg.EntityValue(ids[1+x%3])
			if x%2 == 1 {
				obj = kg.IntValue(int64(1800 + x))
			}
			if err := g.Assert(kg.Triple{Subject: ids[0], Predicate: preds[x%5], Object: obj}); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := New(saga.New(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}
	forward := make([]int, 15)
	for i := range forward {
		forward[i] = i
	}
	get := func(h http.Handler) string {
		rec, _ := do(t, h, "GET", "/entity?key=ada", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		return rec.Body.String()
	}
	h := build(forward)
	want := get(h)
	if got := get(h); got != want {
		t.Fatalf("second call answered\n%s\nfirst\n%s", got, want)
	}
	other := build([]int{14, 3, 9, 0, 12, 6, 1, 11, 4, 8, 13, 2, 7, 10, 5})
	if got := get(other); got != want {
		t.Fatalf("same facts in another insertion order answered\n%s\nwant\n%s", got, want)
	}
}

func TestAnnotateEndpoint(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	name := w.Graph.Entity(w.People[0]).Name
	rec, body := do(t, h, "POST", "/annotate", `{"text":"`+name+` played well last night."}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, body)
	}
	anns := body["annotations"].([]any)
	if len(anns) == 0 {
		t.Fatal("no annotations")
	}
	first := anns[0].(map[string]any)
	if first["surface"] == "" || first["key"] == "" {
		t.Fatalf("annotation shape = %v", first)
	}
	// Bad requests.
	rec, _ = do(t, h, "POST", "/annotate", `{"text":""}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty text status = %d", rec.Code)
	}
	rec, _ = do(t, h, "POST", "/annotate", `{bad json`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", rec.Code)
	}
}

func TestRankEndpoint(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	key := w.Graph.Entity(w.People[0]).Key
	rec, body := do(t, h, "GET", "/rank?subject="+key+"&predicate=occupation", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, body)
	}
	rows := body["ranked"].([]any)
	if len(rows) != 2 {
		t.Fatalf("ranked rows = %v", rows)
	}
	r0 := rows[0].(map[string]any)
	r1 := rows[1].(map[string]any)
	if r0["score"].(float64) < r1["score"].(float64) {
		t.Fatal("rank order wrong")
	}
	rec, _ = do(t, h, "GET", "/rank?subject=nope&predicate=occupation", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown subject status = %d", rec.Code)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	g := w.Graph
	subjKey := g.Entity(w.People[0]).Key
	goldKey := g.Entity(w.OccupationGold[w.People[0]][0]).Key
	rec, body := do(t, h, "GET", "/verify?subject="+subjKey+"&predicate=occupation&object="+goldKey, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, body)
	}
	if body["Plausible"] != true {
		t.Fatalf("gold fact verification = %v", body)
	}
}

func TestRelatedEndpoint(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	key := w.Graph.Entity(w.People[0]).Key
	rec, body := do(t, h, "GET", "/related?key="+key+"&k=5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, body)
	}
	rows := body["related"].([]any)
	if len(rows) != 5 {
		t.Fatalf("related rows = %d", len(rows))
	}
	rec, _ = do(t, h, "GET", "/related?key="+key+"&k=0", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("k=0 status = %d", rec.Code)
	}
}

// A k that is not a number in range is a 400 on both kNN routes, never a
// silent fall-back to the default.
func TestBadKIsRejected(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	key := w.Graph.Entity(w.People[0]).Key
	for _, route := range []struct {
		path string
		max  int
	}{{"/related?key=" + key, 1000}, {"/search?q=award", 100}} {
		for _, k := range []string{"abc", "0", "-1", "1.5", strconv.Itoa(route.max + 1), "99999999999999999999"} {
			rec, body := do(t, h, "GET", route.path+"&k="+k, "")
			if rec.Code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body["error"]), "bad k") {
				t.Fatalf("%s&k=%s: status %d body %v, want 400 bad k", route.path, k, rec.Code, body)
			}
		}
		for _, k := range []string{"1", strconv.Itoa(route.max)} {
			if rec, body := do(t, h, "GET", route.path+"&k="+k, ""); rec.Code != http.StatusOK {
				t.Fatalf("%s&k=%s: status %d body %v", route.path, k, rec.Code, body)
			}
		}
	}
}

// Every read route answers with a Content-Length and one complete body,
// trailing newline included — also /search and /entity bodies over
// net/http's 2 KB write buffer, which used to leave chunked. Checked over
// a real connection: chunking is the transport's decision, not the
// recorder's.
func TestReadRoutesSendContentLength(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	e := w.Graph.Entity(w.People[0])
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	annotate, err := http.Post(ts.URL+"/annotate", "application/json", strings.NewReader(`{"text":`+strconv.Quote(e.Name+" won an award.")+`}`))
	if err != nil {
		t.Fatal(err)
	}
	for name, resp := range map[string]*http.Response{
		"/entity":   get("/entity?key=" + e.Key),
		"/related":  get("/related?key=" + e.Key + "&k=10"),
		"/search":   get("/search?q=award+the+match&k=100"),
		"/annotate": annotate,
		"400":       get("/search?q=x&k=abc"),
	} {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v, body %d bytes", name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if !json.Valid(body) || body[len(body)-1] != '\n' {
			t.Fatalf("%s: body is not one JSON document and a newline: %q", name, body)
		}
		if name == "/search" && len(body) <= 2048 {
			t.Fatalf("/search body is only %d bytes; the test needs one over net/http's 2 KB buffer", len(body))
		}
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	name := w.Graph.Entity(w.People[0]).Name
	rec, body := do(t, h, "GET", "/search?q="+strings.ReplaceAll(name, " ", "+"), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, body)
	}
	if _, ok := body["hits"].([]any); !ok {
		t.Fatalf("hits shape = %v", body)
	}
	rec, _ = do(t, h, "GET", "/search?q=", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty query status = %d", rec.Code)
	}
	rec, body = do(t, h, "GET", "/search?q=award&k=3", "")
	if hits, _ := body["hits"].([]any); rec.Code != http.StatusOK || len(hits) != 3 {
		t.Fatalf("k=3: status %d body %v", rec.Code, body)
	}
	// No index configured.
	srv2 := &Server{Platform: srv.Platform}
	rec2, _ := do(t, srv2.Handler(), "GET", "/search?q=x", "")
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("missing index status = %d", rec2.Code)
	}
}

// End-to-end adversarial-literal coverage for /query: string objects
// containing the old binding-render separators ('=', ';', "s:" prefixes,
// empty strings) must each produce a distinct binding — 2×2 literal
// combinations means count 4, where the rendered-string dedup collapsed
// one pair.
func TestQueryEndpointAdversarialLiterals(t *testing.T) {
	g := kg.NewGraph()
	subj, err := g.AddEntity(kg.Entity{Key: "s", Name: "S"})
	if err != nil {
		t.Fatal(err)
	}
	pPred, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	qPred, _ := g.AddPredicate(kg.Predicate{Name: "q"})
	for _, v := range []string{"a;y=s:b", "a"} {
		if err := g.Assert(kg.Triple{Subject: subj, Predicate: pPred, Object: kg.StringValue(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []string{"", "b;y=s:"} {
		if err := g.Assert(kg.Triple{Subject: subj, Predicate: qPred, Object: kg.StringValue(v)}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(saga.New(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"clauses":[
		{"subject":{"key":"s"},"predicate":"p","object":{"var":"x"}},
		{"subject":{"key":"s"},"predicate":"q","object":{"var":"y"}}]}`
	rec, resp := do(t, srv.Handler(), "POST", "/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, resp)
	}
	if count := int(resp["count"].(float64)); count != 4 {
		t.Fatalf("adversarial-literal bindings = %d, want 4 (distinct literal pairs)", count)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv, w := testServer(t)
	h := srv.Handler()
	g := w.Graph
	teamKey := g.Entity(w.Teams[0]).Key
	body := `{"clauses":[{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"` + teamKey + `"}}]}`
	rec, resp := do(t, h, "POST", "/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, resp)
	}
	count := int(resp["count"].(float64))
	if count != len(w.ClusterMembers[0]) {
		t.Fatalf("bindings = %d, want %d team members", count, len(w.ClusterMembers[0]))
	}
	bindings := resp["bindings"].([]any)
	first := bindings[0].(map[string]any)
	p, ok := first["p"].(map[string]any)
	if !ok || p["key"] == "" || p["name"] == "" {
		t.Fatalf("entity binding shape = %v", first)
	}

	// Join: team members who also hold the cluster award.
	awardKey := g.Entity(w.Awards[0]).Key
	joinBody := `{"clauses":[
		{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"` + teamKey + `"}},
		{"subject":{"var":"p"},"predicate":"award","object":{"key":"` + awardKey + `"}}]}`
	rec, resp = do(t, h, "POST", "/query", joinBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("join status = %d", rec.Code)
	}
	if int(resp["count"].(float64)) > count {
		t.Fatal("join produced more results than single clause")
	}

	// Errors.
	for _, bad := range []string{
		`{"clauses":[]}`,
		`{"clauses":[{"subject":{"var":"p"},"predicate":"nope","object":{"key":"` + teamKey + `"}}]}`,
		`{"clauses":[{"subject":{},"predicate":"memberOf","object":{"key":"` + teamKey + `"}}]}`,
		`{"clauses":[{"subject":{"var":"p","key":"x"},"predicate":"memberOf","object":{"key":"` + teamKey + `"}}]}`,
		`{"clauses":[{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"no-such-key"}}]}`,
		`{bad`,
	} {
		rec, _ := do(t, h, "POST", "/query", bad)
		if rec.Code == http.StatusOK {
			t.Fatalf("bad query %q unexpectedly OK", bad)
		}
	}
}
