package server

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"saga/internal/kg"
	"saga/internal/wal"
	"saga/saga"
)

// ingestServer builds a server over an untrained platform: /ingest,
// /query, and /health need no embeddings.
func ingestServer(t *testing.T) (*Server, *saga.World) {
	t.Helper()
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 30, NumClusters: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(saga.New(w.Graph), nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv, w
}

func TestIngestEndpoint(t *testing.T) {
	srv, w := ingestServer(t)
	h := srv.Handler()
	g := w.Graph
	a := g.Entity(w.People[0]).Key
	b := g.Entity(w.People[1]).Key
	before := g.NumTriples()

	body := `{"asserts":[{"subject":"` + a + `","predicate":"collaborator","object":{"key":"` + b + `"}}]}`
	rec, resp := do(t, h, "POST", "/ingest", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, resp)
	}
	if resp["added"].(float64) != 1 || resp["watermark"].(float64) == 0 {
		t.Fatalf("ingest response = %v", resp)
	}
	if g.NumTriples() != before+1 {
		t.Fatalf("triples = %d, want %d", g.NumTriples(), before+1)
	}
	// Re-asserting dedups.
	rec, resp = do(t, h, "POST", "/ingest", body)
	if rec.Code != http.StatusOK || resp["added"].(float64) != 0 {
		t.Fatalf("re-assert = %d %v", rec.Code, resp)
	}
	// The new fact answers through /query.
	qbody := `{"clauses":[{"subject":{"key":"` + a + `"},"predicate":"collaborator","object":{"var":"x"}}]}`
	rec, resp = do(t, h, "POST", "/query", qbody)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status = %d", rec.Code)
	}
	if resp["count"].(float64) < 1 {
		t.Fatalf("asserted fact not queryable: %v", resp)
	}
	// Retract removes it; retracting again is a no-op.
	rbody := `{"retracts":[{"subject":"` + a + `","predicate":"collaborator","object":{"key":"` + b + `"}}]}`
	rec, resp = do(t, h, "POST", "/ingest", rbody)
	if rec.Code != http.StatusOK || resp["retracted"].(float64) != 1 {
		t.Fatalf("retract = %d %v", rec.Code, resp)
	}
	rec, resp = do(t, h, "POST", "/ingest", rbody)
	if rec.Code != http.StatusOK || resp["retracted"].(float64) != 0 {
		t.Fatalf("re-retract = %d %v", rec.Code, resp)
	}
	if g.NumTriples() != before {
		t.Fatalf("triples after retract = %d, want %d", g.NumTriples(), before)
	}

	// Literal objects work too.
	lit := `{"asserts":[{"subject":"` + a + `","predicate":"followers","object":{"int":42}}]}`
	rec, resp = do(t, h, "POST", "/ingest", lit)
	if rec.Code != http.StatusOK || resp["added"].(float64) != 1 {
		t.Fatalf("literal assert = %d %v", rec.Code, resp)
	}

	// Errors: empty batch, unknown subject/predicate, variable object,
	// malformed JSON, partial-batch rejection (bad triple second).
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{}`, http.StatusBadRequest},
		{`{"asserts":[{"subject":"nope","predicate":"collaborator","object":{"key":"` + b + `"}}]}`, http.StatusNotFound},
		{`{"asserts":[{"subject":"` + a + `","predicate":"nope","object":{"key":"` + b + `"}}]}`, http.StatusNotFound},
		{`{"asserts":[{"subject":"` + a + `","predicate":"collaborator","object":{"var":"x"}}]}`, http.StatusBadRequest},
		{`{bad`, http.StatusBadRequest},
	} {
		rec, _ := do(t, h, "POST", "/ingest", tc.body)
		if rec.Code != tc.code {
			t.Fatalf("ingest %q status = %d, want %d", tc.body, rec.Code, tc.code)
		}
	}
	// A bad triple anywhere rejects the whole batch: nothing applied.
	mid := g.NumTriples()
	mixed := `{"asserts":[
		{"subject":"` + a + `","predicate":"collaborator","object":{"key":"` + b + `"}},
		{"subject":"nope","predicate":"collaborator","object":{"key":"` + b + `"}}]}`
	rec, _ = do(t, h, "POST", "/ingest", mixed)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("mixed batch status = %d", rec.Code)
	}
	if g.NumTriples() != mid {
		t.Fatalf("partial batch applied: triples %d -> %d", mid, g.NumTriples())
	}
	// Oversized body answers 413.
	big := `{"asserts":[{"subject":"` + strings.Repeat("x", maxQueryBodyBytes) + `"}]}`
	rec, _ = do(t, h, "POST", "/ingest", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %d", rec.Code)
	}
	// Batches past the op cap answer 400.
	var sb strings.Builder
	sb.WriteString(`{"retracts":[`)
	for i := 0; i <= maxIngestOps; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"subject":"` + a + `","predicate":"collaborator","object":{"key":"` + b + `"}}`)
	}
	sb.WriteString(`]}`)
	rec, _ = do(t, h, "POST", "/ingest", sb.String())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d", rec.Code)
	}
}

// TestIngestDurableWatermark pins the durable contract: the response
// watermark is the fsync-acknowledged LSN covering the batch.
func TestIngestDurableWatermark(t *testing.T) {
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 10, NumClusters: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := saga.OpenDurablePlatform(t.TempDir(), saga.DurableOptions{Sync: saga.SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDurable()
	if err := saga.ImportGraph(p.Graph(), w.Graph); err != nil {
		t.Fatal(err)
	}
	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	a := g.Entity(w.People[0]).Key
	b := g.Entity(w.People[1]).Key
	body := `{"asserts":[{"subject":"` + a + `","predicate":"collaborator","object":{"key":"` + b + `"}}]}`
	rec, resp := do(t, srv.Handler(), "POST", "/ingest", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, resp)
	}
	wm := uint64(resp["watermark"].(float64))
	if wm != g.LastSeq() {
		t.Fatalf("watermark = %d, graph at %d", wm, g.LastSeq())
	}
	if durable := p.Durability().DurableLSN(); durable < wm {
		t.Fatalf("durable LSN %d behind response watermark %d", durable, wm)
	}
}

// TestIngestStopsApplyingOnceDurabilityIsLost pins the write path's
// runtime-fault contract: the batch whose fsync fails is the last one
// applied to the in-memory graph; from then on /ingest answers 503 +
// Retry-After without mutating, /health reports the degraded state, and
// reads keep serving.
func TestIngestStopsApplyingOnceDurabilityIsLost(t *testing.T) {
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 10, NumClusters: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewFaultFS(1)
	p, _, err := saga.OpenDurablePlatform("/data", saga.DurableOptions{FS: fs, Sync: saga.SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDurable() // reports the latched fault; nothing to check
	if err := saga.ImportGraph(p.Graph(), w.Graph); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CheckpointDurable(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, g := srv.Handler(), p.Graph()
	key := func(i int) string { return g.Entity(w.People[i]).Key }
	batch := func(i int) string {
		return `{"asserts":[{"subject":"` + key(i) + `","predicate":"followers","object":{"int":` + strconv.Itoa(1000+i) + `}}]}`
	}
	health := func() (status, durabilityErr string, durable, applied float64) {
		t.Helper()
		rec, resp := do(t, h, "GET", "/health", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/health status %d", rec.Code)
		}
		d := resp["durability"].(map[string]any)
		return resp["status"].(string), d["error"].(string), d["durable_lsn"].(float64), d["applied_lsn"].(float64)
	}

	if rec, resp := do(t, h, "POST", "/ingest", batch(0)); rec.Code != http.StatusOK {
		t.Fatalf("healthy ingest: %d %v", rec.Code, resp)
	}
	if status, derr, durable, applied := health(); status != "ok" || derr != "" || durable != applied || uint64(durable) != g.LastSeq() {
		t.Fatalf("healthy /health: status %q error %q durable %v applied %v (graph at %d)", status, derr, durable, applied, g.LastSeq())
	}

	// The next fsync fails: that batch is applied, logged, and answered 500.
	fs.SetSyncBudget(0)
	triples, seq := g.NumTriples(), g.LastSeq()
	if rec, resp := do(t, h, "POST", "/ingest", batch(1)); rec.Code != http.StatusInternalServerError {
		t.Fatalf("ingest across the failing fsync: %d %v", rec.Code, resp)
	}
	if g.NumTriples() != triples+1 || g.LastSeq() != seq+1 {
		t.Fatalf("failing batch: triples %d -> %d, seq %d -> %d", triples, g.NumTriples(), seq, g.LastSeq())
	}
	status, derr, durable, applied := health()
	if status != "degraded" || derr == "" || uint64(durable) != seq || uint64(applied) != seq+1 {
		t.Fatalf("degraded /health: status %q error %q durable %v applied %v (fault at seq %d)", status, derr, durable, applied, seq)
	}

	// Every later batch is refused before it touches the graph.
	triples, seq = g.NumTriples(), g.LastSeq()
	for i := 2; i < 5; i++ {
		rec, resp := do(t, h, "POST", "/ingest", batch(i))
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("ingest after the fault: %d (Retry-After %q) %v", rec.Code, rec.Header().Get("Retry-After"), resp)
		}
		if g.NumTriples() != triples || g.LastSeq() != seq {
			t.Fatalf("refused batch %d mutated the graph: triples %d -> %d, seq %d -> %d", i, triples, g.NumTriples(), seq, g.LastSeq())
		}
	}
	// Reads are unaffected, and see the last applied batch.
	if rec, _ := do(t, h, "GET", "/entity?key="+key(1), ""); rec.Code != http.StatusOK {
		t.Fatalf("/entity while degraded: %d", rec.Code)
	}
	q := `{"clauses":[{"subject":{"key":"` + key(1) + `"},"predicate":"followers","object":{"int":1001}}]}`
	if rec, resp := do(t, h, "POST", "/query", q); rec.Code != http.StatusOK || resp["count"].(float64) != 1 {
		t.Fatalf("/query while degraded: %d %v", rec.Code, resp)
	}
}

// healthGraph reads the graph's layer figures and fact count off /health.
func healthGraph(t *testing.T, srv *Server) (layers map[string]float64, triples float64) {
	t.Helper()
	rec, body := do(t, srv.Handler(), "GET", "/health", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d", rec.Code)
	}
	block, _ := body["graph"].(map[string]any)
	layers = map[string]float64{}
	for _, k := range []string{"base_facts", "delta_adds", "delta_removals", "folds", "last_fold_ms"} {
		v, ok := block[k].(float64)
		if !ok {
			t.Fatalf("graph block lacks %s: %v", k, body["graph"])
		}
		layers[k] = v
	}
	if sum := layers["base_facts"] + layers["delta_adds"] - layers["delta_removals"]; sum != body["triples"].(float64) {
		t.Fatalf("base + adds - removals = %v, triples = %v: %v", sum, body["triples"], layers)
	}
	return layers, body["triples"].(float64)
}

// TestHealthReportsGraphLayers: /health's graph block says where the
// facts sit — the world's bulk load in the base, ingested facts and
// retracted base facts in the delta — and counts the folds that freeze a
// large delta into a new base.
func TestHealthReportsGraphLayers(t *testing.T) {
	srv, w := ingestServer(t)
	g := w.Graph
	layers, triples := healthGraph(t, srv)
	if layers["base_facts"] != triples || layers["delta_adds"] != 0 || layers["folds"] != 0 {
		t.Fatalf("a generated world is not all base: %v, %v triples", layers, triples)
	}
	var sb strings.Builder
	sb.WriteString(`{"asserts":[`)
	for i := 0; i < 50; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"subject":"` + g.Entity(w.People[i%len(w.People)]).Key + `","predicate":"libraryID","object":{"string":"layer` + strconv.Itoa(i) + `"}}`)
	}
	sb.WriteString(`]}`)
	if rec, resp := do(t, srv.Handler(), "POST", "/ingest", sb.String()); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %v", rec.Code, resp)
	}
	if !g.Retract(g.AllTriples()[0]) {
		t.Fatal("Retract found nothing")
	}
	if layers, _ = healthGraph(t, srv); layers["delta_adds"] != 50 || layers["delta_removals"] != 1 {
		t.Fatalf("after 50 asserts and a base retract: %v", layers)
	}
	// A batch four times the base's size passes the fold rule.
	pred, err := g.AddPredicate(kg.Predicate{Name: "layerTest"})
	if err != nil {
		t.Fatal(err)
	}
	var batch []kg.Triple
	for i := 0; batch == nil || len(batch) < 4*int(triples)+5000; i++ {
		batch = append(batch, kg.Triple{Subject: w.People[i%len(w.People)], Predicate: pred, Object: kg.IntValue(int64(i))})
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if layers, triples = healthGraph(t, srv); layers["folds"] != 1 || layers["base_facts"] != triples || layers["delta_adds"]+layers["delta_removals"] != 0 {
		t.Fatalf("after a batch past the fold rule: %v, %v triples", layers, triples)
	}
}

// logChunk is the capacity of one chunk of the graph's mutation log
// (kg's TestStoredSizes pins it): retention drops whole chunks, so a
// shard may hold up to one chunk it no longer needs.
const logChunk = 73

// healthLog reads the log retention figures off /health.
func healthLog(t *testing.T, srv *Server) (entries, floor uint64) {
	t.Helper()
	rec, body := do(t, srv.Handler(), "GET", "/health", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d", rec.Code)
	}
	cf := body["changefeed"].(map[string]any)
	e, ok1 := cf["log_entries"].(float64)
	f, ok2 := cf["log_floor"].(float64)
	if !ok1 || !ok2 {
		t.Fatalf("changefeed block lacks log_entries or log_floor: %v", cf)
	}
	return uint64(e), uint64(f)
}

// TestHealthReportsLogRetention: /health reports how much of the
// mutation log the graph keeps. With no changefeed open — a memory-only
// server — that is at most one chunk a shard, whatever was ingested; a
// durable server keeps the entries since its newest checkpoint, and
// after a checkpoint again at most one chunk a shard.
func TestHealthReportsLogRetention(t *testing.T) {
	batch := func(w *saga.World, g *kg.Graph, n int) string {
		var sb strings.Builder
		sb.WriteString(`{"asserts":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(`{"subject":"` + g.Entity(w.People[i%len(w.People)]).Key + `","predicate":"libraryID","object":{"string":"id` + strconv.Itoa(i) + `"}}`)
		}
		sb.WriteString(`]}`)
		return sb.String()
	}

	t.Run("memory", func(t *testing.T) {
		srv, w := ingestServer(t)
		g := w.Graph
		if rec, resp := do(t, srv.Handler(), "POST", "/ingest", batch(w, g, 200)); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d %v", rec.Code, resp)
		}
		entries, floor := healthLog(t, srv)
		if max := uint64(g.NumShards() * logChunk); entries > max {
			t.Fatalf("log_entries = %d with no feed open, want at most %d (%d shards)", entries, max, g.NumShards())
		}
		if floor == 0 || floor > g.LastSeq() {
			t.Fatalf("log_floor = %d, watermark %d", floor, g.LastSeq())
		}
	})

	t.Run("durable", func(t *testing.T) {
		w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 30, NumClusters: 3, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := saga.OpenDurablePlatform(t.TempDir(), saga.DurableOptions{Sync: saga.SyncEachCommit})
		if err != nil {
			t.Fatal(err)
		}
		defer p.CloseDurable()
		g := p.Graph()
		if err := saga.ImportGraph(g, w.Graph); err != nil {
			t.Fatal(err)
		}
		ckpt, err := p.CheckpointDurable()
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec, resp := do(t, srv.Handler(), "POST", "/ingest", batch(w, g, 200)); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d %v", rec.Code, resp)
		}
		entries, floor := healthLog(t, srv)
		since := g.LastSeq() - ckpt
		if entries < since || entries > since+uint64(g.NumShards()*logChunk) || floor > ckpt {
			t.Fatalf("log_entries = %d, log_floor = %d; %d mutations since the checkpoint at %d (%d shards)",
				entries, floor, since, ckpt, g.NumShards())
		}
		if _, err := p.CheckpointDurable(); err != nil {
			t.Fatal(err)
		}
		if entries, _ := healthLog(t, srv); entries > uint64(g.NumShards()*logChunk) {
			t.Fatalf("log_entries = %d right after a checkpoint, want at most %d (%d shards)", entries, g.NumShards()*logChunk, g.NumShards())
		}
	})
}
