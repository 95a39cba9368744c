package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"saga/internal/kg"
	"saga/saga"
)

// seedMembershipWorld registers a small member-of world directly on the
// graph: nPeople person entities, two teams, and the memberOf predicate.
func seedMembershipWorld(t *testing.T, g *saga.Graph, nPeople int) ([]kg.EntityID, []kg.EntityID, kg.PredicateID) {
	t.Helper()
	people := make([]kg.EntityID, nPeople)
	for i := range people {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("person%d", i), Name: fmt.Sprintf("Person %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		people[i] = id
	}
	teams := make([]kg.EntityID, 2)
	for i := range teams {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("team%d", i), Name: fmt.Sprintf("Team %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		teams[i] = id
	}
	member, err := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	if err != nil {
		t.Fatal(err)
	}
	return people, teams, member
}

const memberQueryBody = `{"clauses": [{"subject": {"var": "p"}, "predicate": "memberOf", "object": {"key": "team0"}}], "limit": 4}`

// TestQueryEndpointAsOfByteIdentity is the as-of acceptance pin: a
// /query response captured live at watermark W must be byte-identical
// to the same query issued later with "as_of": W — across further
// writes, a checkpoint, and a full close/recover cycle of the durable
// platform, and across cursored pages.
func TestQueryEndpointAsOfByteIdentity(t *testing.T) {
	dir := t.TempDir()
	opts := saga.DurableOptions{Sync: saga.SyncEachCommit, RetainCheckpoints: 4}
	p, _, err := saga.OpenDurablePlatform(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	people, teams, member := seedMembershipWorld(t, g, 10)
	for _, pe := range people[:6] {
		if err := g.Assert(kg.Triple{Subject: pe, Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.CheckpointDurable(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint history the overlay must replay: one retract, two
	// more adds.
	if !g.Retract(kg.Triple{Subject: people[2], Predicate: member, Object: kg.EntityValue(teams[0])}) {
		t.Fatal("retract failed")
	}
	for _, pe := range people[6:8] {
		if err := g.Assert(kg.Triple{Subject: pe, Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
			t.Fatal(err)
		}
	}
	asOf := g.LastSeq()

	srv1, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	h1 := srv1.Handler()
	recLive, liveBody := do(t, h1, "POST", "/query", memberQueryBody)
	if recLive.Code != http.StatusOK {
		t.Fatalf("live query: %d %v", recLive.Code, liveBody)
	}
	cursor, _ := liveBody["next_cursor"].(string)
	if cursor == "" {
		t.Fatalf("live page 1 has no next_cursor: %v", liveBody)
	}
	page2Body := strings.Replace(memberQueryBody, `"limit": 4`, fmt.Sprintf(`"limit": 4, "cursor": %q`, cursor), 1)
	recLive2, _ := do(t, h1, "POST", "/query", page2Body)
	if recLive2.Code != http.StatusOK {
		t.Fatalf("live page 2: %d", recLive2.Code)
	}
	livePage1, livePage2 := recLive.Body.Bytes(), recLive2.Body.Bytes()

	// Crash boundary: close and recover the platform, then move the live
	// graph past asOf.
	if err := p.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	p2, info, err := saga.OpenDurablePlatform(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseDurable()
	if info.RecoveredLSN != asOf {
		t.Fatalf("recovered LSN %d, want %d", info.RecoveredLSN, asOf)
	}
	g2 := p2.Graph()
	if !g2.Retract(kg.Triple{Subject: people[0], Predicate: member, Object: kg.EntityValue(teams[0])}) {
		t.Fatal("post-recovery retract failed")
	}
	if err := g2.Assert(kg.Triple{Subject: people[9], Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.CheckpointDurable(); err != nil { // newer checkpoint; asOf must still resolve to the older one
		t.Fatal(err)
	}

	srv2, err := New(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2 := srv2.Handler()

	// The live answer moved, so equality below is not vacuous.
	recNow, _ := do(t, h2, "POST", "/query", memberQueryBody)
	if bytes.Equal(recNow.Body.Bytes(), livePage1) {
		t.Fatal("live answer set did not change; as-of equality would be vacuous")
	}

	asOfBody := strings.Replace(memberQueryBody, `"limit": 4`, fmt.Sprintf(`"limit": 4, "as_of": %d`, asOf), 1)
	recAsOf, asOfJSON := do(t, h2, "POST", "/query", asOfBody)
	if recAsOf.Code != http.StatusOK {
		t.Fatalf("as-of query: %d %v", recAsOf.Code, asOfJSON)
	}
	if !bytes.Equal(recAsOf.Body.Bytes(), livePage1) {
		t.Fatalf("as-of page 1 diverged from live capture\nlive:  %s\nas-of: %s", livePage1, recAsOf.Body.Bytes())
	}
	asOfPage2 := strings.Replace(page2Body, `"cursor"`, fmt.Sprintf(`"as_of": %d, "cursor"`, asOf), 1)
	recAsOf2, _ := do(t, h2, "POST", "/query", asOfPage2)
	if !bytes.Equal(recAsOf2.Body.Bytes(), livePage2) {
		t.Fatalf("as-of page 2 diverged from live capture\nlive:  %s\nas-of: %s", livePage2, recAsOf2.Body.Bytes())
	}
}

// TestQueryEndpointAsOfErrors pins the error contract: 410 Gone for
// watermarks behind the retention window, 400 on memory-only platforms.
func TestQueryEndpointAsOfErrors(t *testing.T) {
	dir := t.TempDir()
	p, _, err := saga.OpenDurablePlatform(dir, saga.DurableOptions{Sync: saga.SyncEachCommit}) // newest-only retention
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDurable()
	g := p.Graph()
	people, teams, member := seedMembershipWorld(t, g, 4)
	if err := g.Assert(kg.Triple{Subject: people[0], Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
		t.Fatal(err)
	}
	oldWM, err := p.CheckpointDurable()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Assert(kg.Triple{Subject: people[1], Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CheckpointDurable(); err != nil { // drops the oldWM checkpoint
		t.Fatal(err)
	}
	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	gone := strings.Replace(memberQueryBody, `"limit": 4`, fmt.Sprintf(`"limit": 4, "as_of": %d`, oldWM-1), 1)
	rec, body := do(t, srv.Handler(), "POST", "/query", gone)
	if rec.Code != http.StatusGone {
		t.Fatalf("behind-retention as_of: %d %v, want 410", rec.Code, body)
	}

	// Memory-only platform: as_of is a 400, not a crash.
	mem := saga.New(kg.NewGraph())
	mg := mem.Graph()
	mp, mt, mm := seedMembershipWorld(t, mg, 2)
	if err := mg.Assert(kg.Triple{Subject: mp[0], Predicate: mm, Object: kg.EntityValue(mt[0])}); err != nil {
		t.Fatal(err)
	}
	msrv, err := New(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	memReq := strings.Replace(memberQueryBody, `"limit": 4`, `"limit": 4, "as_of": 1`, 1)
	rec, body = do(t, msrv.Handler(), "POST", "/query", memReq)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("memory-platform as_of: %d %v, want 400", rec.Code, body)
	}
}

// TestSubscribeEndpointStreams drives the NDJSON /subscribe stream over
// a real HTTP server: snapshot line first, then coalesced add and
// retract lines as the graph mutates.
func TestSubscribeEndpointStreams(t *testing.T) {
	p := saga.New(kg.NewGraph())
	g := p.Graph()
	people, teams, member := seedMembershipWorld(t, g, 4)
	if err := g.Assert(kg.Triple{Subject: people[0], Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"clauses": [{"subject": {"var": "p"}, "predicate": "memberOf", "object": {"key": "team0"}}], "coalesce_ms": 1}`
	resp, err := http.Post(ts.URL+"/subscribe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	readEvent := func() map[string]any {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		return ev
	}

	ev := readEvent()
	if ev["reset"] != true {
		t.Fatalf("first event not a reset: %v", ev)
	}
	adds := ev["adds"].([]any)
	if len(adds) != 1 {
		t.Fatalf("snapshot adds: %v", ev)
	}
	if b := adds[0].(map[string]any)["p"].(map[string]any); b["key"] != "person0" {
		t.Fatalf("snapshot binding: %v", adds[0])
	}

	if err := g.Assert(kg.Triple{Subject: people[1], Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
		t.Fatal(err)
	}
	ev = readEvent()
	adds = ev["adds"].([]any)
	if len(adds) != 1 || len(ev["retracts"].([]any)) != 0 {
		t.Fatalf("add event: %v", ev)
	}
	if b := adds[0].(map[string]any)["p"].(map[string]any); b["key"] != "person1" {
		t.Fatalf("add binding: %v", adds[0])
	}

	if !g.Retract(kg.Triple{Subject: people[0], Predicate: member, Object: kg.EntityValue(teams[0])}) {
		t.Fatal("retract failed")
	}
	ev = readEvent()
	rets := ev["retracts"].([]any)
	if len(rets) != 1 {
		t.Fatalf("retract event: %v", ev)
	}
	if b := rets[0].(map[string]any)["p"].(map[string]any); b["key"] != "person0" {
		t.Fatalf("retract binding: %v", rets[0])
	}
}

// TestSubscribeEndpointRejectsBadRequests covers the request guards.
func TestSubscribeEndpointRejectsBadRequests(t *testing.T) {
	p := saga.New(kg.NewGraph())
	seedMembershipWorld(t, p.Graph(), 2)
	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	// A request over a cap is refused before anything is allocated for
	// it: 1<<62 events would ask the runtime for an impossible channel.
	const q = `{"clauses": [{"subject": {"var": "p"}, "predicate": "memberOf", "object": {"key": "team0"}}]`
	for _, tc := range []struct {
		body  string
		code  int
		field string // the field a 400 must name
	}{
		{`{"clauses": []}`, http.StatusBadRequest, ""},
		{`{"clauses": [{"subject": {"var": "p"}, "predicate": "nope", "object": {"key": "team0"}}]}`, http.StatusNotFound, ""},
		{q + `, "coalesce_ms": 999999}`, http.StatusBadRequest, "coalesce_ms"},
		{q + `, "buffer": 4611686018427387904}`, http.StatusBadRequest, "buffer"},
		{q + `, "buffer": 1025}`, http.StatusBadRequest, "buffer"},
		{q + `, "buffer": -1}`, http.StatusBadRequest, "buffer"},
		{q + `, "max_pending": 65537}`, http.StatusBadRequest, "max_pending"},
		{q + `, "max_pending": -1}`, http.StatusBadRequest, "max_pending"},
	} {
		rec, body := do(t, h, "POST", "/subscribe", tc.body)
		if rec.Code != tc.code {
			t.Fatalf("%s: %d %v, want %d", tc.body, rec.Code, body, tc.code)
		}
		if msg := fmt.Sprint(body["error"]); !strings.Contains(msg, tc.field) {
			t.Fatalf("%s: error %q does not name %s", tc.body, msg, tc.field)
		}
	}
}

// TestHealthChangefeed checks the /health changefeed block: watermark,
// durability progress, retention, and subscriber gauges.
func TestHealthChangefeed(t *testing.T) {
	dir := t.TempDir()
	p, _, err := saga.OpenDurablePlatform(dir, saga.DurableOptions{Sync: saga.SyncEachCommit, RetainCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDurable()
	g := p.Graph()
	people, teams, member := seedMembershipWorld(t, g, 3)
	if err := g.Assert(kg.Triple{Subject: people[0], Predicate: member, Object: kg.EntityValue(teams[0])}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CheckpointDurable(); err != nil {
		t.Fatal(err)
	}
	sub, err := p.Subscribe([]saga.QueryClause{{
		Subject:   saga.QVar("p"),
		Predicate: member,
		Object:    saga.QEntity(teams[0]),
	}}, saga.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, body := do(t, srv.Handler(), "GET", "/health", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d", rec.Code)
	}
	cf, ok := body["changefeed"].(map[string]any)
	if !ok {
		t.Fatalf("health has no changefeed block: %v", body)
	}
	if cf["watermark"].(float64) != float64(g.LastSeq()) {
		t.Fatalf("changefeed watermark: %v, want %d", cf["watermark"], g.LastSeq())
	}
	if cf["durable_lsn"].(float64) != float64(g.LastSeq()) {
		t.Fatalf("changefeed durable_lsn: %v, want %d", cf["durable_lsn"], g.LastSeq())
	}
	if cf["retained_checkpoints"].(float64) != 1 {
		t.Fatalf("changefeed retained_checkpoints: %v", cf["retained_checkpoints"])
	}
	if cf["subscribers"].(float64) != 1 {
		t.Fatalf("changefeed subscribers: %v", cf["subscribers"])
	}
	for _, key := range []string{"slowest_subscriber_lag", "subscriber_evictions"} {
		if _, ok := cf[key]; !ok {
			t.Fatalf("changefeed missing %s: %v", key, cf)
		}
	}
}
