package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"saga/internal/kg"
	"saga/saga"
)

// paginationServer stands up /query over a graph with one team of
// nMembers members — no embeddings or search index needed.
func paginationServer(t testing.TB, nMembers int) (*Server, []string) {
	t.Helper()
	g := kg.NewGraphWithShards(8)
	member, _ := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	team, err := g.AddEntity(kg.Entity{Key: "team", Name: "Team"})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, nMembers)
	batch := make([]kg.Triple, 0, nMembers)
	for i := 0; i < nMembers; i++ {
		key := fmt.Sprintf("p%03d", i)
		id, err := g.AddEntity(kg.Entity{Key: key, Name: key})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		batch = append(batch, kg.Triple{Subject: id, Predicate: member, Object: kg.EntityValue(team)})
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	srv, err := New(saga.New(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv, keys
}

// Walking /query cursors to exhaustion must visit every binding exactly
// once, in pages of the requested size, with no next_cursor on the final
// page.
func TestQueryEndpointCursorPagination(t *testing.T) {
	const nMembers = 57
	const pageSize = 10
	srv, keys := paginationServer(t, nMembers)
	h := srv.Handler()

	clause := `{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"team"}}`
	seen := make(map[string]bool, nMembers)
	cursor := ""
	pages := 0
	for {
		body := fmt.Sprintf(`{"clauses":[%s],"limit":%d`, clause, pageSize)
		if cursor != "" {
			body += fmt.Sprintf(`,"cursor":%q`, cursor)
		}
		body += "}"
		rec, resp := do(t, h, "POST", "/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: status = %d body %v", pages, rec.Code, resp)
		}
		if limit := int(resp["limit"].(float64)); limit != pageSize {
			t.Fatalf("page %d: applied limit = %d, want %d", pages, limit, pageSize)
		}
		bindings := resp["bindings"].([]any)
		for _, b := range bindings {
			key := b.(map[string]any)["p"].(map[string]any)["key"].(string)
			if seen[key] {
				t.Fatalf("page %d: binding %q already returned by an earlier page", pages, key)
			}
			seen[key] = true
		}
		pages++
		next, more := resp["next_cursor"].(string)
		remaining := nMembers - len(seen)
		if more {
			if len(bindings) != pageSize {
				t.Fatalf("page %d: %d bindings with next_cursor set, want full page of %d", pages, len(bindings), pageSize)
			}
			if remaining == 0 {
				t.Fatalf("page %d: next_cursor set but all %d bindings already seen", pages, nMembers)
			}
			cursor = next
			continue
		}
		if len(bindings) != nMembers%pageSize {
			t.Fatalf("final page has %d bindings, want %d", len(bindings), nMembers%pageSize)
		}
		break
	}
	if len(seen) != nMembers {
		t.Fatalf("cursor walk visited %d distinct bindings, want %d", len(seen), nMembers)
	}
	if want := nMembers/pageSize + 1; pages != want {
		t.Fatalf("cursor walk took %d pages, want %d", pages, want)
	}
	for _, key := range keys {
		if !seen[key] {
			t.Fatalf("binding %q missing from the paged walk", key)
		}
	}
}

// Serving-path guards: clause cap, body cap, default and maximum limit,
// and cursor validation.
func TestQueryEndpointGuards(t *testing.T) {
	srv, _ := paginationServer(t, 5)
	h := srv.Handler()
	clause := `{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"team"}}`

	// 33 clauses: rejected before any planning.
	clauses := make([]string, maxQueryClauses+1)
	for i := range clauses {
		clauses[i] = clause
	}
	rec, _ := do(t, h, "POST", "/query", `{"clauses":[`+strings.Join(clauses, ",")+`]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("%d clauses: status = %d, want 400", len(clauses), rec.Code)
	}

	// Body over 1 MiB: rejected with 413.
	big := `{"clauses":[` + clause + `],"cursor":"` + strings.Repeat("A", maxQueryBodyBytes) + `"}`
	rec, _ = do(t, h, "POST", "/query", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", rec.Code)
	}

	// Omitted limit: the default is applied and echoed.
	rec, resp := do(t, h, "POST", "/query", `{"clauses":[`+clause+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("default limit: status = %d body %v", rec.Code, resp)
	}
	if limit := int(resp["limit"].(float64)); limit != defaultQueryLimit {
		t.Fatalf("default limit = %d, want %d", limit, defaultQueryLimit)
	}
	if _, more := resp["next_cursor"]; more {
		t.Fatal("next_cursor set on an exhausted result")
	}

	// Explicit limit above the cap: clamped, not rejected.
	rec, resp = do(t, h, "POST", "/query", `{"clauses":[`+clause+`],"limit":999999}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("huge limit: status = %d", rec.Code)
	}
	if limit := int(resp["limit"].(float64)); limit != maxQueryLimit {
		t.Fatalf("clamped limit = %d, want %d", limit, maxQueryLimit)
	}

	// Non-positive limit: rejected.
	for _, bad := range []string{"0", "-3"} {
		rec, _ = do(t, h, "POST", "/query", `{"clauses":[`+clause+`],"limit":`+bad+`}`)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("limit %s: status = %d, want 400", bad, rec.Code)
		}
	}

	// Garbage cursor: rejected.
	rec, _ = do(t, h, "POST", "/query", `{"clauses":[`+clause+`],"cursor":"!!!"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage cursor: status = %d, want 400", rec.Code)
	}

	// Well-formed cursor of the wrong arity (two values, one variable):
	// rejected, not silently treated as a row that vanished.
	two := saga.EncodeQueryCursor(saga.QueryCursor{kg.IntValue(1).MapKey(), kg.IntValue(2).MapKey()})
	rec, _ = do(t, h, "POST", "/query", `{"clauses":[`+clause+`],"cursor":"`+two+`"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong-arity cursor: status = %d, want 400", rec.Code)
	}
}
