package server

import (
	"fmt"
	"net/http"
	"testing"
)

// explain:true returns the plan — clause order, access paths, estimates
// — and no bindings, without solving the query.
func TestQueryEndpointExplain(t *testing.T) {
	srv, _ := paginationServer(t, 12)
	h := srv.Handler()

	clause := `{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"team"}}`
	rec, resp := do(t, h, "POST", "/query", fmt.Sprintf(`{"clauses":[%s],"explain":true}`, clause))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %v", rec.Code, resp)
	}
	if _, ok := resp["bindings"]; ok {
		t.Fatal("explain response carries bindings")
	}
	plan := resp["plan"].([]any)
	if len(plan) != 1 {
		t.Fatalf("plan has %d steps, want 1", len(plan))
	}
	step := plan[0].(map[string]any)
	if got := step["path"].(string); got != "posting" {
		t.Fatalf("step path = %q, want posting (bound-object clause)", got)
	}
	if got := int(step["clause"].(float64)); got != 0 {
		t.Fatalf("step clause = %d, want 0", got)
	}
	if got := int(step["estimate"].(float64)); got <= 0 {
		t.Fatalf("step estimate = %d, want positive", got)
	}
	vars := resp["variables"].([]any)
	if len(vars) != 1 || vars[0].(string) != "p" {
		t.Fatalf("variables = %v, want [p]", vars)
	}

	// Explaining a query still validates it.
	rec, _ = do(t, h, "POST", "/query",
		`{"clauses":[{"subject":{"var":"p"},"predicate":"nope","object":{"var":"o"}}],"explain":true}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown predicate under explain: status = %d, want 404", rec.Code)
	}

	// The explain went through the shared plan cache; /health reports it.
	rec, health := do(t, h, "GET", "/health", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("health status = %d", rec.Code)
	}
	pc, ok := health["plan_cache"].(map[string]any)
	if !ok {
		t.Fatalf("health has no plan_cache object: %v", health)
	}
	if got := int(pc["misses"].(float64)); got < 1 {
		t.Fatalf("plan_cache misses = %d, want >= 1 after an explain", got)
	}
}
