package server

import (
	"net/http"
	"strings"
	"testing"

	"saga/saga"
)

// TestQueryStatusesAndMessages pins every 400/404/413 status and message
// of /query, /subscribe and /annotate as the reflective decoder's
// handlers reported them: handler-level checks word for word, decode
// errors by status and prefix. Each route checks its own fields in the
// same order as before — a body is decoded whole before any field is
// judged.
func TestQueryStatusesAndMessages(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()
	clause := func(subj, pred, obj string) string {
		return `{"subject":` + subj + `,"predicate":"` + pred + `","object":` + obj + `}`
	}
	good := clause(`{"var":"p"}`, "occupation", `{"var":"o"}`)
	with := func(extra string) string { return `{"clauses":[` + good + `]` + extra + `}` }
	many := strings.TrimSuffix(strings.Repeat(good+",", maxQueryClauses+1), ",")
	oversized := `{"clauses":[],"x":"` + strings.Repeat("A", maxQueryBodyBytes) + `"}`

	// Bodies every route rejects while decoding.
	malformed := []string{``, ` `, `{bad`, `[]`, `{"clauses":[` + good + `],`, `"x"`, `{"x":tru}`}
	type tc struct {
		body string
		code int
		msg  string // exact error text; a trailing * matches as a prefix
	}
	var query, subscribe, annotate []tc
	for _, body := range malformed {
		query = append(query, tc{body, 400, "decode request: *"})
		subscribe = append(subscribe, tc{body, 400, "decode request: *"})
		annotate = append(annotate, tc{body, 400, "decode request: *"})
	}
	// Bodies /query and /subscribe judge alike: the clause list and its terms.
	for _, c := range []tc{
		{`null`, 400, "no clauses"},
		{`{}`, 400, "no clauses"},
		{`{"clauses":null}`, 400, "no clauses"},
		{`{"clauses":[]}`, 400, "no clauses"},
		{`{"text":"x"}`, 400, "no clauses"},
		{`{"clauses":{}}`, 400, "decode request: *"},
		{`{"clauses":[5]}`, 400, "decode request: *"},
		{`{"clauses":["x"]}`, 400, "decode request: *"},
		{`{"clauses":[` + clause(`{"var":"p"}`, "occupation", `{"int":"1"}`) + `]}`, 400, "decode request: *"},
		{`{"clauses":[` + clause(`{"var":"p"}`, "occupation", `{"int":1.5}`) + `]}`, 400, "decode request: *"},
		{`{"clauses":[` + clause(`{"var":5}`, "occupation", `{"var":"o"}`) + `]}`, 400, "decode request: *"},
		{`{"clauses":[{"subject":{"var":"p"},"predicate":5,"object":{"var":"o"}}]}`, 400, "decode request: *"},
		{`{"clauses":[null]}`, 404, `clause 0: unknown predicate ""`},
		{`{"clauses":[{}]}`, 404, `clause 0: unknown predicate ""`},
		{`{"clauses":[` + many + `]}`, 400, "33 clauses exceeds the maximum of 32"},
		{`{"clauses":[` + many + `,` + many + `]}`, 400, "66 clauses exceeds the maximum of 32"},
		{`{"clauses":[` + clause(`{"var":"p"}`, "nope", `{"var":"o"}`) + `]}`, 404, `clause 0: unknown predicate "nope"`},
		{`{"clauses":[` + clause(`{"key":"nope"}`, "nope", `{"var":"o"}`) + `]}`, 404, `clause 0: unknown predicate "nope"`},
		{`{"clauses":[` + good + `,` + clause(`{"var":"p"}`, "nope", `{"var":"o"}`) + `]}`, 404, `clause 1: unknown predicate "nope"`},
		{`{"clauses":[` + clause(`{"var":""}`, "occupation", `{"var":"o"}`) + `]}`, 400, "clause 0 subject: empty variable name"},
		{`{"clauses":[` + clause(`{"var":"p","key":"x"}`, "occupation", `{"var":"o"}`) + `]}`, 400, "clause 0 subject: term must set exactly one of var/key/string/int"},
		{`{"clauses":[` + clause(`null`, "occupation", `{"var":"o"}`) + `]}`, 400, "clause 0 subject: term must set exactly one of var/key/string/int"},
		{`{"clauses":[` + clause(`{"var":null}`, "occupation", `{"var":"o"}`) + `]}`, 400, "clause 0 subject: term must set exactly one of var/key/string/int"},
		{`{"clauses":[{"subject":{"var":"p"},"predicate":"occupation"}]}`, 400, "clause 0 object: term must set exactly one of var/key/string/int"},
		{`{"clauses":[` + clause(`{"var":"p"}`, "occupation", `{"key":"nope"}`) + `]}`, 400, `clause 0 object: unknown entity key "nope"`},
		{`{"clauses":[` + clause(`{"int":3}`, "occupation", `{"string":"x"}`) + `]}`, 400, "graphengine: clause 0: constant subject must be an entity"},
	} {
		query = append(query, c)
		subscribe = append(subscribe, c)
	}
	query = append(query,
		tc{with(`,"limit":0`), 400, "bad limit 0"},
		tc{with(`,"limit":-3`), 400, "bad limit -3"},
		tc{with(`,"limit":1.5`), 400, "decode request: *"},
		tc{with(`,"limit":1e2`), 400, "decode request: *"},
		tc{with(`,"limit":"5"`), 400, "decode request: *"},
		tc{with(`,"limit":99999999999999999999`), 400, "decode request: *"},
		tc{`{"clauses":[],"limit":0}`, 400, "no clauses"},
		tc{`{"clauses":[` + many + `],"limit":0}`, 400, "33 clauses exceeds the maximum of 32"},
		tc{with(`,"cursor":"!!!"`), 400, "bad cursor: *"},
		tc{with(`,"cursor":5`), 400, "decode request: *"},
		tc{with(`,"limit":0,"cursor":"!!!"`), 400, "bad limit 0"},
		tc{`{"clauses":[` + clause(`{"var":"p"}`, "nope", `{"var":"o"}`) + `],"cursor":"!!!"}`, 400, "bad cursor: *"},
		tc{with(`,"explain":"yes"`), 400, "decode request: *"},
		tc{with(`,"explain":1`), 400, "decode request: *"},
		tc{with(`,"as_of":-1`), 400, "decode request: *"},
		tc{with(`,"as_of":1.5`), 400, "decode request: *"},
		tc{with(`,"as_of":5`), 400, "saga: as-of reads require a durable platform; use OpenDurablePlatform"},
		tc{oversized, 413, "request body exceeds 1048576 bytes"},
	)
	subscribe = append(subscribe,
		tc{with(`,"coalesce_ms":-1`), 400, "bad coalesce_ms -1"},
		tc{with(`,"coalesce_ms":10001`), 400, "bad coalesce_ms 10001"},
		tc{with(`,"coalesce_ms":1.5`), 400, "decode request: *"},
		tc{with(`,"buffer":"1"`), 400, "decode request: *"},
		tc{with(`,"max_pending":1e3`), 400, "decode request: *"},
		tc{`{"clauses":[],"coalesce_ms":-1}`, 400, "no clauses"},
		tc{`{"clauses":[` + clause(`{"var":"p"}`, "nope", `{"var":"o"}`) + `],"coalesce_ms":-1}`, 400, "bad coalesce_ms -1"},
		tc{oversized, 413, "request body exceeds 1048576 bytes"},
	)
	annotate = append(annotate,
		tc{`null`, 400, "empty text"},
		tc{`{}`, 400, "empty text"},
		tc{`{"text":""}`, 400, "empty text"},
		tc{`{"text":null}`, 400, "empty text"},
		tc{`{"Text":""}`, 400, "empty text"},
		tc{with(``), 400, "empty text"},
		tc{`{"text":5}`, 400, "decode request: *"},
		tc{`{"text":["x"]}`, 400, "decode request: *"},
		tc{oversized, 413, "request body exceeds 1048576 bytes"},
	)

	for _, route := range []struct {
		path  string
		cases []tc
	}{{"/query", query}, {"/subscribe", subscribe}, {"/annotate", annotate}} {
		for _, c := range route.cases {
			rec, resp := do(t, h, "POST", route.path, c.body)
			got, _ := resp["error"].(string)
			want, prefix := strings.CutSuffix(c.msg, "*")
			if rec.Code != c.code || (prefix && !strings.HasPrefix(got, want)) || (!prefix && got != want) {
				body := c.body
				if len(body) > 120 {
					body = body[:120] + "…"
				}
				t.Errorf("%s %q: %d %q, want %d %q", route.path, body, rec.Code, got, c.code, c.msg)
			}
		}
	}
	if n := srv.Platform.SubscriptionStats().Subscribers; n != 0 {
		t.Errorf("rejected /subscribe requests left %d subscriptions open", n)
	}

	// Without an annotator /annotate answers 503 with the platform's error.
	bare, err := New(saga.New(srv.Platform.Graph()), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, resp := do(t, bare.Handler(), "POST", "/annotate", `{"text":"x"}`)
	if got, _ := resp["error"].(string); rec.Code != http.StatusServiceUnavailable || got != "saga: annotator not built; call BuildAnnotator first" {
		t.Errorf("/annotate without an annotator: %d %q", rec.Code, got)
	}
}
