package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// BenchmarkServeRoutes serves one request of each interactive route of
// the serving mix through the handler (admission included) into a
// recorder: an entity lookup, a subject-bound and an object-bound
// one-clause query, a /related answer from the cache, a search and an
// annotation. Report-only; allocs/op is the stable number.
func BenchmarkServeRoutes(b *testing.B) {
	srv, w := testServer(b)
	h := srv.Handler()
	g := w.Graph
	person, team := g.Entity(w.People[3]), g.Entity(w.Teams[0])
	clause := func(subj, pred, obj string) string {
		return `{"clauses":[{"subject":` + subj + `,"predicate":"` + pred + `","object":` + obj + `}],"limit":50}`
	}
	for _, rt := range []struct{ name, method, path, body string }{
		{"entity", "GET", "/entity?key=" + person.Key, ""},
		{"query-subject", "POST", "/query", clause(`{"key":"`+person.Key+`"}`, "occupation", `{"var":"o"}`)},
		{"query-object", "POST", "/query", clause(`{"var":"p"}`, "memberOf", `{"key":"`+team.Key+`"}`)},
		{"related-hit", "GET", "/related?key=" + person.Key + "&k=10", ""},
		{"search", "GET", "/search?k=10&q=basketball+award", ""},
		{"annotate", "POST", "/annotate", `{"text":"` + person.Name + ` received the Basketball Player Award in Akron."}`},
	} {
		serve := func() *httptest.ResponseRecorder {
			var body io.Reader
			if rt.body != "" {
				body = strings.NewReader(rt.body)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, body))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", rt.name, rec.Code, rec.Body)
			}
			return rec
		}
		serve() // warm the plan and related caches
		b.Run(rt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// BenchmarkLoopbackRoundTrip prices what a request costs before any
// handler runs: a bare handler answering a fixed body, behind a real
// loopback listener, driven by a net/http client configured like the
// end-to-end benchmark's, at GOMAXPROCS=2. A GET with a 47-byte answer is
// an /entity-sized round trip; a 5.4 KB POST is a /query with a page of
// bindings in the body.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	answer := []byte(`{"id":7,"key":"person7","name":"Ada Lovelace"}` + "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		writeJSONBytes(w, http.StatusOK, answer)
	}))
	defer ts.Close()
	tr := &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	post := strings.Repeat("x", 5400)
	for _, rt := range []struct{ name, method, body string }{
		{"get-47B", "GET", ""},
		{"post-5.4KB", "POST", post},
	} {
		b.Run(rt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest(rt.method, ts.URL+"/entity?key=person7", strings.NewReader(rt.body))
				if err != nil {
					b.Fatal(err)
				}
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || n != int64(len(answer)) {
					b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
				}
			}
		})
	}
}
