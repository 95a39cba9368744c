package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"saga/internal/kg"
	"saga/saga"
)

// The append encoder replaced renderBinding + encoding/json. Its contract
// is byte-identity with what that pair wrote, so the reference below IS
// the old code: the per-row map[string]any shape pushed through
// json.NewEncoder (HTML-safe escaping on, trailing newline).

// referenceBinding is the deleted renderBinding, kept as the oracle.
func referenceBinding(g *saga.Graph, b saga.QueryBinding) map[string]any {
	row := make(map[string]any, len(b))
	for name, v := range b {
		if v.IsEntity() {
			if e := g.Entity(v.Entity); e != nil {
				row[name] = map[string]string{"key": e.Key, "name": e.Name}
				continue
			}
		}
		row[name] = v.String()
	}
	return row
}

func referenceJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// adversarialStrings are the inputs JSON string escaping gets wrong:
// quotes and backslashes, every control byte class, the HTML-unsafe
// trio, the JavaScript line separators, and malformed UTF-8.
var adversarialStrings = []string{
	"",
	"plain",
	`q"uote\back`,
	"\x00\x01\x07\b\f\n\r\t\x1f\x7f",
	"<script>&amp;</script>",
	"line\u2028sep\u2029para",
	"\xff\xfe bad \xc3",
	"\xe2\x80",         // truncated U+2028
	"\xed\xa0\x80",     // surrogate half
	"\xf4\x90\x80\x80", // beyond U+10FFFF
	"日本語 ✓ 🙂",
	"\ufffd already replaced",
	"\"",
	"\\u2028",
	strings.Repeat("a<", 40) + "\xff",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range adversarialStrings {
		want := referenceJSON(t, s)
		if got := append(appendJSONString(nil, s), '\n'); !bytes.Equal(got, want) {
			t.Errorf("string %q:\n got %s want %s", s, got, want)
		}
		// Appending after existing bytes leaves them alone.
		if got := append(appendJSONString([]byte("x"), s), '\n'); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("appended %q:\n got %s want x%s", s, got, want)
		}
	}
}

// FuzzAppendJSONString pins the escaper against encoding/json on whatever
// the fuzzer finds (seed corpus: testdata/fuzz/FuzzAppendJSONString).
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range adversarialStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := referenceJSON(t, s)
		if got := append(appendJSONString(nil, s), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("string %q:\n got %s want %s", s, got, want)
		}
	})
}

// adversarialGraph registers entities whose keys and names are the
// adversarial strings.
func adversarialGraph(t testing.TB) (*saga.Graph, []kg.EntityID) {
	t.Helper()
	g := kg.NewGraph()
	var ids []kg.EntityID
	for i, s := range adversarialStrings {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("k%d:%s", i, s), Name: s})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return g, ids
}

// adversarialValues covers every value kind and the renderings that need
// care: quoted string literals (escaped twice over), NaN and infinities,
// negative zero, extreme ints, bools, times, the zero Value, and an
// entity the dictionary has never heard of.
func adversarialValues(ids []kg.EntityID) []kg.Value {
	vals := []kg.Value{
		kg.IntValue(0), kg.IntValue(-1), kg.IntValue(math.MinInt64), kg.IntValue(math.MaxInt64),
		kg.FloatValue(math.NaN()), kg.FloatValue(math.Inf(1)), kg.FloatValue(math.Inf(-1)),
		kg.FloatValue(math.Copysign(0, -1)), kg.FloatValue(1e21), kg.FloatValue(-2.5e-7),
		kg.BoolValue(true), kg.BoolValue(false),
		kg.TimeValue(time.Date(1999, 12, 31, 23, 59, 59, 0, time.UTC)),
		{}, // invalid kind: renders "<invalid>", which itself needs escaping
		kg.EntityValue(kg.EntityID(1 << 30)),
	}
	for _, s := range adversarialStrings {
		vals = append(vals, kg.StringValue(s))
	}
	for _, id := range ids {
		vals = append(vals, kg.EntityValue(id))
	}
	return vals
}

// Every value, under every adversarial variable name, encodes exactly as
// the reflective path encoded it — one row at a time and as whole
// /subscribe event lines.
func TestRowEncoderMatchesReflectiveEncoder(t *testing.T) {
	g, ids := adversarialGraph(t)
	vals := adversarialValues(ids)

	for i, v := range vals {
		// Three variables per row, names drawn from the adversarial set
		// (deduplicated by the map, as query variables are by name).
		b := saga.QueryBinding{
			adversarialStrings[i%len(adversarialStrings)]:     v,
			adversarialStrings[(i+5)%len(adversarialStrings)]: vals[(i+7)%len(vals)],
			"z": vals[(i+13)%len(vals)],
		}
		names := make([]string, 0, len(b))
		for name := range b {
			names = append(names, name)
		}
		sort.Strings(names)
		enc := newRowEncoder(g, names)
		want := referenceJSON(t, referenceBinding(g, b))
		if got := append(enc.appendBinding(nil, b), '\n'); !bytes.Equal(got, want) {
			t.Errorf("binding %d:\n got %s want %s", i, got, want)
		}
	}

	// No variables at all: the one empty row.
	if got := newRowEncoder(g, nil).appendRow(nil, nil); string(got) != "{}" {
		t.Errorf("empty row = %s, want {}", got)
	}

	// /subscribe lines: same rows inside the event envelope, with and
	// without the reset flag and with empty sides.
	type eventJSON struct {
		Adds      []map[string]any `json:"adds"`
		Retracts  []map[string]any `json:"retracts"`
		Watermark uint64           `json:"watermark"`
		Reset     bool             `json:"reset,omitempty"`
	}
	sameVars := func(v1, v2 kg.Value) saga.QueryBinding { return saga.QueryBinding{"<a>": v1, "b": v2} }
	events := []saga.SubscriptionEvent{
		{Watermark: 0},
		{Reset: true, Watermark: math.MaxUint64, Adds: []saga.QueryBinding{sameVars(vals[0], vals[4])}},
		{Watermark: 7, Adds: []saga.QueryBinding{sameVars(vals[15], vals[16]), sameVars(vals[20], vals[3])}, Retracts: []saga.QueryBinding{sameVars(vals[13], vals[14])}},
	}
	enc := newRowEncoder(g, []string{"<a>", "b"})
	for i, ev := range events {
		ref := eventJSON{Adds: []map[string]any{}, Retracts: []map[string]any{}, Watermark: ev.Watermark, Reset: ev.Reset}
		for _, b := range ev.Adds {
			ref.Adds = append(ref.Adds, referenceBinding(g, b))
		}
		for _, b := range ev.Retracts {
			ref.Retracts = append(ref.Retracts, referenceBinding(g, b))
		}
		if got, want := appendSubscribeEvent(nil, enc, ev), referenceJSON(t, ref); !bytes.Equal(got, want) {
			t.Errorf("event %d:\n got %s want %s", i, got, want)
		}
	}
}

// End to end: whole /query response bodies — envelope, count, limit,
// next_cursor, empty result — equal the reflective encoding of the same
// answers, and carry their Content-Length.
func TestQueryResponseMatchesReflectiveEncoder(t *testing.T) {
	g, ids := adversarialGraph(t)
	pred, err := g.AddPredicate(kg.Predicate{Name: "has"})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := g.AddPredicate(kg.Predicate{Name: "never"})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range adversarialValues(ids) {
		if v.Kind == 0 || (v.IsEntity() && g.Entity(v.Entity) == nil) {
			continue // not assertable; the row-level test covers them
		}
		if err := g.Assert(kg.Triple{Subject: ids[i%len(ids)], Predicate: pred, Object: v}); err != nil {
			t.Fatalf("assert %v: %v", v, err)
		}
	}
	p := saga.New(g)
	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	for _, tc := range []struct {
		sVar, oVar, pred string
		limit            int
	}{
		{"s", "o", "has", 1000}, // everything, no cursor
		{"s", "o", "has", 7},    // a full page with next_cursor
		{"<s>", "\u2028\"", "has", 3},
		{"s", "o", "never", 5}, // empty result
	} {
		reqBody, _ := json.Marshal(map[string]any{
			"clauses": []any{map[string]any{
				"subject": map[string]string{"var": tc.sVar}, "predicate": tc.pred, "object": map[string]string{"var": tc.oVar},
			}},
			"limit": tc.limit,
		})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(reqBody)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", tc, rec.Code, rec.Body)
		}

		predID := pred
		if tc.pred == "never" {
			predID = empty
		}
		clauses := []saga.QueryClause{{Subject: saga.QVar(tc.sVar), Predicate: predID, Object: saga.QVar(tc.oVar)}}
		out := make([]map[string]any, 0)
		var last saga.QueryBinding
		more := false
		for b, err := range p.QueryStream(clauses, saga.QueryOptions{Limit: tc.limit + 1}) {
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == tc.limit {
				more = true
				break
			}
			out = append(out, referenceBinding(g, b))
			last = b
		}
		ref := map[string]any{"bindings": out, "count": len(out), "limit": tc.limit}
		if more {
			ref["next_cursor"] = saga.EncodeQueryCursor(saga.QueryBindingKey(last))
		}
		want := referenceJSON(t, ref)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%+v:\n got %s want %s", tc, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
			t.Errorf("%+v: Content-Length %q, body is %d bytes", tc, cl, len(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%+v: Content-Type %q", tc, ct)
		}
	}
}

// BenchmarkQueryPage serves one /query page of 250 from a 5000-member
// posting through the handler into a recorder: the first page of the
// cursor walk and its twentieth. allocs/op is the stable number.
func BenchmarkQueryPage(b *testing.B) {
	const nMembers, pageSize = 5000, 250
	srv, _ := paginationServer(b, nMembers)
	h := srv.Handler()
	clause := `{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"team"}}`
	post := func(cursor string) *httptest.ResponseRecorder {
		body := fmt.Sprintf(`{"clauses":[%s],"limit":%d,"cursor":%q}`, clause, pageSize, cursor)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	// Walk to the last page to learn its cursor.
	lastCursor := ""
	for page := 0; page < nMembers/pageSize-1; page++ {
		rec := post(lastCursor)
		var resp struct {
			Next string `json:"next_cursor"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Next == "" {
			b.Fatalf("page %d: no next_cursor (%v)", page, err)
		}
		lastCursor = resp.Next
	}
	for _, pg := range []struct{ name, cursor string }{{"page-first", ""}, {"page-last", lastCursor}} {
		b.Run(pg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.SetBytes(int64(post(pg.cursor).Body.Len()))
			}
		})
	}
}
