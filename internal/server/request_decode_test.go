package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// The reflective request shapes /query, /subscribe and /annotate decoded
// into before the scanner: kept as the reference it is checked against.

type queryTermJSON struct {
	Var    *string `json:"var,omitempty"`
	Key    *string `json:"key,omitempty"`
	String *string `json:"string,omitempty"`
	Int    *int64  `json:"int,omitempty"`
}

type queryClauseJSON struct {
	Subject   queryTermJSON `json:"subject"`
	Predicate string        `json:"predicate"`
	Object    queryTermJSON `json:"object"`
}

type queryRequest struct {
	Clauses []queryClauseJSON `json:"clauses"`
	Limit   *int              `json:"limit"`
	Cursor  string            `json:"cursor"`
	Explain bool              `json:"explain"`
	AsOf    *uint64           `json:"as_of"`
}

type subscribeRequest struct {
	Clauses    []queryClauseJSON `json:"clauses"`
	CoalesceMS int               `json:"coalesce_ms"`
	Buffer     int               `json:"buffer"`
	MaxPending int               `json:"max_pending"`
}

type annotateRequest struct {
	Text string `json:"text"`
}

var clauseFieldNames = []string{"subject", "predicate", "object", "var", "key", "string", "int"}

// requestRoutes are the three read routes the request scanner serves:
// the fields each decodes, its reference struct, the field names the
// reference binds case-insensitively, and how to compare the two.
var requestRoutes = []struct {
	name   string
	fields uint16
	names  []string
	ref    func() any
	same   func(s *requestScanner, ref any) error
}{
	{"query", queryFields, append([]string{"clauses", "limit", "cursor", "explain", "as_of"}, clauseFieldNames...),
		func() any { return new(queryRequest) },
		func(s *requestScanner, ref any) error {
			r := ref.(*queryRequest)
			if err := sameClauses(s, r.Clauses); err != nil {
				return err
			}
			if (s.set&fieldLimit != 0) != (r.Limit != nil) || (r.Limit != nil && s.limit != int64(*r.Limit)) {
				return fmt.Errorf("limit %d (set %t), reference %v", s.limit, s.set&fieldLimit != 0, r.Limit)
			}
			if (s.set&fieldAsOf != 0) != (r.AsOf != nil) || (r.AsOf != nil && s.asOf != *r.AsOf) {
				return fmt.Errorf("as_of %d (set %t), reference %v", s.asOf, s.set&fieldAsOf != 0, r.AsOf)
			}
			if string(s.cursor) != r.Cursor || s.explain != r.Explain {
				return fmt.Errorf("cursor %q explain %t, reference %q %t", s.cursor, s.explain, r.Cursor, r.Explain)
			}
			return nil
		}},
	{"subscribe", subscribeFields, append([]string{"clauses", "coalesce_ms", "buffer", "max_pending"}, clauseFieldNames...),
		func() any { return new(subscribeRequest) },
		func(s *requestScanner, ref any) error {
			r := ref.(*subscribeRequest)
			if err := sameClauses(s, r.Clauses); err != nil {
				return err
			}
			if s.coalesceMS != int64(r.CoalesceMS) || s.buffer != int64(r.Buffer) || s.maxPending != int64(r.MaxPending) {
				return fmt.Errorf("coalesce_ms/buffer/max_pending %d/%d/%d, reference %d/%d/%d",
					s.coalesceMS, s.buffer, s.maxPending, r.CoalesceMS, r.Buffer, r.MaxPending)
			}
			return nil
		}},
	{"annotate", annotateFields, []string{"text"},
		func() any { return new(annotateRequest) },
		func(s *requestScanner, ref any) error {
			if r := ref.(*annotateRequest); string(s.text) != r.Text {
				return fmt.Errorf("text %q, reference %q", s.text, r.Text)
			}
			return nil
		}},
}

// sameClauses compares the scanned clauses with the reference's: the
// count, and every clause the scanner keeps (the first
// maxQueryClauses+1).
func sameClauses(s *requestScanner, ref []queryClauseJSON) error {
	if s.nClauses != len(ref) || len(s.clauses) != min(len(ref), maxQueryClauses+1) {
		return fmt.Errorf("%d clauses (%d kept), reference has %d", s.nClauses, len(s.clauses), len(ref))
	}
	for i, c := range s.clauses {
		r := ref[i]
		if string(c.predicate) != r.Predicate {
			return fmt.Errorf("clause %d: predicate %q, reference %q", i, c.predicate, r.Predicate)
		}
		if err := sameTerm(c.subject, r.Subject); err != nil {
			return fmt.Errorf("clause %d: subject %w", i, err)
		}
		if err := sameTerm(c.object, r.Object); err != nil {
			return fmt.Errorf("clause %d: object %w", i, err)
		}
	}
	return nil
}

// checkRequestAgainstReference holds one input to the differential
// contract, for each of the three routes: whatever the scanner accepts,
// json.Unmarshal into the old struct accepts with the same fields; and
// whatever that reference accepts with exact-case, unrepeated keys, the
// scanner accepts.
func checkRequestAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	var s requestScanner
	for _, route := range requestRoutes {
		scanErr := s.scan(data, route.fields)
		ref := route.ref()
		refErr := json.Unmarshal(data, ref)
		caseVariant, repeated := keyProfileOf(data, route.names)
		switch {
		case scanErr == nil && refErr != nil:
			if !caseVariant {
				t.Fatalf("%s: scanner accepted %q, reference rejects it: %v", route.name, data, refErr)
			}
		case scanErr == nil && !caseVariant:
			if err := route.same(&s, ref); err != nil {
				t.Fatalf("%s: %q: %v", route.name, data, err)
			}
		case scanErr != nil && refErr == nil && !caseVariant && !repeated:
			t.Fatalf("%s: scanner rejected %q (%v), reference accepts it", route.name, data, scanErr)
		}
	}
}

// requestDecodeSeeds exercise every field of the three requests, well
// formed and not; the table test and the fuzz seed corpus draw on them.
var requestDecodeSeeds = []string{
	`{"clauses":[{"subject":{"var":"p"},"predicate":"occupation","object":{"key":"occ3"}}],"limit":50}`,
	`{"clauses":[{"subject":{"key":"person1"},"predicate":"collaborator","object":{"var":"o"}},{"subject":{"var":"o"},"predicate":"memberOf","object":{"var":"t"}}],"limit":500,"cursor":"AAEC"}`,
	` { "as_of" : 18446744073709551615 , "explain" : true , "cursor" : null , "limit" : null , "clauses" : [ null , { } ] } `,
	`{"clauses":[{"subject":{"int":-9223372036854775808},"predicate":"p","object":{"string":"x\ty\u00e9\ud83d\ude00"}}],"limit":-0,"explain":false,"as_of":0}`,
	`{"clauses":[{"subject":{"var":"a","key":"b"},"predicate":"p","object":{"string":"s","int":1,"var":null}},{"subject":{},"object":null}]}`,
	"{\"clauses\":[{\"subject\":{\"var\":\"caf\xc3\xa9\xff\"},\"predicate\":\"bad\xed\xa0\x80\",\"object\":{\"key\":\"\\ud800x\"}}]}",
	`{"meta":{"a":[1,2.5e-3,{"b":[true,false,null,"s"]}]},"clauses":[{"subject":{"var":"p","why":[0]},"note":{},"predicate":"p","object":{"var":"o"}}],"tail":"x"}`,
	`{"clauses":[],"coalesce_ms":25,"buffer":16,"max_pending":4096}`,
	`{"clauses":null,"coalesce_ms":-1,"buffer":null,"max_pending":9223372036854775807}`,
	`{"limit":4294967296,"coalesce_ms":-2147483649,"buffer":2147483648,"as_of":4294967296}`,
	`{"text":"Mary Jordan received the Basketball Player Award in Akron."}`,
	`{"text":"<b>\u2028 \"q\" \\ \/ \b\f\n\r\t</b>","extra":[{"text":5}]}`,
	`{"text":null,"clauses":"not a list"}`,
	`{"text":5}`,
	`{"text":["x"]}`,
	`{"limit":1.5}`,
	`{"limit":1e2}`,
	`{"limit":"5"}`,
	`{"limit":99999999999999999999}`,
	`{"as_of":-1}`,
	`{"as_of":18446744073709551616}`,
	`{"as_of":1.0}`,
	`{"explain":"true"}`,
	`{"explain":1}`,
	`{"explain":tru}`,
	`{"cursor":5}`,
	`{"buffer":1.5}`,
	`{"coalesce_ms":"1"}`,
	`{"max_pending":9223372036854775808}`,
	`{"clauses":{}}`,
	`{"clauses":[5]}`,
	`{"clauses":["x"]}`,
	`{"clauses":[[]]}`,
	`{"clauses":[{"subject":"p"}]}`,
	`{"clauses":[{"subject":{"var":5}}]}`,
	`{"clauses":[{"predicate":{}}]}`,
	`{"clauses":[{"object":{"int":"1"}}]}`,
	`{"clauses":[{"object":{"int":1e3}}]}`,
	`{"clauses":[{"object":{"int":-}}]}`,
	`{"clauses":[],"clauses":[]}`,
	`{"limit":1,"limit":2}`,
	`{"text":"a","text":"b"}`,
	`{"clauses":[{"subject":{"var":"a"},"subject":{"var":"b"}}]}`,
	`{"clauses":[{"object":{"var":"a","var":"b"}}]}`,
	`{"x":1,"x":2,"clauses":[{"y":{"z":1,"z":2}}]}`,
	`{"Clauses":[{"Subject":{"VAR":"p"}}],"LIMIT":"x","Text":"t","As_Of":-1}`,
	`{"clauses":[{"subject":{"var":"p"},"predicate":"p","object":{"Key":"b"}}]}`,
	`{"clauses":[]} x`,
	`{"text":"x"}{}`,
	`{"clauses":[],}`,
	`{"clauses":[{},]}`,
	`{"clauses" []}`,
	`{"text":"a` + "\x01" + `"}`,
	`{"text":"a\q"}`,
	`{"text":"a\u12G4"}`,
	`{"text":"a\`,
	`null`,
	`{}`,
	``,
	` `,
	`[]`,
	`"text"`,
	"{\"text\":\"x\"}\x00",
}

func TestRequestScannerMatchesReference(t *testing.T) {
	for _, seed := range requestDecodeSeeds {
		checkRequestAgainstReference(t, []byte(seed))
	}
	// Past the clause cap the scanner keeps maxQueryClauses+1 clauses and
	// counts the rest.
	clause := `{"subject":{"var":"p"},"predicate":"occupation","object":{"var":"o"}}`
	for _, n := range []int{maxQueryClauses, maxQueryClauses + 1, maxQueryClauses + 2, 500} {
		checkRequestAgainstReference(t, []byte(`{"clauses":[`+strings.TrimSuffix(strings.Repeat(clause+",", n), ",")+`]}`))
	}
	// Nesting: encoding/json's depth limit holds inside unknown fields.
	for _, depth := range []int{maxJSONDepth - 2, maxJSONDepth - 1, maxJSONDepth, 200000} {
		checkRequestAgainstReference(t, []byte(`{"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`))
		checkRequestAgainstReference(t, []byte(`{"x":`+strings.Repeat(`{"a":`, depth)))
	}
	// Every proper prefix of a valid body is rejected.
	body := []byte(requestDecodeSeeds[1][:len(requestDecodeSeeds[1])-1] + `,"explain":false,"as_of":7,"text":"é\"","coalesce_ms":3}`)
	var s requestScanner
	for cut := 0; cut < len(body); cut++ {
		if err := s.scan(body[:cut], queryFields); err == nil {
			t.Fatalf("prefix %q accepted", body[:cut])
		}
		checkRequestAgainstReference(t, body[:cut])
	}
	checkRequestAgainstReference(t, body)
}

// FuzzDecodeQuery holds the request scanner to the differential contract
// (see checkRequestAgainstReference) for /query, /subscribe and /annotate
// on whatever the fuzzer finds; it must never panic. Seed corpus:
// testdata/fuzz/FuzzDecodeQuery.
func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range requestDecodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestAgainstReference(t, data)
	})
}

// The scanner's three documented strictness differences, end to end:
// each is a 400 on every route that takes a body, where encoding/json
// either bound the key (case), let the last one win (repeat) or ignored
// the rest (a streaming decoder and data after the document).
func TestRequestScannerStrictness(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()
	good := `{"clauses":[{"subject":{"var":"p"},"predicate":"occupation","object":{"var":"o"}}]`
	for _, tc := range []struct {
		path, body string
		code       int
		msg        string
	}{
		{"/query", `{"Clauses":[]}`, 400, "no clauses"},
		{"/query", good + `,"Limit":0}`, 200, ""},
		{"/query", good + `,"limit":5,"limit":6}`, 400, "decode request: repeated key"},
		{"/query", good + `} {}`, 400, "decode request: unexpected data after the document"},
		{"/subscribe", `{"CLAUSES":[]}`, 400, "no clauses"},
		{"/subscribe", good + `,"buffer":1,"buffer":2}`, 400, "decode request: repeated key"},
		{"/subscribe", good + `}x`, 400, "decode request: unexpected data after the document"},
		{"/annotate", `{"Text":"Mary"}`, 400, "empty text"},
		{"/annotate", `{"text":"Mary","text":"Jordan"}`, 400, "decode request: repeated key"},
		{"/annotate", `{"text":"Mary"} {"text":"Jordan"}`, 400, "decode request: unexpected data after the document"},
	} {
		rec, resp := do(t, h, "POST", tc.path, tc.body)
		got, _ := resp["error"].(string)
		if rec.Code != tc.code || !strings.HasPrefix(got, tc.msg) {
			t.Errorf("%s %s: %d %q, want %d %q", tc.path, tc.body, rec.Code, got, tc.code, tc.msg)
		}
	}
	if n := srv.Platform.SubscriptionStats().Subscribers; n != 0 {
		t.Errorf("%d subscriptions left open", n)
	}
}
