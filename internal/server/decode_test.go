package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"saga/internal/kg"
)

// The reflective request shape /ingest decoded into before the scanner:
// kept as the reference the scanner is checked against.
type refIngestTriple struct {
	Subject   string        `json:"subject"`
	Predicate string        `json:"predicate"`
	Object    queryTermJSON `json:"object"`
}

type refIngestRequest struct {
	Asserts  []refIngestTriple `json:"asserts"`
	Retracts []refIngestTriple `json:"retracts"`
}

// sameOps compares what the scanner produced with what encoding/json
// decoded. A term that set both key and string keeps only the later
// payload in the scanner (it is malformed either way), so payloads are
// compared for well-formed terms only.
func sameOps(ops []ingestOp, ref []refIngestTriple) error {
	if len(ops) != len(ref) {
		return fmt.Errorf("%d ops, reference has %d", len(ops), len(ref))
	}
	for i, op := range ops {
		r := ref[i]
		if string(op.subject) != r.Subject || string(op.predicate) != r.Predicate {
			return fmt.Errorf("op %d: (%q, %q), reference (%q, %q)", i, op.subject, op.predicate, r.Subject, r.Predicate)
		}
		var set uint8
		if r.Object.Var != nil {
			set |= termVar
		}
		if r.Object.Key != nil {
			set |= termKey
		}
		if r.Object.String != nil {
			set |= termString
		}
		if r.Object.Int != nil {
			set |= termInt
		}
		if op.object.set != set {
			return fmt.Errorf("op %d: object fields %04b, reference %04b", i, op.object.set, set)
		}
		switch set {
		case termKey:
			if string(op.object.text) != *r.Object.Key {
				return fmt.Errorf("op %d: key %q, reference %q", i, op.object.text, *r.Object.Key)
			}
		case termString:
			if string(op.object.text) != *r.Object.String {
				return fmt.Errorf("op %d: string %q, reference %q", i, op.object.text, *r.Object.String)
			}
		case termInt:
			if op.object.num != *r.Object.Int {
				return fmt.Errorf("op %d: int %d, reference %d", i, op.object.num, *r.Object.Int)
			}
		}
	}
	return nil
}

var ingestFieldNames = []string{"asserts", "retracts", "subject", "predicate", "object", "var", "key", "string", "int"}

// keyProfile walks a document (if it is valid JSON) and reports the two properties the
// scanner is documented to treat more strictly than encoding/json: a key
// that matches a field name only case-insensitively (the reference binds
// it, the scanner skips it as unknown) and a key repeated within one
// object (the reference lets the last one win or merges, the scanner
// rejects a repeated known key).
func keyProfile(data []byte) (caseVariant, repeated bool) {
	if !json.Valid(data) {
		return false, false
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var walk func()
	walk = func() {
		tok, err := dec.Token()
		if err != nil {
			return
		}
		switch tok {
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				k, _ := dec.Token()
				key, _ := k.(string)
				if seen[key] {
					repeated = true
				}
				seen[key] = true
				for _, name := range ingestFieldNames {
					if key != name && strings.EqualFold(key, name) {
						caseVariant = true
					}
				}
				walk()
			}
			_, _ = dec.Token()
		case json.Delim('['):
			for dec.More() {
				walk()
			}
			_, _ = dec.Token()
		}
	}
	walk()
	return caseVariant, repeated
}

// checkAgainstReference holds one input to the differential contract:
// whatever the scanner accepts, json.Unmarshal into the old struct shape
// accepts with the same triples; and whatever that reference accepts
// with exact-case, unrepeated keys and a batch within the op cap, the
// scanner accepts.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	var s ingestScanner
	scanErr := s.scan(data)
	var ref refIngestRequest
	refErr := json.Unmarshal(data, &ref)
	caseVariant, repeated := keyProfile(data)
	switch {
	case scanErr == nil && refErr != nil:
		if !caseVariant {
			t.Fatalf("scanner accepted %q, reference rejects it: %v", data, refErr)
		}
	case scanErr == nil && !caseVariant:
		if err := sameOps(s.asserts, ref.Asserts); err != nil {
			t.Fatalf("asserts of %q: %v", data, err)
		}
		if err := sameOps(s.retracts, ref.Retracts); err != nil {
			t.Fatalf("retracts of %q: %v", data, err)
		}
	case scanErr != nil && refErr == nil && !caseVariant && !repeated &&
		len(ref.Asserts)+len(ref.Retracts) <= maxIngestOps:
		t.Fatalf("scanner rejected %q (%v), reference accepts it", data, scanErr)
	}
}

// ingestDecodeSeeds are well-formed and malformed bodies exercising every
// branch of the scanner; the table test, the truncation test and the
// fuzz seed corpus all draw on them.
var ingestDecodeSeeds = []string{
	`{"asserts":[{"subject":"a","predicate":"p","object":{"key":"b"}}],"retracts":[{"subject":"c","predicate":"q","object":{"int":-42}}]}`,
	` { "retracts" : null , "asserts" : [ { "object" : { "string" : "x\ty" } , "predicate" : "p" , "subject" : "a" } ] } `,
	"{\n\t\"asserts\": [\r\n null, {} , {\"subject\":null,\"predicate\":null,\"object\":null}]}",
	`{"asserts":[{"subject":"a\"\\\/\b\f\n\r\t","predicate":"😀","object":{"string":"\ud800x\udc00\ud83dzé"}}]}`,
	"{\"asserts\":[{\"subject\":\"caf\xc3\xa9\",\"predicate\":\"bad\xff\xfeutf8\xed\xa0\x80\",\"object\":{\"key\":\"\xe2\x82\"}}]}",
	`{"asserts":[{"subject":"a","predicate":"p","object":{"key":"b"}}]}`,
	`{"meta":{"a":[1,2.5e-3,{"b":[true,false,null,"s"]}],"c":-0},"asserts":[{"subject":"a","note":[[],{}],"predicate":"p","object":{"key":"b","why":{"x":[0]}}}],"tail":"x"}`,
	`{"asserts":[{"subject":"a","predicate":"p","object":{"key":"b","string":"c"}},{"subject":"a","predicate":"p","object":{"var":"x"}},{"subject":"a","predicate":"p","object":{"var":"x","int":1}},{"subject":"a","predicate":"p","object":{}}]}`,
	`{"asserts":[{"subject":"a","predicate":"p","object":{"int":9223372036854775807}},{"subject":"a","predicate":"p","object":{"int":-9223372036854775808}},{"subject":"a","predicate":"p","object":{"int":-0}}]}`,
	`{"asserts":[{"subject":"a","predicate":"p","object":{"key":null,"string":"s","int":null,"var":null}}]}`,
	`null`,
	`{}`,
	``,
	` `,
	`{bad`,
	`[]`,
	`"asserts"`,
	`{"asserts":{}}`,
	`{"asserts":[5]}`,
	`{"asserts":[{"subject":5}]}`,
	`{"asserts":[{"object":"b"}]}`,
	`{"asserts":[{"object":{"key":5}}]}`,
	`{"asserts":[{"object":{"int":"5"}}]}`,
	`{"asserts":[{"object":{"int":1.0}}]}`,
	`{"asserts":[{"object":{"int":1e3}}]}`,
	`{"asserts":[{"object":{"int":9223372036854775808}}]}`,
	`{"asserts":[{"object":{"int":01}}]}`,
	`{"asserts":[{"object":{"int":-}}]}`,
	`{"asserts":[],"asserts":[]}`,
	`{"asserts":[{"subject":"a","subject":"b"}]}`,
	`{"asserts":[{"object":{"key":"a"},"object":{"string":"b"}}]}`,
	`{"asserts":[{"object":{"key":"a","key":"b"}}]}`,
	`{"x":1,"x":2,"asserts":[{"y":{"z":1,"z":2}}]}`,
	`{"Asserts":[{"subject":"a"}],"RETRACTS":[{"Subject":"b"}]}`,
	`{"asserts":[{"subject":"a","Predicate":"p","object":{"KEY":"b"}}]}`,
	`{"asserts":[]} x`,
	`{"asserts":[]}{}`,
	`{"asserts":[],}`,
	`{"asserts":[{},]}`,
	`{"asserts":[{}{}]}`,
	`{"asserts" [{}]}`,
	`{"asserts":[{"subject":"a` + "\x01" + `"}]}`,
	`{"asserts":[{"subject":"a\q"}]}`,
	`{"asserts":[{"subject":"a\u12G4"}]}`,
	`{"asserts":[{"subject":"a\u12"}]}`,
	`{"asserts":[{"subject":"a\`,
	`{"x":tru}`,
	`{"x":nul`,
	`{"x":1.}`,
	`{"x":1e}`,
	`{"x":.5}`,
	`{"x":+1}`,
	"{\"x\":1}\x00",
	`{"x":"` + strings.Repeat("\\ud83d", 3) + `"}`,
}

func TestIngestScannerMatchesReference(t *testing.T) {
	for _, seed := range ingestDecodeSeeds {
		checkAgainstReference(t, []byte(seed))
	}
	// Nesting: encoding/json accepts depth 10000 and rejects 10001, inside
	// an unknown field as anywhere; the recursion survives a depth bomb.
	for _, depth := range []int{maxJSONDepth - 2, maxJSONDepth - 1, maxJSONDepth, 200000} {
		nested := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		checkAgainstReference(t, []byte(nested))
		checkAgainstReference(t, []byte(`{"x":`+strings.Repeat(`{"a":`, depth)))
	}
	var s ingestScanner
	if err := s.scan([]byte(`{"x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `}`)); err != nil {
		t.Fatalf("depth %d rejected: %v", maxJSONDepth, err)
	}
	if err := s.scan([]byte(`{"x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `}`)); err == nil {
		t.Fatalf("depth %d accepted", maxJSONDepth+1)
	}
}

// FuzzDecodeIngest holds the scanner to the differential contract (see
// checkAgainstReference) on whatever the fuzzer finds; it must never
// panic. Seed corpus: testdata/fuzz/FuzzDecodeIngest.
func FuzzDecodeIngest(f *testing.F) {
	for _, seed := range ingestDecodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// TestIngestStatusesAndMessages pins every status/message pair of the
// endpoint: the resolution errors word for word as the reflective
// decoder's handler reported them, the decode errors by status and
// prefix, and that no rejected request touches the graph.
func TestIngestStatusesAndMessages(t *testing.T) {
	srv, w := ingestServer(t)
	h, g := srv.Handler(), w.Graph
	a, b := g.Entity(w.People[0]).Key, g.Entity(w.People[1]).Key
	triple := func(subj, pred, obj string) string {
		return `{"subject":"` + subj + `","predicate":"` + pred + `","object":` + obj + `}`
	}
	good := triple(a, "collaborator", `{"key":"`+b+`"}`)
	var overCap strings.Builder
	overCap.WriteString(`{"retracts":[` + good)
	for i := 0; i < maxIngestOps; i++ {
		overCap.WriteString("," + good)
	}

	for _, tc := range []struct {
		name, body string
		code       int
		msg        string // exact error text; a trailing * matches as a prefix
	}{
		{"empty object", `{}`, 400, "no mutations"},
		{"null document", `null`, 400, "no mutations"},
		{"null arrays", `{"asserts":null,"retracts":null}`, 400, "no mutations"},
		{"case-variant field is unknown", `{"Asserts":[` + good + `]}`, 400, "no mutations"},
		{"unknown subject", `{"asserts":[` + triple("nope", "collaborator", `{"key":"`+b+`"}`) + `]}`, 404, `triple 0: unknown subject key "nope"`},
		{"unknown predicate", `{"asserts":[` + triple(a, "nope", `{"key":"`+b+`"}`) + `]}`, 404, `triple 0: unknown predicate "nope"`},
		{"variable object", `{"asserts":[` + triple(a, "collaborator", `{"var":"x"}`) + `]}`, 400, "triple 0: object must be a constant term"},
		{"variable beside a constant", `{"asserts":[` + triple(a, "collaborator", `{"key":"`+b+`","var":"x"}`) + `]}`, 400, "triple 0: object must be a constant term"},
		{"two term kinds", `{"asserts":[` + triple(a, "collaborator", `{"key":"`+b+`","int":1}`) + `]}`, 400, "triple 0 object: term must set exactly one of var/key/string/int"},
		{"empty term", `{"asserts":[` + triple(a, "collaborator", `{}`) + `]}`, 400, "triple 0 object: term must set exactly one of var/key/string/int"},
		{"null term", `{"asserts":[` + triple(a, "collaborator", `null`) + `]}`, 400, "triple 0 object: term must set exactly one of var/key/string/int"},
		{"missing term", `{"asserts":[{"subject":"` + a + `","predicate":"collaborator"}]}`, 400, "triple 0 object: term must set exactly one of var/key/string/int"},
		{"unknown object key", `{"asserts":[` + triple(a, "collaborator", `{"key":"nope"}`) + `]}`, 400, `triple 0 object: unknown entity key "nope"`},
		{"null triple", `{"asserts":[null]}`, 404, `triple 0: unknown subject key ""`},
		{"bad triple second", `{"asserts":[` + good + `,` + triple("nope", "collaborator", `{"key":"`+b+`"}`) + `]}`, 404, `triple 1: unknown subject key "nope"`},
		{"retracts number after asserts", `{"retracts":[` + good + `,` + triple(a, "nope", `{"int":1}`) + `],"asserts":[` + good + `]}`, 404, `triple 2: unknown predicate "nope"`},
		{"a syntax error outranks an earlier unknown key", `{"asserts":[` + triple("nope", "collaborator", `{"int":1}`) + `],`, 400, "decode request: *"},
		{"malformed", `{bad`, 400, "decode request: *"},
		{"empty body", ``, 400, "decode request: *"},
		{"array document", `[]`, 400, "decode request: *"},
		{"wrong field type", `{"asserts":[{"subject":5}]}`, 400, "decode request: *"},
		{"fractional int", `{"asserts":[` + triple(a, "followers", `{"int":1.5}`) + `]}`, 400, "decode request: *"},
		{"int out of range", `{"asserts":[` + triple(a, "followers", `{"int":9223372036854775808}`) + `]}`, 400, "decode request: *"},
		{"repeated key", `{"asserts":[` + good + `],"asserts":[]}`, 400, "decode request: repeated key*"},
		{"repeated object", `{"asserts":[{"subject":"` + a + `","predicate":"collaborator","object":{"key":"` + b + `"},"object":{"string":"x"}}]}`, 400, "decode request: repeated key*"},
		{"trailing garbage", `{"asserts":[` + good + `]} {}`, 400, "decode request: unexpected data after the document*"},
		{"depth bomb", `{"x":` + strings.Repeat("[", 300000), 400, "decode request: exceeded max depth*"},
		{"oversized body", `{"asserts":[{"subject":"` + strings.Repeat("x", maxQueryBodyBytes) + `"}]}`, 413, "request body exceeds 1048576 bytes"},
		{"over the op cap", overCap.String() + `]}`, 400, "decode request: batch exceeds the maximum of 1000 mutations*"},
		// Op 1 001 rejects the request on the spot: whatever follows it —
		// here, garbage — is never decoded.
		{"over the op cap, early", overCap.String() + `{bad`, 400, "decode request: batch exceeds the maximum of 1000 mutations*"},
	} {
		triples, seq := g.NumTriples(), g.LastSeq()
		rec, resp := do(t, h, "POST", "/ingest", tc.body)
		got, _ := resp["error"].(string)
		want, prefix := strings.CutSuffix(tc.msg, "*")
		if rec.Code != tc.code || (prefix && !strings.HasPrefix(got, want)) || (!prefix && got != want) {
			t.Errorf("%s: %d %q, want %d %q", tc.name, rec.Code, got, tc.code, tc.msg)
		}
		if g.NumTriples() != triples || g.LastSeq() != seq {
			t.Errorf("%s: rejected request mutated the graph", tc.name)
		}
	}

	// Accepted shapes: escapes and surrogate pairs decode to the strings
	// they spell, unknown and nested-unknown fields are skipped, fields
	// come in any order around arbitrary whitespace.
	escapedA := ""
	for _, c := range a {
		escapedA += fmt.Sprintf(`\u%04x`, c)
	}
	body := ` {"trace":{"id":[1,{"x":null}],"ok":true},
		"retracts": null,
		"asserts":[
		 {"object":{"string":"grüß 😀 \"q\"\n"},"predicate":"libraryID","subject":"` + escapedA + `","conf":0.5e1},
		 {"subject":"` + a + `","predicate":"followers","object":{"int":-0,"unit":[]}}
		]} `
	rec, resp := do(t, h, "POST", "/ingest", body)
	if rec.Code != http.StatusOK || resp["added"].(float64) != 2 {
		t.Fatalf("escaped body: %d %v", rec.Code, resp)
	}
	lib, _ := g.PredicateByName("libraryID")
	fol, _ := g.PredicateByName("followers")
	if !g.HasFact(w.People[0], lib.ID, kg.StringValue("grüß 😀 \"q\"\n")) || !g.HasFact(w.People[0], fol.ID, kg.IntValue(0)) {
		t.Fatalf("decoded literals not in the graph: %v", g.Facts(w.People[0], lib.ID))
	}

	// The response is byte for byte the reflective encoding of the old
	// map, newline included, and now carries its Content-Length.
	want := referenceJSON(t, map[string]any{"added": 2, "retracted": 0, "watermark": g.LastSeq()})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("response %q, want %q", got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("headers: Content-Length %q Content-Type %q", cl, rec.Header().Get("Content-Type"))
	}
}

// TestIngestBodyCutAtEveryOffset truncates a valid batch at every byte:
// each prefix is rejected without a panic and without applying any part
// of the batch; only the whole body applies.
func TestIngestBodyCutAtEveryOffset(t *testing.T) {
	srv, w := ingestServer(t)
	h, g := srv.Handler(), w.Graph
	a, b := g.Entity(w.People[0]).Key, g.Entity(w.People[1]).Key
	body := `{"asserts":[{"subject":"` + a + `","predicate":"collaborator","object":{"key":"` + b + `"}},` +
		`{"subject":"` + a + `","predicate":"libraryID","object":{"string":"😀é\\"},"x":[1.5e+2,true,null]}],` +
		`"retracts":[{"subject":"` + b + `","predicate":"followers","object":{"int":-12}}]}`
	triples, seq := g.NumTriples(), g.LastSeq()
	for cut := 0; cut < len(body); cut++ {
		rec, _ := do(t, h, "POST", "/ingest", body[:cut])
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body cut at %d (%q): status %d", cut, body[:cut], rec.Code)
		}
		if g.NumTriples() != triples || g.LastSeq() != seq {
			t.Fatalf("body cut at %d applied part of the batch", cut)
		}
		checkAgainstReference(t, []byte(body[:cut]))
	}
	if rec, resp := do(t, h, "POST", "/ingest", body); rec.Code != http.StatusOK || resp["added"].(float64) != 2 {
		t.Fatalf("whole body: %d %v", rec.Code, resp)
	}
}
