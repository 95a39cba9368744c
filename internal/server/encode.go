package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"saga/internal/embedserve"
	"saga/internal/kg"
	"saga/internal/websearch"
	"saga/saga"
)

// Append-style encoding of the serving path's answers. /query and
// /subscribe render the same rows — one JSON object per answer,
// variables in sorted order, entity values as {"key","name"} objects and
// literals as their string form — and /entity, /related, /search,
// /annotate and /rank render their objects field by field, all straight
// into one pooled byte buffer: no per-row maps, no reflection. An
// entity's "key" and "name" members, in a binding, a /related entry or
// an annotation, are appended from the server's memo (entityMemo,
// names.go), escaped once per record. The bytes
// are exactly what json.NewEncoder(w).Encode produced from the map and
// struct shapes these functions replaced — field order, omitempty, its
// default HTML-safe escaping, its float format and trailing newline
// included — which encode_test.go and response_encode_test.go pin
// differentially and under fuzzing.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped the way
// encoding/json escapes with its default EscapeHTML: `"` and `\`
// backslashed; \b \f \n \r \t short escapes; other control bytes and
// `<`, `>`, `&` as \u00XX; U+2028 and U+2029 as \u2028 / \u2029; each
// byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = appendEscaped(append(dst, '"'), s)
	return append(dst, '"')
}

// appendEscaped appends the body of s's JSON string literal, unquoted.
// Escaping is per rune, so the literal of a concatenation joined by an
// ASCII separator is the pieces' bodies joined by it.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		// Skip the run of bytes that stand for themselves; the run up to
		// the next byte that does not is appended whole.
		for i < len(s) && plainByte[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// plainByte[b] reports whether the ASCII byte b stands for itself in a
// JSON string literal: not a control byte, `"`, `\`, `<`, `>` or `&`.
// Bytes from utf8.RuneSelf up start a multi-byte rune, which
// appendEscaped decodes, and are not plain.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// rowEncoder appends the answers of one query as JSON objects. The
// variable names are escaped once, up front; an entity value's members
// come from names, checked against the graph's current record as they
// are appended.
type rowEncoder struct {
	g     *saga.Graph
	names *entityMemo // nil: every entity rendered afresh
	vars  []string
	keys  []byte     // per variable `"name":`, ready to append, back to back
	ends  []int      // where each variable's key ends in keys
	vals  []kg.Value // appendBinding's row scratch
}

// newRowEncoder prepares an encoder for rows over vars (the query's
// variables in sorted order — saga.QueryRow.Vars).
func newRowEncoder(g *saga.Graph, vars []string) *rowEncoder {
	e := new(rowEncoder)
	e.reset(g, vars)
	return e
}

// reset prepares e for rows over vars, reusing its buffers.
func (e *rowEncoder) reset(g *saga.Graph, vars []string) {
	e.g, e.vars, e.keys, e.ends = g, vars, e.keys[:0], e.ends[:0]
	for _, name := range vars {
		e.keys = append(appendJSONString(e.keys, name), ':')
		e.ends = append(e.ends, len(e.keys))
	}
}

// appendRow appends one answer: {"var":value,...} in variable order.
func (e *rowEncoder) appendRow(dst []byte, vals []kg.Value) []byte {
	dst = append(dst, '{')
	start := 0
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, e.keys[start:e.ends[i]]...)
		start = e.ends[i]
		dst = e.appendValue(dst, v)
	}
	return append(dst, '}')
}

// appendBinding appends an answer held as a variable → value map (the
// subscription events' form) exactly as appendRow appends its row.
func (e *rowEncoder) appendBinding(dst []byte, b saga.QueryBinding) []byte {
	e.vals = e.vals[:0]
	for _, name := range e.vars {
		e.vals = append(e.vals, b[name])
	}
	return e.appendRow(dst, e.vals)
}

// appendBindings appends a JSON array of answers.
func (e *rowEncoder) appendBindings(dst []byte, bs []saga.QueryBinding) []byte {
	dst = append(dst, '[')
	for i, b := range bs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = e.appendBinding(dst, b)
	}
	return append(dst, ']')
}

// appendValue renders one value: an entity the dictionary knows becomes
// {"key":...,"name":...}; everything else is the JSON string of
// kg.Value.String().
func (e *rowEncoder) appendValue(dst []byte, v kg.Value) []byte {
	if v.IsEntity() {
		if obj, ok := e.names.appendMembers(append(dst, '{'), e.g, v.Entity); ok {
			return append(obj, '}')
		}
	}
	return appendJSONString(dst, v.String())
}

// factPair is one (predicate, object) pair of an entity's facts.
type factPair struct {
	pred kg.PredicateID
	obj  kg.Value
}

var factPairPool = sync.Pool{New: func() any { return new([]factPair) }}

// appendEntity renders e as the object /entity has always answered:
// id, key, name, aliases, description, popularity, types and facts in
// that order, the empty ones among aliases, description, types and facts
// left out, and each fact as the string "<predicate> = <object>".
func appendEntity(j *jsonBuf, g *saga.Graph, e *kg.Entity) {
	j.raw(`{"id":`)
	j.uint(uint64(uint32(e.ID)))
	j.field(`,"key":`, e.Key)
	j.field(`,"name":`, e.Name)
	if len(e.Aliases) > 0 {
		j.raw(`,"aliases":[`)
		for i, a := range e.Aliases {
			if i > 0 {
				j.raw(",")
			}
			j.str(a)
		}
		j.raw("]")
	}
	if e.Description != "" {
		j.field(`,"description":`, e.Description)
	}
	j.floatField(`,"popularity":`, e.Popularity)
	if len(e.Types) > 0 {
		j.raw(`,"types":[`)
		for i, t := range e.Types {
			if i > 0 {
				j.raw(",")
			}
			j.str(g.Ontology().Name(t))
		}
		j.raw("]")
	}
	// Collect (predicate, object) pairs under one read-lock pass, then
	// resolve names after the visitor returns so the render lookups don't
	// run while the graph lock is held.
	pp := factPairPool.Get().(*[]factPair)
	pairs := (*pp)[:0]
	g.OutgoingFunc(e.ID, func(tr kg.Triple) bool {
		pairs = append(pairs, factPair{pred: tr.Predicate, obj: tr.Object})
		return true
	})
	facts := 0
	for _, pv := range pairs {
		p := g.Predicate(pv.pred)
		if p == nil {
			continue
		}
		if facts++; facts == 1 {
			j.raw(`,"facts":["`)
		} else {
			j.raw(`","`)
		}
		j.b = appendEscaped(j.b, p.Name)
		j.raw(" = ")
		if oe := entityOf(g, pv.obj); oe != nil {
			j.b = appendEscaped(j.b, oe.Name)
		} else {
			j.b = appendEscaped(j.b, pv.obj.String())
		}
	}
	if facts > 0 {
		j.raw(`"]`)
	}
	j.raw("}\n")
	clear(pairs) // drop the string literals
	*pp = pairs[:0]
	factPairPool.Put(pp)
}

// entityOf returns the entity a value names, or nil for a literal or an
// entity the dictionary does not know.
func entityOf(g *saga.Graph, v kg.Value) *kg.Entity {
	if !v.IsEntity() {
		return nil
	}
	return g.Entity(v.Entity)
}

// appendAnnotations renders /annotate's answer.
func appendAnnotations(j *jsonBuf, g *saga.Graph, anns []saga.Annotation) {
	j.raw(`{"annotations":[`)
	for i, a := range anns {
		if i > 0 {
			j.raw(",")
		}
		j.raw(`{"start":`)
		j.int(a.Start)
		j.raw(`,"end":`)
		j.int(a.End)
		j.field(`,"surface":`, a.Surface)
		j.raw(`,"entity":`)
		j.uint(uint64(uint32(a.Entity)))
		j.raw(",")
		j.entity(g, a.Entity)
		j.floatField(`,"score":`, a.Score)
		j.raw("}")
	}
	j.raw("]}\n")
}

// appendRanked renders /rank's answer.
func appendRanked(j *jsonBuf, g *saga.Graph, ranked []saga.RankedFact) {
	j.raw(`{"ranked":[`)
	for i, rf := range ranked {
		if i > 0 {
			j.raw(",")
		}
		j.raw(`{"object":`)
		if oe := entityOf(g, rf.Triple.Object); oe != nil {
			j.str(oe.Name)
		} else {
			j.str(rf.Triple.Object.String())
		}
		j.floatField(`,"score":`, rf.Score)
		j.raw("}")
	}
	j.raw("]}\n")
}

// appendRelated renders /related's answer.
func appendRelated(j *jsonBuf, g *saga.Graph, rel []embedserve.ScoredEntity) {
	j.raw(`{"related":[`)
	for i, se := range rel {
		if i > 0 {
			j.raw(",")
		}
		j.raw("{")
		j.entity(g, se.ID)
		j.floatField(`,"score":`, se.Score)
		j.raw("}")
	}
	j.raw("]}\n")
}

// appendHits renders /search's answer.
func appendHits(j *jsonBuf, hits []websearch.Hit) {
	j.raw(`{"hits":[`)
	for i, h := range hits {
		if i > 0 {
			j.raw(",")
		}
		j.field(`{"id":`, h.Doc.ID)
		j.field(`,"url":`, h.Doc.URL)
		j.field(`,"title":`, h.Doc.Title)
		j.floatField(`,"score":`, h.Score)
		j.raw("}")
	}
	j.raw("]}\n")
}

// jsonBuf is a response body being appended by hand. err keeps the
// first value JSON cannot carry (a NaN or infinite float), which
// json.Encoder would have failed on; names is the memo entities are
// named from (nil: rendered afresh).
type jsonBuf struct {
	b     []byte
	err   error
	names *entityMemo
}

func (j *jsonBuf) raw(s string)  { j.b = append(j.b, s...) }
func (j *jsonBuf) str(s string)  { j.b = appendJSONString(j.b, s) }
func (j *jsonBuf) int(n int)     { j.b = strconv.AppendInt(j.b, int64(n), 10) }
func (j *jsonBuf) uint(n uint64) { j.b = strconv.AppendUint(j.b, n, 10) }

// field appends key — the literal up to the value, e.g. `,"name":` —
// and the string value.
func (j *jsonBuf) field(key, v string) {
	j.raw(key)
	j.str(v)
}

// entity appends the "key" and "name" members of id, both empty for an
// entity the dictionary does not know.
func (j *jsonBuf) entity(g *saga.Graph, id kg.EntityID) {
	var ok bool
	if j.b, ok = j.names.appendMembers(j.b, g, id); !ok {
		j.raw(`"key":"","name":""`)
	}
}

// floatField is field for a float value.
func (j *jsonBuf) floatField(key string, f float64) {
	j.raw(key)
	j.float(f)
}

// float appends f as encoding/json formats a float64: the shortest
// decimal that round-trips, in exponent form (e-7, not e-07) only below
// 1e-6 or from 1e21 up.
func (j *jsonBuf) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if j.err == nil {
			j.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.b = strconv.AppendFloat(j.b, f, format, -1, 64)
	if n := len(j.b); format == 'e' && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
		j.b[n-2] = j.b[n-1]
		j.b = j.b[:n-1]
	}
}

// send answers with the finished body — or, if a value could not be
// encoded, with the 500 writeJSON answers for it.
func (j *jsonBuf) send(w http.ResponseWriter, status int) {
	if j.err != nil {
		status = http.StatusInternalServerError
		j.b = append(j.b[:0], `{"error":`...)
		j.str("encode response: " + j.err.Error())
		j.raw("}\n")
	}
	writeJSONBytes(w, status, j.b)
}

// respBufPool recycles response buffers across requests. Buffers that
// grew past maxPooledRespBytes are dropped rather than pinned.
var respBufPool = sync.Pool{New: func() any { return new(jsonBuf) }}

const maxPooledRespBytes = 1 << 20

// respond renders an answer into a pooled buffer, naming entities from
// the server's memo, and sends it with status 200.
func (s *Server) respond(w http.ResponseWriter, render func(*jsonBuf)) {
	j := getJSONBuf()
	defer j.free()
	j.names = &s.names
	render(j)
	j.send(w, http.StatusOK)
}

func getJSONBuf() *jsonBuf {
	j := respBufPool.Get().(*jsonBuf)
	j.b, j.err = j.b[:0], nil
	return j
}

func (j *jsonBuf) free() {
	j.names = nil
	if cap(j.b) <= maxPooledRespBytes {
		respBufPool.Put(j)
	}
}

// writeJSONBytes writes a complete, already-encoded JSON body in one
// Write with its Content-Length.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
