package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"saga/internal/kg"
	"saga/saga"
)

// Append-style encoding of query answers. /query and /subscribe render
// the same rows — one JSON object per answer, variables in sorted order,
// entity values as {"key","name"} objects and literals as their string
// form — and both build their output with the functions below, straight
// into one byte buffer: no per-row maps, no reflection. The bytes are
// exactly what json.NewEncoder(w).Encode produced from the
// map[string]any shape these functions replaced (its default HTML-safe
// escaping included), which encode_test.go pins differentially and under
// fuzzing.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped the way
// encoding/json escapes with its default EscapeHTML: `"` and `\`
// backslashed; \b \f \n \r \t short escapes; other control bytes and
// `<`, `>`, `&` as \u00XX; U+2028 and U+2029 as \u2028 / \u2029; each
// byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
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
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// rowEncoder appends the answers of one query as JSON objects. The
// variable names are escaped once, up front; values are rendered against
// the graph's entity dictionary as they are appended.
type rowEncoder struct {
	g    *saga.Graph
	vars []string
	keys [][]byte   // per variable: `"name":`, ready to append
	vals []kg.Value // appendBinding's row scratch
}

// newRowEncoder prepares an encoder for rows over vars (the query's
// variables in sorted order — saga.QueryRow.Vars).
func newRowEncoder(g *saga.Graph, vars []string) *rowEncoder {
	e := &rowEncoder{g: g, vars: vars, keys: make([][]byte, len(vars))}
	for i, name := range vars {
		e.keys[i] = append(appendJSONString(nil, name), ':')
	}
	return e
}

// appendRow appends one answer: {"var":value,...} in variable order.
func (e *rowEncoder) appendRow(dst []byte, vals []kg.Value) []byte {
	dst = append(dst, '{')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, e.keys[i]...)
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
		if ent := e.g.Entity(v.Entity); ent != nil {
			dst = append(dst, `{"key":`...)
			dst = appendJSONString(dst, ent.Key)
			dst = append(dst, `,"name":`...)
			dst = appendJSONString(dst, ent.Name)
			return append(dst, '}')
		}
	}
	return appendJSONString(dst, v.String())
}

// respBufPool recycles response buffers across requests. Buffers that
// grew past maxPooledRespBytes are dropped rather than pinned.
var respBufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRespBytes = 1 << 20

func putRespBuf(bufp *[]byte) {
	if cap(*bufp) <= maxPooledRespBytes {
		respBufPool.Put(bufp)
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
