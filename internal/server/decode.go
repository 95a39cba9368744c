package server

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Hand-written decoding of the request bodies — the mirror of encode.go.
// One scanner reads every JSON body the server takes on its serving
// path: /ingest's batch, and the /query, /subscribe and /annotate
// requests. One pass over the bytes walks the known fields into reused
// slices whose strings are views into the body (or, for a string that
// carried escapes, into one scratch buffer): no reflection, no
// per-field allocation. The grammar is all of JSON — whitespace, every
// escape including surrogate pairs, unknown fields and arbitrarily
// nested unknown values are validated and skipped, null leaves a field
// unset — and what it accepts, json.Unmarshal into the struct shapes it
// replaced accepts with the same result:
//
//	/ingest     struct{ Asserts, Retracts []struct{ Subject, Predicate string; Object term } }
//	/query      struct{ Clauses []clause; Limit *int; Cursor string; Explain bool; AsOf *uint64 `json:"as_of"` }
//	/subscribe  struct{ Clauses []clause; CoalesceMS, Buffer, MaxPending int }  // coalesce_ms, buffer, max_pending
//	/annotate   struct{ Text string }
//	clause      struct{ Subject term; Predicate string; Object term }
//	term        struct{ Var, Key, String *string; Int *int64 }
//
// decode_test.go and request_decode_test.go pin that differentially and
// under fuzzing. The scanner is stricter than those references in three
// ways: keys match case-sensitively, a known key repeated inside one
// object is an error, and so is anything but whitespace after the
// document.

// maxJSONDepth is encoding/json's nesting limit; deeper documents are
// rejected the same way.
const maxJSONDepth = 10000

// Term fields present (non-null) in a scanned term.
const (
	termVar = 1 << iota
	termKey
	termString
	termInt
)

// scanTerm is a scanned term: which of var/key/string/int it set, and
// the payload of the last one.
type scanTerm struct {
	set  uint8
	text []byte // var, key or string payload
	num  int64  // int payload
}

// scanner is the JSON syntax under every request decoder: a position in
// one body and the primitives that validate, decode and skip its values.
type scanner struct {
	data  []byte
	pos   int
	depth int
	// scratch receives the decoded form of every string that needed
	// decoding. It only grows by append, so earlier views stay intact.
	scratch []byte
}

// decodeError is a malformed-body error: what was wrong and where.
type decodeError struct {
	msg string
	off int
}

func (e *decodeError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

func (s *scanner) fail(msg string) error { return &decodeError{msg: msg, off: s.pos} }

func (s *scanner) reset(data []byte) {
	s.data, s.pos, s.depth, s.scratch = data, 0, 0, s.scratch[:0]
}

// end rejects anything but whitespace after the document.
func (s *scanner) end() error {
	if s.peek(); s.pos != len(s.data) {
		return s.fail("unexpected data after the document")
	}
	return nil
}

// --- /ingest ---------------------------------------------------------------

// ingestOp is one scanned triple, unresolved.
type ingestOp struct {
	subject, predicate []byte
	object             scanTerm
}

// ingestScanner decodes one /ingest body. Its slices are reused across
// requests; the ops are only valid until the next scan.
type ingestScanner struct {
	scanner
	asserts, retracts []ingestOp
}

// scan decodes data, replacing the scanner's previous ops. A batch
// larger than maxIngestOps is rejected at the first op past the cap, not
// after the rest of the body has been decoded.
func (s *ingestScanner) scan(data []byte) error {
	s.reset(data)
	s.asserts, s.retracts = s.asserts[:0], s.retracts[:0]
	isNull, err := s.open('{')
	if err != nil {
		return err
	}
	var seen uint16
	for first := true; !isNull; first = false {
		key, done, err := s.nextKey(first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		switch string(key) {
		case "asserts":
			err = s.triples(&s.asserts, &seen, 1)
		case "retracts":
			err = s.triples(&s.retracts, &seen, 2)
		default:
			err = s.skipValue()
		}
		if err != nil {
			return err
		}
	}
	return s.end()
}

// triples decodes an array of triples (or null) into dst.
func (s *ingestScanner) triples(dst *[]ingestOp, seen *uint16, bit uint16) error {
	if err := s.once(seen, bit); err != nil {
		return err
	}
	isNull, err := s.open('[')
	if err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		done, err := s.nextElem(first)
		if err != nil || done {
			return err
		}
		if len(s.asserts)+len(s.retracts) == maxIngestOps {
			return s.fail(fmt.Sprintf("batch exceeds the maximum of %d mutations", maxIngestOps))
		}
		var op ingestOp
		if err := s.triple(&op); err != nil {
			return err
		}
		*dst = append(*dst, op)
	}
}

// triple decodes {"subject":…,"predicate":…,"object":{…}} (or null).
func (s *ingestScanner) triple(op *ingestOp) error {
	isNull, err := s.open('{')
	if err != nil || isNull {
		return err
	}
	var seen uint16
	for first := true; ; first = false {
		key, done, err := s.nextKey(first)
		if err != nil || done {
			return err
		}
		switch string(key) {
		case "subject":
			op.subject, _, err = s.stringField(&seen, 1)
		case "predicate":
			op.predicate, _, err = s.stringField(&seen, 2)
		case "object":
			err = s.term(&op.object, &seen, 4)
		default:
			err = s.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// --- /query, /subscribe, /annotate -----------------------------------------

// The top-level fields of the read routes' requests, one bit each. A
// route decodes the fields its request declares and skips every other
// key as unknown.
const (
	fieldClauses = 1 << iota
	fieldLimit
	fieldCursor
	fieldExplain
	fieldAsOf
	fieldCoalesce
	fieldBuffer
	fieldMaxPending
	fieldText

	queryFields     = fieldClauses | fieldLimit | fieldCursor | fieldExplain | fieldAsOf
	subscribeFields = fieldClauses | fieldCoalesce | fieldBuffer | fieldMaxPending
	annotateFields  = fieldText
)

// requestFields maps the top-level keys to their field bits.
var requestFields = map[string]uint16{
	"clauses": fieldClauses, "limit": fieldLimit, "cursor": fieldCursor, "explain": fieldExplain,
	"as_of": fieldAsOf, "coalesce_ms": fieldCoalesce, "buffer": fieldBuffer, "max_pending": fieldMaxPending,
	"text": fieldText,
}

// clauseOp is one scanned query clause, unresolved.
type clauseOp struct {
	subject, object scanTerm
	predicate       []byte
}

// requestScanner decodes one /query, /subscribe or /annotate body into
// the fields of that route's request. Its slices are reused across
// requests; what it holds is only valid until the next scan.
type requestScanner struct {
	scanner
	set      uint16     // the fields present and not null
	clauses  []clauseOp // the first maxQueryClauses+1 clauses
	nClauses int        // every clause, counted past the cap
	cursor   []byte
	text     []byte
	explain  bool
	asOf     uint64
	limit    int64
	// /subscribe's coalescing window, event buffer and pending bound.
	coalesceMS, buffer, maxPending int64
}

// scan decodes data as a request with the given fields, replacing the
// scanner's previous request.
func (s *requestScanner) scan(data []byte, fields uint16) error {
	*s = requestScanner{scanner: s.scanner, clauses: s.clauses[:0]}
	s.reset(data)
	isNull, err := s.open('{')
	if err != nil {
		return err
	}
	var seen uint16
	for first := true; !isNull; first = false {
		key, done, err := s.nextKey(first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		null, bit := false, requestFields[string(key)]&fields
		switch bit {
		case 0:
			err = s.skipValue()
		case fieldClauses:
			err = s.clauseList(&seen)
		case fieldCursor:
			s.cursor, null, err = s.stringField(&seen, bit)
		case fieldText:
			s.text, null, err = s.stringField(&seen, bit)
		case fieldExplain:
			s.explain, null, err = s.boolField(&seen, bit)
		case fieldAsOf:
			s.asOf, null, err = s.uintField(&seen, bit)
		case fieldLimit:
			s.limit, null, err = s.intField(&seen, bit, strconv.IntSize)
		case fieldCoalesce:
			s.coalesceMS, null, err = s.intField(&seen, bit, strconv.IntSize)
		case fieldBuffer:
			s.buffer, null, err = s.intField(&seen, bit, strconv.IntSize)
		case fieldMaxPending:
			s.maxPending, null, err = s.intField(&seen, bit, strconv.IntSize)
		}
		if err != nil {
			return err
		}
		if !null {
			s.set |= bit
		}
	}
	return s.end()
}

// clauseList decodes the "clauses" array (or null). It keeps the first
// maxQueryClauses+1 clauses and only counts the rest: the handler names
// the count in its error, and a 1 MiB body of empty clauses must not
// cost a slice of them.
func (s *requestScanner) clauseList(seen *uint16) error {
	if err := s.once(seen, fieldClauses); err != nil {
		return err
	}
	isNull, err := s.open('[')
	if err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		done, err := s.nextElem(first)
		if err != nil || done {
			return err
		}
		var c clauseOp
		if err := s.clause(&c); err != nil {
			return err
		}
		if s.nClauses++; len(s.clauses) <= maxQueryClauses {
			s.clauses = append(s.clauses, c)
		}
	}
}

// clause decodes {"subject":{…},"predicate":…,"object":{…}} (or null).
func (s *scanner) clause(c *clauseOp) error {
	isNull, err := s.open('{')
	if err != nil || isNull {
		return err
	}
	var seen uint16
	for first := true; ; first = false {
		key, done, err := s.nextKey(first)
		if err != nil || done {
			return err
		}
		switch string(key) {
		case "subject":
			err = s.term(&c.subject, &seen, 1)
		case "predicate":
			c.predicate, _, err = s.stringField(&seen, 2)
		case "object":
			err = s.term(&c.object, &seen, 4)
		default:
			err = s.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// --- fields ----------------------------------------------------------------

// once marks the known field bit as present in the object being decoded,
// rejecting its second appearance.
func (s *scanner) once(seen *uint16, bit uint16) error {
	if *seen&bit != 0 {
		return s.fail("repeated key")
	}
	*seen |= bit
	return nil
}

// term decodes a term {"var":…} / {"key":…} / {"string":…} / {"int":…}
// (or null), recording every field it sets: whether the set is legal
// where the term stands is the resolver's call.
func (s *scanner) term(t *scanTerm, seenOuter *uint16, bit uint16) error {
	if err := s.once(seenOuter, bit); err != nil {
		return err
	}
	isNull, err := s.open('{')
	if err != nil || isNull {
		return err
	}
	var seen uint16
	for first := true; ; first = false {
		key, done, err := s.nextKey(first)
		if err != nil || done {
			return err
		}
		var field uint8
		switch string(key) {
		case "var":
			field = termVar
		case "key":
			field = termKey
		case "string":
			field = termString
		case "int":
			field = termInt
		}
		switch field {
		case 0:
			err = s.skipValue()
		case termInt:
			n, null, ferr := s.intField(&seen, termInt, 64)
			if err = ferr; err == nil && !null {
				t.num, t.set = n, t.set|termInt
			}
		default:
			text, null, ferr := s.stringField(&seen, uint16(field))
			if err = ferr; err == nil && !null {
				t.text, t.set = text, t.set|field
			}
		}
		if err != nil {
			return err
		}
	}
}

// stringField decodes a string-typed field's value: a string, or null
// (the field stays unset). bit marks the field in *seen.
func (s *scanner) stringField(seen *uint16, bit uint16) (text []byte, isNull bool, err error) {
	if err := s.once(seen, bit); err != nil {
		return nil, false, err
	}
	switch s.peek() {
	case '"':
		text, err = s.str()
		return text, false, err
	case 'n':
		return nil, true, s.literal("null")
	}
	return nil, false, s.fail("expected a string")
}

// boolField decodes a bool-typed field's value: true, false or null.
func (s *scanner) boolField(seen *uint16, bit uint16) (v, isNull bool, err error) {
	if err := s.once(seen, bit); err != nil {
		return false, false, err
	}
	switch s.peek() {
	case 't':
		return true, false, s.literal("true")
	case 'f':
		return false, false, s.literal("false")
	case 'n':
		return false, true, s.literal("null")
	}
	return false, false, s.fail("expected a boolean")
}

// integer decodes an integer-typed field's value: null, or a number
// literal without fraction or exponent, returned as its bytes.
func (s *scanner) integer(seen *uint16, bit uint16) (raw []byte, isNull bool, err error) {
	if err := s.once(seen, bit); err != nil {
		return nil, false, err
	}
	switch c := s.peek(); {
	case c == 'n':
		return nil, true, s.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		at := s.pos
		raw, integer, err := s.number()
		if err == nil && !integer {
			s.pos = at
			err = s.fail("expected an integer")
		}
		return raw, false, err
	}
	return nil, false, s.fail("expected an integer")
}

// intField decodes a signed integer field of bitSize bits, or null.
func (s *scanner) intField(seen *uint16, bit uint16, bitSize int) (int64, bool, error) {
	raw, isNull, err := s.integer(seen, bit)
	if err != nil || isNull {
		return 0, isNull, err
	}
	n, err := strconv.ParseInt(string(raw), 10, bitSize)
	if err != nil {
		s.pos -= len(raw)
		return 0, false, s.fail(fmt.Sprintf("expected a %d-bit integer", bitSize))
	}
	return n, false, nil
}

// uintField decodes an unsigned 64-bit integer field, or null.
func (s *scanner) uintField(seen *uint16, bit uint16) (uint64, bool, error) {
	raw, isNull, err := s.integer(seen, bit)
	if err != nil || isNull {
		return 0, isNull, err
	}
	n, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		s.pos -= len(raw)
		return 0, false, s.fail("expected an unsigned 64-bit integer")
	}
	return n, false, nil
}

// --- JSON syntax ---------------------------------------------------------

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input (a literal NUL is no token either, so callers treat both as
// "nothing valid here").
func (s *scanner) peek() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// open consumes the opening delimiter of an object or array, or the
// literal null in its place.
func (s *scanner) open(delim byte) (isNull bool, err error) {
	switch s.peek() {
	case delim:
		s.pos++
		if s.depth++; s.depth > maxJSONDepth {
			return false, s.fail("exceeded max depth")
		}
		return false, nil
	case 'n':
		return true, s.literal("null")
	}
	if delim == '{' {
		return false, s.fail("expected an object")
	}
	return false, s.fail("expected an array")
}

// nextKey advances to the next member of the open object and returns
// its key, positioned at the member's value; done reports the closing
// brace instead.
func (s *scanner) nextKey(first bool) (key []byte, done bool, err error) {
	c := s.peek()
	if c == '}' {
		s.pos++
		s.depth--
		return nil, true, nil
	}
	if !first {
		if c != ',' {
			return nil, false, s.fail("expected ',' or '}'")
		}
		s.pos++
		c = s.peek()
	}
	if c != '"' {
		return nil, false, s.fail("expected an object key")
	}
	if key, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.peek() != ':' {
		return nil, false, s.fail("expected ':'")
	}
	s.pos++
	return key, false, nil
}

// nextElem advances to the next element of the open array, positioned
// at its value; done reports the closing bracket instead.
func (s *scanner) nextElem(first bool) (done bool, err error) {
	c := s.peek()
	if c == ']' {
		s.pos++
		s.depth--
		return true, nil
	}
	if !first {
		if c != ',' {
			return false, s.fail("expected ',' or ']'")
		}
		s.pos++
	}
	return false, nil
}

// skipValue validates and skips one value of any shape.
func (s *scanner) skipValue() error {
	switch c := s.peek(); {
	case c == '"':
		mark := len(s.scratch)
		_, err := s.str()
		s.scratch = s.scratch[:mark]
		return err
	case c == '{':
		if _, err := s.open('{'); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, done, err := s.nextKey(first)
			if err != nil || done {
				return err
			}
			if err := s.skipValue(); err != nil {
				return err
			}
		}
	case c == '[':
		if _, err := s.open('['); err != nil {
			return err
		}
		for first := true; ; first = false {
			done, err := s.nextElem(first)
			if err != nil || done {
				return err
			}
			if err := s.skipValue(); err != nil {
				return err
			}
		}
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		_, _, err := s.number()
		return err
	}
	return s.fail("expected a value")
}

func (s *scanner) literal(word string) error {
	if len(s.data)-s.pos < len(word) || string(s.data[s.pos:s.pos+len(word)]) != word {
		return s.fail("invalid literal")
	}
	s.pos += len(word)
	return nil
}

// number validates the number literal at pos and returns its bytes;
// integer reports that it has neither fraction nor exponent.
func (s *scanner) number() (raw []byte, integer bool, err error) {
	d, i := s.data, s.pos
	digits := func() bool {
		start := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		return nil, false, s.fail("invalid number")
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false, s.fail("invalid number")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false, s.fail("invalid number")
		}
	}
	raw, s.pos = d[s.pos:i], i
	return raw, integer, nil
}

// str decodes the string literal at pos. A string of printable ASCII
// without escapes — every key the server hands out — is returned as a
// view into the input; anything else is decoded into scratch exactly as
// encoding/json decodes it: escapes resolved, a lone surrogate escape or
// a byte of invalid UTF-8 replaced by U+FFFD.
func (s *scanner) str() ([]byte, error) {
	d := s.data
	start := s.pos + 1
	i := start
	for i < len(d) {
		c := d[i]
		if c == '"' {
			s.pos = i + 1
			return d[start:i], nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	mark := len(s.scratch)
	out := append(s.scratch, d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			s.pos, s.scratch = i+1, out
			return out[mark:], nil
		case c < 0x20:
			s.pos = i
			return nil, s.fail("control character in string")
		case c == '\\':
			if i++; i == len(d) {
				break
			}
			switch c := d[i]; c {
			case '"', '\\', '/':
				out = append(out, c)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(d[i+1:])
				if !ok {
					s.pos = i
					return nil, s.fail("invalid \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate followed by an escaped low one is
					// one code point; any other surrogate is replaced.
					lo, ok := rune(0), false
					if len(d)-i > 2 && d[i+1] == '\\' && d[i+2] == 'u' {
						lo, ok = hex4(d[i+3:])
					}
					if pair := utf16.DecodeRune(r, lo); ok && pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				s.pos = i
				return nil, s.fail("invalid escape")
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			out = utf8.AppendRune(out, r) // invalid UTF-8 decodes to U+FFFD
			i += size
		}
	}
	s.pos = len(d)
	return nil, s.fail("unterminated string")
}

// hex4 parses four hex digits.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
