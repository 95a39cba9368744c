package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"saga/internal/kg"
	"saga/saga"
)

// Mutation endpoint: POST /ingest with a JSON body like
//
//	{"asserts": [
//	   {"subject": "person1", "predicate": "collaborator", "object": {"key": "person2"}}
//	 ],
//	 "retracts": [
//	   {"subject": "person3", "predicate": "followers", "object": {"int": 10}}
//	 ]}
//
// Subjects are entity keys; objects are /query-style constant terms
// (exactly one of {"key"}, {"string"}, {"int"} — variables are
// rejected). Asserts dedup against the graph (re-asserting an existing
// triple is a no-op) and retracts of absent triples are no-ops, so the
// response counts the mutations actually applied:
//
//	{"added": 1, "retracted": 0, "watermark": 512}
//
// On a durable platform the response watermark is the fsync-
// acknowledged LSN — the batch is durable when the response arrives.
// Memory-only platforms report the graph's mutation watermark.
//
// Decode contract. The body is read once into a pooled buffer and walked
// by a hand-written scanner (decode.go) — no reflection, no per-triple
// allocation; a batch costs its index maintenance plus one sequential
// log write. All of JSON is understood: any whitespace, every string
// escape including surrogate pairs, fields in any order, unknown fields
// and arbitrarily nested unknown values skipped (but validated), null
// for a field or array meaning "absent". The scanner accepts nothing the
// reflective decoder it replaced (encoding/json into a struct) rejected,
// and is deliberately stricter in three places: field names match
// case-sensitively ("Asserts" is an unknown field); a field repeated
// inside one object is a 400 (encoding/json let the last one win, and
// merged a repeated "object" field by field, which no client means); and
// anything but whitespace after the document is a 400 (a streaming
// decoder silently ignored it). The whole body is decoded, then the
// whole batch is resolved — every entity key and predicate name under
// one dictionary read lock — before anything is applied: a malformed
// body or an unknown key anywhere rejects the request with no partial
// write. Unknown subjects/predicates answer 404, malformed or
// unresolvable object terms 400, each naming the triple by its index
// (asserts first, then retracts).
//
// Limits. Bodies over 1 MiB answer 413 (straight from Content-Length
// when it says so). A batch may hold maxIngestOps mutations; the cap is
// enforced while scanning, so op 1 001 rejects the request with a 400 on
// the spot instead of after the rest of a 1 MiB body has been decoded.
//
// Durability loss. Once the WAL has latched a write or fsync error
// (wal.Manager.Err) nothing further reaches disk, so /ingest stops
// applying: the batch whose fsync failed is the last one in memory (it
// was answered 500), and every later request answers 503 + Retry-After
// without touching the graph. /health reports "status":"degraded" and
// the error under "durability" while reads keep serving; recovering
// takes a restart.
//
// Overload semantics: /ingest is Write-class traffic, admitted behind
// reads — when readers are already queueing, writes shed immediately
// with 429 + Retry-After (reads keep serving while ingest sheds first),
// and the write tier's own queue overflow/deadline sheds the same way.
const maxIngestOps = 1000

// ingestState is everything one /ingest request needs, recycled across
// requests: the body bytes (reused for the response), the scanner with
// its op and scratch slices, and the resolved triples (asserts first).
type ingestState struct {
	body    []byte
	scan    ingestScanner
	triples []kg.Triple
}

var ingestPool = sync.Pool{New: func() any { return new(ingestState) }}

// readBody reads the request body into st.body, sized from Content-Length
// so the common case is one Read. On failure it has already answered —
// 413 for a body over maxQueryBodyBytes, 400 for a broken read — and
// returns false.
func (st *ingestState) readBody(w http.ResponseWriter, r *http.Request) bool {
	tooLarge := func() bool {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", int64(maxQueryBodyBytes)))
		return false
	}
	if r.ContentLength > maxQueryBodyBytes {
		return tooLarge()
	}
	buf := st.body[:0]
	if n := r.ContentLength; n >= int64(cap(buf)) {
		buf = make([]byte, 0, n+1) // +1: room for the Read that reports EOF
	}
	body := http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			st.body = buf
			return true
		}
		if err != nil {
			var maxErr *http.MaxBytesError
			if errors.As(err, &maxErr) {
				return tooLarge()
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
			return false
		}
	}
}

// resolve maps the scanned ops onto graph IDs — every entity key and
// predicate name of the batch under one dictionary read lock — filling
// st.triples, asserts first. The first triple that does not resolve
// rejects the batch: unknown subjects/predicates report 404, malformed
// or unresolvable object terms 400.
func (st *ingestState) resolve(g *saga.Graph) (status int, err error) {
	st.triples = st.triples[:0]
	g.ReadDict(func(d kg.DictReader) {
		for _, ops := range [2][]ingestOp{st.scan.asserts, st.scan.retracts} {
			for i := range ops {
				op, n := &ops[i], len(st.triples) // n: the triple's index in the batch
				var t kg.Triple
				var found bool
				if t.Subject, found = d.EntityID(op.subject); !found {
					status, err = http.StatusNotFound, fmt.Errorf("triple %d: unknown subject key %q", n, op.subject)
					return
				}
				if t.Predicate, found = d.PredicateID(op.predicate); !found {
					status, err = http.StatusNotFound, fmt.Errorf("triple %d: unknown predicate %q", n, op.predicate)
					return
				}
				switch obj := &op.object; {
				case obj.set&termVar != 0:
					status, err = http.StatusBadRequest, fmt.Errorf("triple %d: object must be a constant term", n)
					return
				case obj.set == termKey:
					id, found := d.EntityID(obj.text)
					if !found {
						status, err = http.StatusBadRequest, fmt.Errorf("triple %d object: unknown entity key %q", n, obj.text)
						return
					}
					t.Object = kg.EntityValue(id)
				case obj.set == termString:
					t.Object = kg.StringValue(string(obj.text))
				case obj.set == termInt:
					t.Object = kg.IntValue(obj.num)
				default:
					status, err = http.StatusBadRequest, fmt.Errorf("triple %d object: term must set exactly one of var/key/string/int", n)
					return
				}
				st.triples = append(st.triples, t)
			}
		}
	})
	return status, err
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	wal := s.Platform.Durability()
	if wal != nil {
		// Once the log has failed nothing more reaches disk: applying
		// further batches would only run memory ahead of it.
		if err := wal.Err(); err != nil {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("durability lost, not accepting writes: %w", err))
			return
		}
	}
	st := ingestPool.Get().(*ingestState)
	defer func() {
		clear(st.triples) // drop the literal strings the graph now owns
		if cap(st.body)+cap(st.scan.scratch) <= maxPooledRespBytes {
			ingestPool.Put(st)
		}
	}()
	if !st.readBody(w, r) {
		return
	}
	if err := st.scan.scan(st.body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	nAsserts := len(st.scan.asserts)
	if nAsserts+len(st.scan.retracts) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no mutations"))
		return
	}
	// Resolve the whole batch before applying anything, so a bad triple
	// rejects the request without a partial write.
	g := s.Platform.Graph()
	if status, err := st.resolve(g); err != nil {
		writeError(w, status, err)
		return
	}

	added := 0
	for _, t := range st.triples[:nAsserts] {
		ok, err := g.AssertNew(t)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if ok {
			added++
		}
	}
	retracted := 0
	for _, t := range st.triples[nAsserts:] {
		if g.Retract(t) {
			retracted++
		}
	}

	watermark := g.LastSeq()
	if wal != nil {
		wm, err := s.Platform.SyncDurable()
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("durability: %w", err))
			return
		}
		watermark = wm
	}
	// The body has been consumed; its buffer carries the response.
	resp := append(st.body[:0], `{"added":`...)
	resp = strconv.AppendInt(resp, int64(added), 10)
	resp = append(resp, `,"retracted":`...)
	resp = strconv.AppendInt(resp, int64(retracted), 10)
	resp = append(resp, `,"watermark":`...)
	resp = strconv.AppendUint(resp, watermark, 10)
	resp = append(resp, '}', '\n')
	st.body = resp
	writeJSONBytes(w, http.StatusOK, resp)
}
