package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"saga/internal/kg"
	"saga/saga"
)

// Conjunctive query endpoint: POST /query with a JSON body like
//
//	{"clauses": [
//	  {"subject": {"var": "p"}, "predicate": "memberOf", "object": {"key": "team0"}},
//	  {"subject": {"var": "p"}, "predicate": "award",    "object": {"key": "award0"}}
//	], "limit": 100, "cursor": "..."}
//
// Each term is exactly one of: {"var": name}, {"key": entityKey},
// {"string": s}, {"int": n}. The response lists one binding object per
// answer, with entity values rendered as {key, name}, plus the applied
// "limit", the result "count", and — when more answers remain — a
// "next_cursor" token that resumes enumeration after the last returned
// binding:
//
//	{"bindings": [...], "count": 100, "limit": 100, "next_cursor": "..."}
//
// Setting "as_of": <watermark> evaluates the query against the graph as
// it was at that mutation watermark, reconstructed from the durable
// checkpoint retention — results match what the query returned live at
// that watermark, byte for byte and on any core count: row order is a
// function of the facts, not of how they arrived. Watermarks behind the
// retention window return 410 Gone; memory-only platforms return 400.
//
// Setting "explain": true returns the execution plan instead of any
// bindings — one entry per clause in execution order with its access
// path ("posting", "facts", "has_fact", "scan") and estimated
// cardinality — without running the query (explain ignores "as_of": a
// plan describes the live graph):
//
//	{"plan": [{"clause": 0, "path": "posting", "estimate": 12}, ...],
//	 "variables": ["p"]}
//
// The solve streams (saga.Platform.QueryRows): it stops probing the
// graph as soon as the page is full, each row is appended to the response
// buffer as it is derived (encode.go — no per-row maps, no reflection;
// the body goes out in one write with its Content-Length), and the
// request context aborts it mid-join when the client disconnects.
// Serving-path guards bound what one request can cost: bodies over 1 MiB
// are rejected with 413, conjunctions over 32 clauses with 400, a request
// without a limit gets the default page size, and limits above the
// maximum are clamped.
//
// A cursor is a position in the stream's canonical order, and resuming
// is a seek: the executor compares candidates against the cursor's values
// at each join depth (and starts a posting read at the cursor outright),
// so page N derives none of the rows of the pages before it. The token
// names the last binding seen, not a snapshot, but the order it indexes
// does not depend on history: it survives restarts and recovery, and
// beside a concurrent writer the next page resumes at the cursor row's
// successor even if that row was retracted in between — rows present
// throughout a walk are each delivered exactly once, never skipped by a
// shifted page boundary. The solver keeps no per-row state.
//
// Overload semantics: /query is Read-class traffic behind the admission
// gate (see server.go). When the read tier is saturated the request
// waits in a bounded FIFO queue up to the queue deadline; overflow or
// deadline expiry answers 429 with a Retry-After header, and a draining
// server answers 503 with Retry-After. Admitted requests carry the read
// budget as a context deadline: a solve that exceeds it is cancelled
// mid-join and answered 503 + Retry-After (the budget expired, back
// off), distinct from a client disconnect (no response at all). Budgets
// and limits are operator knobs (kgserve -read-budget and friends).
const (
	// maxQueryBodyBytes caps the request body size.
	maxQueryBodyBytes = 1 << 20
	// maxQueryClauses caps the conjunction width; beyond it the planner's
	// per-depth re-estimation alone is a DoS surface.
	maxQueryClauses = 32
	// defaultQueryLimit is the page size applied when the request omits
	// "limit" — an unbounded conjunctive query materializing every answer
	// was the serving path's unbounded-DoS hole.
	defaultQueryLimit = 1000
	// maxQueryLimit caps an explicit "limit".
	maxQueryLimit = 10000
)

// requestState is one /query or /annotate request, recycled across
// requests: the body, the scanner over it, the resolved clauses and the
// row encoder.
type requestState struct {
	body    []byte
	scan    requestScanner
	clauses []saga.QueryClause
	enc     rowEncoder
}

var requestPool = sync.Pool{New: func() any { return new(requestState) }}

func (st *requestState) free() {
	clear(st.clauses) // drop the variable names and literals
	st.enc.g, st.enc.names = nil, nil
	if cap(st.body)+cap(st.scan.scratch) <= maxPooledRespBytes {
		requestPool.Put(st)
	}
}

// read reads and decodes the body as a request with the given fields. On
// failure it has already answered — 413 for a body over the cap, 400 for
// anything else — and returns false.
func (st *requestState) read(w http.ResponseWriter, r *http.Request, fields uint16) bool {
	var err error
	if st.body, err = readBody(w, r, st.body); err == nil {
		err = st.scan.scan(st.body, fields)
	}
	if err != nil {
		rejectBody(w, err)
		return false
	}
	return true
}

// checkClauseCount rejects a request with no clauses or too many.
func checkClauseCount(n int) error {
	if n == 0 {
		return errors.New("no clauses")
	}
	if n > maxQueryClauses {
		return fmt.Errorf("%d clauses exceeds the maximum of %d", n, maxQueryClauses)
	}
	return nil
}

// resolveTerm maps a scanned term onto an engine term; it must set
// exactly one of var/key/string/int.
func resolveTerm(d kg.DictReader, t *scanTerm) (saga.QueryTerm, error) {
	switch t.set {
	case termVar:
		if len(t.text) == 0 {
			return saga.QueryTerm{}, errors.New("empty variable name")
		}
		return saga.QVar(string(t.text)), nil
	case termKey:
		id, ok := d.EntityID(t.text)
		if !ok {
			return saga.QueryTerm{}, fmt.Errorf("unknown entity key %q", t.text)
		}
		return saga.QEntity(id), nil
	case termString:
		return saga.QConst(kg.StringValue(string(t.text))), nil
	case termInt:
		return saga.QConst(kg.IntValue(t.num)), nil
	}
	return saga.QueryTerm{}, errors.New("term must set exactly one of var/key/string/int")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := requestPool.Get().(*requestState)
	defer st.free()
	if !st.read(w, r, queryFields) {
		return
	}
	req := &st.scan
	if err := checkClauseCount(req.nClauses); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	limit := defaultQueryLimit
	if req.set&fieldLimit != 0 {
		switch {
		case req.limit <= 0:
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %d", req.limit))
			return
		case req.limit > maxQueryLimit:
			limit = maxQueryLimit
		default:
			limit = int(req.limit)
		}
	}
	var cursor saga.QueryCursor
	if len(req.cursor) > 0 {
		c, err := saga.DecodeQueryCursor(string(req.cursor))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad cursor: %w", err))
			return
		}
		cursor = c
	}
	g := s.Platform.Graph()
	clauses, status, err := s.parseClauses(req.clauses, st.clauses[:0])
	st.clauses = clauses
	if err != nil {
		writeError(w, status, err)
		return
	}

	// explain:true returns the execution plan instead of running the
	// query: clause order, access paths, and build-time cardinality
	// estimates, straight from the engine's plan cache.
	if req.explain {
		plan, err := s.Platform.PlanQuery(clauses)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"plan":      plan.Describe(),
			"variables": plan.Vars(),
		})
		return
	}

	// Stream one row past the page size: the extra row proves more answers
	// remain without solving for them, and the page's last binding becomes
	// the next_cursor token.
	opts := saga.QueryOptions{
		Limit:   limit + 1,
		Cursor:  cursor,
		Context: r.Context(),
	}
	rows := s.Platform.QueryRows(clauses, opts)
	if req.set&fieldAsOf != 0 {
		// Point-in-time read: same solve, same options, but over the
		// as-of overlay instead of the live graph.
		at, err := s.Platform.QueryRowsAt(clauses, req.asOf, opts)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, saga.ErrOutsideRetention) {
				status = http.StatusGone
			}
			writeError(w, status, err)
			return
		}
		rows = at
	}

	// Rows are encoded as they stream, straight into one pooled buffer;
	// nothing is written until the page is complete, so an error mid-solve
	// still gets its own status line.
	j := getJSONBuf()
	defer j.free()
	j.raw(`{"bindings":[`)
	var page struct {
		last  saga.QueryCursor // key tuple of the page's last row
		count int
		more  bool
	}
	for row, err := range rows {
		if err != nil {
			if contextEnded(w, r, err) {
				return
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if page.count == limit {
			page.more = true
			break
		}
		if page.count == 0 {
			st.enc.reset(g, row.Vars)
			st.enc.names = &s.names
		} else {
			j.raw(",")
		}
		j.b = st.enc.appendRow(j.b, row.Vals)
		if page.count++; page.count == limit {
			page.last = row.Key()
		}
	}
	j.raw(`],"count":`)
	j.int(page.count)
	j.raw(`,"limit":`)
	j.int(limit)
	if page.more {
		j.raw(`,"next_cursor":`)
		j.str(saga.EncodeQueryCursor(page.last))
	}
	j.raw("}\n")
	j.send(w, http.StatusOK)
}

// parseClauses resolves scanned clauses into engine clauses, appended to
// dst, under one dictionary read lock, returning the HTTP status to use
// on error. Shared by /query and /subscribe.
func (s *Server) parseClauses(ops []clauseOp, dst []saga.QueryClause) (clauses []saga.QueryClause, status int, err error) {
	s.Platform.Graph().ReadDict(func(d kg.DictReader) {
		for i := range ops {
			op := &ops[i]
			pred, ok := d.PredicateID(op.predicate)
			if !ok {
				status, err = http.StatusNotFound, fmt.Errorf("clause %d: unknown predicate %q", i, op.predicate)
				return
			}
			subj, terr := resolveTerm(d, &op.subject)
			if terr != nil {
				status, err = http.StatusBadRequest, fmt.Errorf("clause %d subject: %w", i, terr)
				return
			}
			obj, terr := resolveTerm(d, &op.object)
			if terr != nil {
				status, err = http.StatusBadRequest, fmt.Errorf("clause %d object: %w", i, terr)
				return
			}
			dst = append(dst, saga.QueryClause{Subject: subj, Predicate: pred, Object: obj})
		}
	})
	return dst, status, err
}
