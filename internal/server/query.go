package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

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
// cardinality — without running the query:
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
	// AsOf runs the query against the graph as it was at this mutation
	// watermark, reconstructed from the durable checkpoint retention
	// (saga.Platform.QueryRowsAt). Results are identical to what the
	// same query returned live at that watermark. Requires a durable
	// platform; watermarks older than the retention window return 410.
	// Explain ignores as_of (plans describe the live graph).
	AsOf *uint64 `json:"as_of"`
}

func (s *Server) parseTerm(t queryTermJSON) (saga.QueryTerm, error) {
	set := 0
	if t.Var != nil {
		set++
	}
	if t.Key != nil {
		set++
	}
	if t.String != nil {
		set++
	}
	if t.Int != nil {
		set++
	}
	if set != 1 {
		return saga.QueryTerm{}, errors.New("term must set exactly one of var/key/string/int")
	}
	switch {
	case t.Var != nil:
		if *t.Var == "" {
			return saga.QueryTerm{}, errors.New("empty variable name")
		}
		return saga.QVar(*t.Var), nil
	case t.Key != nil:
		e, ok := s.Platform.Graph().EntityByKey(*t.Key)
		if !ok {
			return saga.QueryTerm{}, fmt.Errorf("unknown entity key %q", *t.Key)
		}
		return saga.QEntity(e.ID), nil
	case t.String != nil:
		return saga.QConst(kg.StringValue(*t.String)), nil
	default:
		return saga.QConst(kg.IntValue(*t.Int)), nil
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeCapped(w, r, &req) {
		return
	}
	if len(req.Clauses) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no clauses"))
		return
	}
	if len(req.Clauses) > maxQueryClauses {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d clauses exceeds the maximum of %d", len(req.Clauses), maxQueryClauses))
		return
	}
	limit := defaultQueryLimit
	if req.Limit != nil {
		switch {
		case *req.Limit <= 0:
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %d", *req.Limit))
			return
		case *req.Limit > maxQueryLimit:
			limit = maxQueryLimit
		default:
			limit = *req.Limit
		}
	}
	var cursor saga.QueryCursor
	if req.Cursor != "" {
		c, err := saga.DecodeQueryCursor(req.Cursor)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad cursor: %w", err))
			return
		}
		cursor = c
	}
	g := s.Platform.Graph()
	clauses, status, err := s.parseClauses(req.Clauses)
	if err != nil {
		writeError(w, status, err)
		return
	}

	// explain:true returns the execution plan instead of running the
	// query: clause order, access paths, and build-time cardinality
	// estimates, straight from the engine's plan cache.
	if req.Explain {
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
	if req.AsOf != nil {
		// Point-in-time read: same solve, same options, but over the
		// as-of overlay instead of the live graph.
		at, err := s.Platform.QueryRowsAt(clauses, *req.AsOf, opts)
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
	bufp := respBufPool.Get().(*[]byte)
	defer putRespBuf(bufp)
	buf := append((*bufp)[:0], `{"bindings":[`...)
	var (
		enc   *rowEncoder
		last  saga.QueryCursor // key tuple of the page's last row
		count int
		more  bool
	)
	for row, err := range rows {
		if err != nil {
			if contextEnded(w, r, err) {
				return
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if count == limit {
			more = true
			break
		}
		if enc == nil {
			enc = newRowEncoder(g, row.Vars)
		} else {
			buf = append(buf, ',')
		}
		buf = enc.appendRow(buf, row.Vals)
		count++
		if count == limit {
			last = row.Key()
		}
	}
	buf = append(buf, `],"count":`...)
	buf = strconv.AppendInt(buf, int64(count), 10)
	buf = append(buf, `,"limit":`...)
	buf = strconv.AppendInt(buf, int64(limit), 10)
	if more {
		buf = append(buf, `,"next_cursor":`...)
		buf = appendJSONString(buf, saga.EncodeQueryCursor(last))
	}
	buf = append(buf, '}', '\n')
	*bufp = buf
	writeJSONBytes(w, http.StatusOK, buf)
}

// parseClauses converts the request's clause JSON into engine clauses,
// returning the HTTP status to use on error. Shared by /query and
// /subscribe.
func (s *Server) parseClauses(cjs []queryClauseJSON) ([]saga.QueryClause, int, error) {
	g := s.Platform.Graph()
	clauses := make([]saga.QueryClause, 0, len(cjs))
	for i, cj := range cjs {
		pred, ok := g.PredicateByName(cj.Predicate)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("clause %d: unknown predicate %q", i, cj.Predicate)
		}
		subj, err := s.parseTerm(cj.Subject)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("clause %d subject: %w", i, err)
		}
		obj, err := s.parseTerm(cj.Object)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("clause %d object: %w", i, err)
		}
		clauses = append(clauses, saga.QueryClause{Subject: subj, Predicate: pred.ID, Object: obj})
	}
	return clauses, 0, nil
}
