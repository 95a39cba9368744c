// Package server exposes the knowledge platform over HTTP: entity lookup,
// semantic annotation, fact ranking, fact verification, related entities,
// web search, paginated conjunctive queries (with point-in-time "as_of"
// reads), and live standing-query subscriptions (POST /subscribe,
// NDJSON). It is the serving layer of Fig 1, used by cmd/kgserve.
//
// The potentially-slow handlers are bounded-work by construction:
// POST /query streams its solve with an enforced page limit and opaque
// resume cursors (see query.go), /subscribe coalesces deltas and evicts
// clients that stop draining (see subscribe.go), and /query, /rank,
// /related, /search, /subscribe all thread the request context into
// their compute so a disconnected client aborts the work instead of
// burning CPU to completion.
//
// # Admission control
//
// Every route passes through a per-class admission gate
// (internal/admission) before its handler runs: /health is exempt,
// GETs and /query and /annotate are Read class, /ingest and the rule
// endpoints are Write class, and /subscribe holds a Subscribe-class
// slot for the stream's whole life. At capacity a request waits in a
// bounded FIFO queue with a queue deadline; overflow and deadline
// expiry shed with 429 + Retry-After, and a draining server (StartDrain)
// sheds everything non-exempt with 503 + Retry-After. Admission also
// installs the class's request budget as a context deadline, so a solve
// that outlives its usefulness is cancelled mid-join and answered with
// 503 (the budget expired; the client is still there) rather than
// silently dropped (the client disconnected). Per-class gauges and shed
// counters are surfaced under /health "admission".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"saga/internal/admission"
	"saga/internal/kg"
	"saga/internal/websearch"
	"saga/saga"
)

// Server holds the serving dependencies. Search is optional (nil disables
// /search). Admission is the overload gate every route passes through;
// New installs the stock limits (admission.DefaultLimits), and callers
// may replace the controller before Handler is first used.
type Server struct {
	Platform  *saga.Platform
	Search    *websearch.Index
	Admission *admission.Controller
}

// New builds a Server over an initialized platform.
func New(p *saga.Platform, search *websearch.Index) (*Server, error) {
	if p == nil {
		return nil, errors.New("server: nil platform")
	}
	return &Server{Platform: p, Search: search, Admission: admission.NewController(admission.DefaultLimits())}, nil
}

// StartDrain flips the server into drain mode: every non-exempt route
// sheds with 503 + Retry-After while already-admitted requests run to
// completion. Call it when a shutdown signal arrives, before
// http.Server.Shutdown, so load balancers see the drain instead of
// connection resets.
func (s *Server) StartDrain() { s.Admission.StartDrain() }

// Handler returns the HTTP routing table with each route behind its
// admission class.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", s.admit(admission.Exempt, s.handleHealth))
	mux.HandleFunc("GET /entity", s.admit(admission.Read, s.handleEntity))
	mux.HandleFunc("POST /annotate", s.admit(admission.Read, s.handleAnnotate))
	mux.HandleFunc("GET /rank", s.admit(admission.Read, s.handleRank))
	mux.HandleFunc("GET /verify", s.admit(admission.Read, s.handleVerify))
	mux.HandleFunc("GET /related", s.admit(admission.Read, s.handleRelated))
	mux.HandleFunc("GET /search", s.admit(admission.Read, s.handleSearch))
	mux.HandleFunc("POST /query", s.admit(admission.Read, s.handleQuery))
	mux.HandleFunc("POST /subscribe", s.admit(admission.Subscribe, s.handleSubscribe))
	mux.HandleFunc("POST /ingest", s.admit(admission.Write, s.handleIngest))
	mux.HandleFunc("POST /rules", s.admit(admission.Write, s.handleRulesDefine))
	mux.HandleFunc("GET /rules", s.admit(admission.Read, s.handleRulesGet))
	mux.HandleFunc("POST /derive", s.admit(admission.Write, s.handleDerive))
	return mux
}

// admit gates h behind the class's admission limiter and installs the
// class budget on the request context. Sheds are answered here — 429
// with Retry-After for queue overflow/timeout and degradation, 503 for
// drain — so handlers only ever see admitted requests.
func (s *Server) admit(class admission.Class, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Admission == nil {
			// Zero-value Server (built without New): serve ungated.
			h(w, r)
			return
		}
		release, err := s.Admission.Acquire(r.Context(), class)
		if err != nil {
			writeShed(w, err)
			return
		}
		defer release()
		ctx, cancel := s.Admission.WithBudget(r.Context(), class)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// writeShed answers a request the admission gate rejected.
func writeShed(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admission.ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, admission.ErrQueueFull),
		errors.Is(err, admission.ErrQueueTimeout),
		errors.Is(err, admission.ErrDegraded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	default:
		// The request context ended while queued: the client is gone,
		// nothing useful to write.
	}
}

// writeJSON encodes v into a pooled buffer and sends it as one Write with
// its Content-Length (a body over net/http's 2 KB buffer would otherwise
// leave chunked). The bytes are json.Encoder's, trailing newline
// included. A value that cannot be encoded answers 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bufp := respBufPool.Get().(*[]byte)
	defer putRespBuf(bufp)
	*bufp = (*bufp)[:0]
	if err := json.NewEncoder((*appendWriter)(bufp)).Encode(v); err != nil {
		status = http.StatusInternalServerError
		*bufp = append((*bufp)[:0], `{"error":`...)
		*bufp = appendJSONString(*bufp, "encode response: "+err.Error())
		*bufp = append(*bufp, "}\n"...)
	}
	writeJSONBytes(w, status, *bufp)
}

// appendWriter is a byte slice as an io.Writer.
type appendWriter []byte

func (a *appendWriter) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeCapped decodes a JSON request body of at most maxQueryBodyBytes
// into v. On failure it has already answered — 413 for a body over the
// cap, 400 for anything else — and returns false.
func decodeCapped(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", int64(maxQueryBodyBytes)))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
	return false
}

// isClientGone reports whether an error means the request context ended —
// the potentially-slow handlers (/query, /rank, /related, /search) thread
// r.Context() into their compute so a disconnected client stops burning
// CPU; when that happens there is no one left to write a response to.
func isClientGone(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// contextEnded handles a compute error caused by the request context
// ending, distinguishing why: when the admission budget expired the
// client is still listening, so it gets 503 + Retry-After (back off,
// the server could not finish in time); when the client disconnected
// there is no one to write to. Returns false for every other error so
// the caller falls through to its normal error path.
func contextEnded(w http.ResponseWriter, r *http.Request, err error) bool {
	if !isClientGone(err) {
		return false
	}
	if errors.Is(context.Cause(r.Context()), admission.ErrBudget) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, admission.ErrBudget)
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	g := s.Platform.Graph()
	resp := map[string]any{
		"status":     "ok",
		"entities":   g.NumEntities(),
		"predicates": g.NumPredicates(),
		"triples":    g.NumTriples(),
		"plan_cache": s.Platform.QueryPlanCacheStats(),
		"changefeed": s.Platform.ChangefeedStats(),
	}
	if wal := s.Platform.Durability(); wal != nil {
		// A latched write/fsync error means acknowledged state has stopped
		// advancing: reads still serve, /ingest answers 503.
		errText := ""
		if err := wal.Err(); err != nil {
			resp["status"] = "degraded"
			errText = err.Error()
		}
		resp["durability"] = map[string]any{
			"durable_lsn": wal.DurableLSN(),
			"applied_lsn": wal.AppliedLSN(),
			"error":       errText,
		}
	}
	if s.Admission != nil {
		resp["admission"] = s.Admission.Stats()
	}
	if s.Platform.Rules() != nil {
		resp["rules"] = s.Platform.RuleStats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// entityResponse is the public JSON shape of an entity.
type entityResponse struct {
	ID          uint32   `json:"id"`
	Key         string   `json:"key"`
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description,omitempty"`
	Popularity  float64  `json:"popularity"`
	Types       []string `json:"types,omitempty"`
	Facts       []string `json:"facts,omitempty"`
}

func (s *Server) entityJSON(e *kg.Entity) entityResponse {
	g := s.Platform.Graph()
	resp := entityResponse{
		ID: uint32(e.ID), Key: e.Key, Name: e.Name,
		Aliases: e.Aliases, Description: e.Description, Popularity: e.Popularity,
	}
	for _, t := range e.Types {
		resp.Types = append(resp.Types, g.Ontology().Name(t))
	}
	// Collect (predicate, object) pairs under one read-lock pass, then
	// resolve names after the visitor returns so the render lookups don't
	// run while the graph lock is held.
	type predValue struct {
		pred kg.PredicateID
		obj  kg.Value
	}
	var pvs []predValue
	g.OutgoingFunc(e.ID, func(tr kg.Triple) bool {
		pvs = append(pvs, predValue{pred: tr.Predicate, obj: tr.Object})
		return true
	})
	for _, pv := range pvs {
		p := g.Predicate(pv.pred)
		if p == nil {
			continue
		}
		obj := pv.obj.String()
		if pv.obj.IsEntity() {
			if oe := g.Entity(pv.obj.Entity); oe != nil {
				obj = oe.Name
			}
		}
		resp.Facts = append(resp.Facts, p.Name+" = "+obj)
	}
	return resp
}

// handleEntity serves GET /entity?key=... or ?id=...
func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	g := s.Platform.Graph()
	var e *kg.Entity
	if key := r.URL.Query().Get("key"); key != "" {
		ent, ok := g.EntityByKey(key)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("entity key %q not found", key))
			return
		}
		e = ent
	} else if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad id %q", idStr))
			return
		}
		e = g.Entity(kg.EntityID(id))
		if e == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("entity id %s not found", idStr))
			return
		}
	} else {
		writeError(w, http.StatusBadRequest, errors.New("need key or id parameter"))
		return
	}
	writeJSON(w, http.StatusOK, s.entityJSON(e))
}

// annotateRequest is the POST /annotate body; like every JSON body the
// server accepts it is capped at maxQueryBodyBytes (413 beyond).
type annotateRequest struct {
	Text string `json:"text"`
}

type annotationJSON struct {
	Start   int     `json:"start"`
	End     int     `json:"end"`
	Surface string  `json:"surface"`
	Entity  uint32  `json:"entity"`
	Key     string  `json:"key"`
	Name    string  `json:"name"`
	Score   float64 `json:"score"`
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req annotateRequest
	if !decodeCapped(w, r, &req) {
		return
	}
	if req.Text == "" {
		writeError(w, http.StatusBadRequest, errors.New("empty text"))
		return
	}
	anns, err := s.Platform.Annotate(req.Text)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	g := s.Platform.Graph()
	out := make([]annotationJSON, 0, len(anns))
	for _, a := range anns {
		aj := annotationJSON{Start: a.Start, End: a.End, Surface: a.Surface, Entity: uint32(a.Entity), Score: a.Score}
		if e := g.Entity(a.Entity); e != nil {
			aj.Key = e.Key
			aj.Name = e.Name
		}
		out = append(out, aj)
	}
	writeJSON(w, http.StatusOK, map[string]any{"annotations": out})
}

// handleRank serves GET /rank?subject=<key>&predicate=<name>.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	g := s.Platform.Graph()
	subj, ok := g.EntityByKey(r.URL.Query().Get("subject"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown subject"))
		return
	}
	pred, ok := g.PredicateByName(r.URL.Query().Get("predicate"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown predicate"))
		return
	}
	ranked, err := s.Platform.RankFactsContext(r.Context(), subj.ID, pred.ID)
	if err != nil {
		if contextEnded(w, r, err) {
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	type row struct {
		Object string  `json:"object"`
		Score  float64 `json:"score"`
	}
	out := make([]row, 0, len(ranked))
	for _, rf := range ranked {
		obj := rf.Triple.Object.String()
		if rf.Triple.Object.IsEntity() {
			if oe := g.Entity(rf.Triple.Object.Entity); oe != nil {
				obj = oe.Name
			}
		}
		out = append(out, row{Object: obj, Score: rf.Score})
	}
	writeJSON(w, http.StatusOK, map[string]any{"ranked": out})
}

// handleVerify serves GET /verify?subject=<key>&predicate=<name>&object=<key>.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	g := s.Platform.Graph()
	subj, ok := g.EntityByKey(r.URL.Query().Get("subject"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown subject"))
		return
	}
	pred, ok := g.PredicateByName(r.URL.Query().Get("predicate"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown predicate"))
		return
	}
	obj, ok := g.EntityByKey(r.URL.Query().Get("object"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown object"))
		return
	}
	v, err := s.Platform.VerifyFact(subj.ID, pred.ID, obj.ID)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// queryK reads the optional k parameter of the kNN routes: 10 when
// absent, otherwise an integer in 1..max; anything else is an error, never
// a silent default.
func queryK(r *http.Request, max int) (int, error) {
	ks := r.URL.Query().Get("k")
	if ks == "" {
		return 10, nil
	}
	n, err := strconv.Atoi(ks)
	if err != nil || n <= 0 || n > max {
		return 0, fmt.Errorf("bad k %q", ks)
	}
	return n, nil
}

// handleRelated serves GET /related?key=<key>&k=<n>.
func (s *Server) handleRelated(w http.ResponseWriter, r *http.Request) {
	g := s.Platform.Graph()
	e, ok := g.EntityByKey(r.URL.Query().Get("key"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown entity"))
		return
	}
	k, err := queryK(r, 1000)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rel, err := s.Platform.RelatedEntitiesContext(r.Context(), e.ID, k)
	if err != nil {
		if contextEnded(w, r, err) {
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	type row struct {
		Key   string  `json:"key"`
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	}
	out := make([]row, 0, len(rel))
	for _, se := range rel {
		rr := row{Score: se.Score}
		if re := g.Entity(se.ID); re != nil {
			rr.Key = re.Key
			rr.Name = re.Name
		}
		out = append(out, rr)
	}
	writeJSON(w, http.StatusOK, map[string]any{"related": out})
}

// handleSearch serves GET /search?q=...&k=10 over the web corpus; k
// outside 1..100 is a 400, as on /related.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.Search == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("search index not configured"))
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, errors.New("empty query"))
		return
	}
	k, err := queryK(r, 100)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hits, err := s.Search.SearchContext(r.Context(), q, k)
	if err != nil {
		// Only the request context can produce an error here: either the
		// admission budget expired (503) or the client disconnected
		// (nothing to write).
		contextEnded(w, r, err)
		return
	}
	type row struct {
		ID    string  `json:"id"`
		URL   string  `json:"url"`
		Title string  `json:"title"`
		Score float64 `json:"score"`
	}
	out := make([]row, 0, len(hits))
	for _, h := range hits {
		out = append(out, row{ID: h.Doc.ID, URL: h.Doc.URL, Title: h.Doc.Title, Score: h.Score})
	}
	writeJSON(w, http.StatusOK, map[string]any{"hits": out})
}
