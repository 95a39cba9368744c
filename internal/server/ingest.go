package server

import (
	"errors"
	"fmt"
	"net/http"

	"saga/internal/kg"
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
// Overload semantics: /ingest is Write-class traffic, admitted behind
// reads — when readers are already queueing, writes shed immediately
// with 429 + Retry-After (reads keep serving while ingest sheds first),
// and the write tier's own queue overflow/deadline sheds the same way.
// Bodies over 1 MiB answer 413; batches over maxIngestOps answer 400.
const maxIngestOps = 1000

type ingestTripleJSON struct {
	Subject   string        `json:"subject"`
	Predicate string        `json:"predicate"`
	Object    queryTermJSON `json:"object"`
}

type ingestRequest struct {
	Asserts  []ingestTripleJSON `json:"asserts"`
	Retracts []ingestTripleJSON `json:"retracts"`
}

// resolveIngestTriple maps one wire triple onto graph IDs. Unknown
// subjects/predicates report http.StatusNotFound; malformed terms 400.
func (s *Server) resolveIngestTriple(i int, tj ingestTripleJSON) (kg.Triple, int, error) {
	g := s.Platform.Graph()
	subj, ok := g.EntityByKey(tj.Subject)
	if !ok {
		return kg.Triple{}, http.StatusNotFound, fmt.Errorf("triple %d: unknown subject key %q", i, tj.Subject)
	}
	pred, ok := g.PredicateByName(tj.Predicate)
	if !ok {
		return kg.Triple{}, http.StatusNotFound, fmt.Errorf("triple %d: unknown predicate %q", i, tj.Predicate)
	}
	if tj.Object.Var != nil {
		return kg.Triple{}, http.StatusBadRequest, fmt.Errorf("triple %d: object must be a constant term", i)
	}
	term, err := s.parseTerm(tj.Object)
	if err != nil {
		return kg.Triple{}, http.StatusBadRequest, fmt.Errorf("triple %d object: %w", i, err)
	}
	return kg.Triple{Subject: subj.ID, Predicate: pred.ID, Object: term.Const}, 0, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !decodeCapped(w, r, &req) {
		return
	}
	if len(req.Asserts)+len(req.Retracts) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no mutations"))
		return
	}
	if n := len(req.Asserts) + len(req.Retracts); n > maxIngestOps {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d mutations exceeds the maximum of %d", n, maxIngestOps))
		return
	}
	// Resolve the whole batch before applying anything, so a bad triple
	// rejects the request without a partial write.
	asserts := make([]kg.Triple, 0, len(req.Asserts))
	for i, tj := range req.Asserts {
		t, status, err := s.resolveIngestTriple(i, tj)
		if err != nil {
			writeError(w, status, err)
			return
		}
		asserts = append(asserts, t)
	}
	retracts := make([]kg.Triple, 0, len(req.Retracts))
	for i, tj := range req.Retracts {
		t, status, err := s.resolveIngestTriple(len(req.Asserts)+i, tj)
		if err != nil {
			writeError(w, status, err)
			return
		}
		retracts = append(retracts, t)
	}

	g := s.Platform.Graph()
	added := 0
	for _, t := range asserts {
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
	for _, t := range retracts {
		if g.Retract(t) {
			retracted++
		}
	}

	watermark := g.LastSeq()
	if s.Platform.Durability() != nil {
		wm, err := s.Platform.SyncDurable()
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("durability: %w", err))
			return
		}
		watermark = wm
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"added":     added,
		"retracted": retracted,
		"watermark": watermark,
	})
}
