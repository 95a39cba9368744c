package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"saga/saga"
)

// Live subscription endpoint: POST /subscribe with a /query-style body
//
//	{"clauses": [...], "coalesce_ms": 25, "buffer": 16, "max_pending": 4096}
//
// streams the standing query's answer set as newline-delimited JSON:
// first a reset event carrying the full answer set, then one event per
// coalescing window with the incremental adds and retracts:
//
//	{"adds": [...], "retracts": [...], "watermark": 412, "reset": true}
//	{"adds": [{"p": {"key": "e7", "name": "..."}}], "retracts": [], "watermark": 430}
//
// Bindings render exactly as /query bindings. The stream runs until the
// client disconnects or the subscriber is evicted for not draining fast
// enough (saga.ErrSlowSubscriber), in which case a final
// {"error": ...} line is written. Each event write carries its own
// deadline (subscribeWriteTimeout), which also overrides the server's
// global write timeout for this connection — long-lived streams are
// expected here.
//
// Overload semantics: /subscribe is Subscribe-class traffic, the lowest
// admission priority, and its admission slot is held for the stream's
// whole life — the class's in-flight limit is therefore a concurrent-
// subscriber cap (kgserve -max-subscriptions). The class has no wait
// queue: a subscriber beyond the cap is shed immediately with 429 +
// Retry-After, and a draining server answers 503 + Retry-After. No
// request budget applies (streams are meant to outlive any deadline);
// the slow-client eviction above is what bounds a stream's cost.
const (
	// subscribeWriteTimeout bounds one event write to a slow client.
	subscribeWriteTimeout = 10 * time.Second
	// maxSubscribeCoalesceMS caps the requested coalescing window.
	maxSubscribeCoalesceMS = 10_000
)

type subscribeRequest struct {
	Clauses []queryClauseJSON `json:"clauses"`
	// CoalesceMS is the delta-batching window in milliseconds
	// (default 10, max 10000).
	CoalesceMS int `json:"coalesce_ms"`
	// Buffer is the event channel capacity (default 16).
	Buffer int `json:"buffer"`
	// MaxPending is the undelivered-delta bound beyond which the
	// subscriber is evicted (default 4096).
	MaxPending int `json:"max_pending"`
}

// appendSubscribeEvent appends the NDJSON line of one subscription
// event: {"adds":[...],"retracts":[...],"watermark":N} plus "reset":true
// on a reset event, bindings encoded as /query encodes its rows.
func appendSubscribeEvent(dst []byte, enc *rowEncoder, ev saga.SubscriptionEvent) []byte {
	dst = append(dst, `{"adds":`...)
	dst = enc.appendBindings(dst, ev.Adds)
	dst = append(dst, `,"retracts":`...)
	dst = enc.appendBindings(dst, ev.Retracts)
	dst = append(dst, `,"watermark":`...)
	dst = strconv.AppendUint(dst, ev.Watermark, 10)
	if ev.Reset {
		dst = append(dst, `,"reset":true`...)
	}
	return append(dst, '}', '\n')
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)
	var req subscribeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
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
	if req.CoalesceMS < 0 || req.CoalesceMS > maxSubscribeCoalesceMS {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad coalesce_ms %d", req.CoalesceMS))
		return
	}
	clauses, status, err := s.parseClauses(req.Clauses)
	if err != nil {
		writeError(w, status, err)
		return
	}
	sub, err := s.Platform.Subscribe(clauses, saga.SubscribeOptions{
		Buffer:     req.Buffer,
		Coalesce:   time.Duration(req.CoalesceMS) * time.Millisecond,
		MaxPending: req.MaxPending,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := newRowEncoder(s.Platform.Graph(), sub.Vars())
	var line []byte // reused across events
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.C:
			if !ok {
				// Evicted by the hub: tell the client why before closing.
				if err := sub.Err(); err != nil {
					_ = rc.SetWriteDeadline(time.Now().Add(subscribeWriteTimeout))
					_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
					_ = rc.Flush()
				}
				return
			}
			line = appendSubscribeEvent(line[:0], enc, ev)
			if err := rc.SetWriteDeadline(time.Now().Add(subscribeWriteTimeout)); err != nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}
