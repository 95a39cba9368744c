package server

import (
	"encoding/json"
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
	// maxSubscribeBuffer caps the requested event channel capacity,
	// which the hub allocates up front.
	maxSubscribeBuffer = 1024
	// maxSubscribeMaxPending caps the requested eviction bound: past it
	// a stalled client would hold the hub's memory without limit.
	maxSubscribeMaxPending = 65_536
)

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
	// The request is read and decoded like /query's. The scanner is not
	// pooled: the stream outlives any request.
	var req requestScanner
	body, err := readBody(w, r, nil)
	if err == nil {
		err = req.scan(body, subscribeFields)
	}
	if err != nil {
		rejectBody(w, err)
		return
	}
	if err := checkClauseCount(req.nClauses); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The window is in milliseconds (default 10, max 10000); buffer is
	// the event channel capacity (default 16, max 1024), and max_pending
	// the undelivered-delta bound beyond which the subscriber is evicted
	// (default 4096, max 65536). 0 or absent keeps the default.
	for _, f := range []struct {
		name   string
		v, max int64
	}{
		{"coalesce_ms", req.coalesceMS, maxSubscribeCoalesceMS},
		{"buffer", req.buffer, maxSubscribeBuffer},
		{"max_pending", req.maxPending, maxSubscribeMaxPending},
	} {
		if f.v < 0 || f.v > f.max {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s %d", f.name, f.v))
			return
		}
	}
	clauses, status, err := s.parseClauses(req.clauses, nil)
	if err != nil {
		writeError(w, status, err)
		return
	}
	sub, err := s.Platform.Subscribe(clauses, saga.SubscribeOptions{
		Buffer:     int(req.buffer),
		Coalesce:   time.Duration(req.coalesceMS) * time.Millisecond,
		MaxPending: int(req.maxPending),
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
	enc.names = &s.names
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
