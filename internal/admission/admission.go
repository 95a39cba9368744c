// Package admission is the serving tier's overload-protection layer:
// per-class concurrency limits, bounded FIFO wait queues with a queue
// deadline, request-budget deadlines for propagation into handler
// contexts, and a drain switch for graceful shutdown.
//
// The contract is bounded queueing: a request is either admitted within
// its class's queue deadline or shed early and cheaply (ErrQueueFull,
// ErrQueueTimeout, ErrDraining), never parked unboundedly. The HTTP
// layer maps sheds to 429 + Retry-After (503 while draining) so a
// saturated server keeps answering every request — most of them with a
// cheap rejection — instead of missing every deadline at once.
//
// # Priority classes
//
// Traffic is partitioned into four classes with independent limits:
// Exempt (health/metrics — always admitted, only counted), Read (lookup
// and query traffic), Write (ingest and rule installation), and
// Subscribe (long-lived streams, whose slot is held for the stream's
// whole life, making the in-flight limit a concurrent-subscriber cap).
// Degradation is ordered: when readers are already queueing, new writes
// are shed immediately (ErrDegraded) rather than competing for CPU —
// reads keep serving while ingest sheds first. Exempt traffic is never
// shed, even while draining, so orchestrators can still probe /health
// during shutdown.
//
// # Deadlines
//
// Admission bounds time-to-start; the per-class Budget bounds
// time-to-finish. WithBudget derives a handler context that expires
// ErrBudget after the class budget, letting streaming solves
// distinguish "client went away" (write nothing) from "budget spent"
// (write 503 + Retry-After) via context.Cause.
package admission

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Class is a request priority class.
type Class int

// Classes, in strictly descending admission priority.
const (
	// Exempt is never queued or shed (health, metrics).
	Exempt Class = iota
	// Read is lookup/query/search traffic.
	Read
	// Write is mutation traffic (ingest, rule installs, derives).
	Write
	// Subscribe is long-lived streaming traffic; its slot is held for
	// the stream's lifetime.
	Subscribe

	numClasses
)

// String returns the class's stats key.
func (c Class) String() string {
	switch c {
	case Exempt:
		return "exempt"
	case Read:
		return "read"
	case Write:
		return "write"
	case Subscribe:
		return "subscribe"
	}
	return "unknown"
}

// Shed sentinels. The HTTP layer maps ErrDraining to 503 and the rest
// to 429, both with Retry-After.
var (
	// ErrQueueFull reports a wait queue at capacity: the request was
	// shed without waiting.
	ErrQueueFull = errors.New("admission: wait queue full")
	// ErrQueueTimeout reports a request that queued for the full queue
	// deadline without a slot freeing up.
	ErrQueueTimeout = errors.New("admission: queue deadline exceeded")
	// ErrDraining reports a shed because the controller is draining for
	// shutdown.
	ErrDraining = errors.New("admission: server draining")
	// ErrDegraded reports a write shed immediately because readers were
	// already queueing (reads keep serving; ingest sheds first).
	ErrDegraded = errors.New("admission: writes shed while reads queue")
	// ErrBudget is the cancellation cause installed by WithBudget when a
	// request's class budget expires.
	ErrBudget = errors.New("admission: request budget exceeded")
)

// Limits bound one class's concurrency, queueing, and per-request
// budget. The zero value means unlimited concurrency, no queue, and no
// budget.
type Limits struct {
	// MaxInFlight is the concurrent-admission cap; <= 0 is unlimited.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for a slot beyond
	// MaxInFlight; <= 0 sheds immediately at capacity.
	MaxQueue int
	// QueueWait is the longest a request may wait for a slot; <= 0
	// waits only on the request context.
	QueueWait time.Duration
	// Budget is the end-to-end deadline WithBudget installs on the
	// handler context; 0 means none (long-lived streams).
	Budget time.Duration
}

// limiter is one class's admission state: a channel semaphore (blocked
// senders queue approximately FIFO in the runtime) plus counters.
type limiter struct {
	limits Limits
	// slots is the semaphore; nil when MaxInFlight is unlimited.
	slots chan struct{}

	inFlight atomic.Int64
	queued   atomic.Int64

	admitted     atomic.Int64
	shedFull     atomic.Int64
	shedTimeout  atomic.Int64
	shedDrain    atomic.Int64
	shedDegraded atomic.Int64
	// Queue-wait accounting over admitted requests, for drain-latency
	// visibility: cumulative nanoseconds and the high-water mark.
	waitTotalNS atomic.Int64
	waitMaxNS   atomic.Int64
}

func newLimiter(l Limits) *limiter {
	lim := &limiter{limits: l}
	if l.MaxInFlight > 0 {
		lim.slots = make(chan struct{}, l.MaxInFlight)
	}
	return lim
}

// Controller multiplexes the per-class limiters and the drain switch.
type Controller struct {
	classes [numClasses]*limiter

	draining   atomic.Bool
	drainStart atomic.Int64 // UnixNano of StartDrain
	drainedIn  atomic.Int64 // ns from StartDrain to first quiesced Stats observation
}

// NewController builds a controller with the given class limits. The
// Exempt class never limits; it only counts.
func NewController(read, write, subscribe Limits) *Controller {
	ctl := &Controller{}
	ctl.classes[Exempt] = newLimiter(Limits{})
	ctl.classes[Read] = newLimiter(read)
	ctl.classes[Write] = newLimiter(write)
	ctl.classes[Subscribe] = newLimiter(subscribe)
	return ctl
}

// DefaultLimits returns the stock serving-tier limits used when the
// operator sets nothing: generous enough that functional traffic never
// queues, tight enough that a saturating burst sheds instead of
// accumulating.
func DefaultLimits() (read, write, subscribe Limits) {
	read = Limits{MaxInFlight: 256, MaxQueue: 512, QueueWait: 250 * time.Millisecond, Budget: 5 * time.Second}
	write = Limits{MaxInFlight: 64, MaxQueue: 128, QueueWait: 100 * time.Millisecond, Budget: 5 * time.Second}
	subscribe = Limits{MaxInFlight: 1024, MaxQueue: 0, QueueWait: 0, Budget: 0}
	return read, write, subscribe
}

// Acquire admits one request of class c, waiting in the class's bounded
// FIFO queue when at capacity. On success the returned release must be
// called exactly once when the request finishes (for Subscribe, when
// the stream ends — the slot is the subscriber's concurrency token).
// On shed it returns one of the sentinel errors, or the context's
// cancellation cause if ctx ended while queued.
func (ctl *Controller) Acquire(ctx context.Context, c Class) (release func(), err error) {
	lim := ctl.classes[c]
	if c == Exempt {
		return lim.admit(0), nil
	}
	if ctl.draining.Load() {
		lim.shedDrain.Add(1)
		return nil, ErrDraining
	}
	// Reads keep serving while ingest sheds first: a write arriving when
	// readers are already queueing is shed before it takes a slot.
	if c == Write && ctl.classes[Read].queued.Load() > 0 {
		lim.shedDegraded.Add(1)
		return nil, ErrDegraded
	}
	if lim.slots == nil {
		return lim.admit(0), nil
	}
	select {
	case lim.slots <- struct{}{}:
		return lim.admit(0), nil
	default:
	}
	// At capacity: join the bounded wait queue or shed on the spot.
	if lim.limits.MaxQueue <= 0 {
		lim.shedFull.Add(1)
		return nil, ErrQueueFull
	}
	if q := lim.queued.Add(1); q > int64(lim.limits.MaxQueue) {
		lim.queued.Add(-1)
		lim.shedFull.Add(1)
		return nil, ErrQueueFull
	}
	var deadline <-chan time.Time
	if lim.limits.QueueWait > 0 {
		t := time.NewTimer(lim.limits.QueueWait)
		defer t.Stop()
		deadline = t.C
	}
	start := time.Now()
	select {
	case lim.slots <- struct{}{}:
		lim.queued.Add(-1)
		return lim.admit(time.Since(start)), nil
	case <-deadline:
		lim.queued.Add(-1)
		lim.shedTimeout.Add(1)
		return nil, ErrQueueTimeout
	case <-ctx.Done():
		lim.queued.Add(-1)
		return nil, context.Cause(ctx)
	}
}

// admit records the admission and returns its idempotent release.
func (lim *limiter) admit(waited time.Duration) func() {
	lim.inFlight.Add(1)
	lim.admitted.Add(1)
	if waited > 0 {
		lim.waitTotalNS.Add(int64(waited))
		for {
			cur := lim.waitMaxNS.Load()
			if int64(waited) <= cur || lim.waitMaxNS.CompareAndSwap(cur, int64(waited)) {
				break
			}
		}
	}
	var done atomic.Bool
	return func() {
		if !done.CompareAndSwap(false, true) {
			return
		}
		lim.inFlight.Add(-1)
		if lim.slots != nil {
			<-lim.slots
		}
	}
}

// WithBudget derives the handler context for class c: the class budget
// becomes a deadline whose cancellation cause is ErrBudget, so handlers
// can tell budget expiry (client still listening — answer 503) from a
// client disconnect (write nothing). A zero budget returns ctx as-is.
func (ctl *Controller) WithBudget(ctx context.Context, c Class) (context.Context, context.CancelFunc) {
	b := ctl.classes[c].limits.Budget
	if b <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, b, ErrBudget)
}

// StartDrain flips the controller into drain mode: every non-exempt
// Acquire sheds with ErrDraining from now on, while requests already
// admitted run to completion. Exempt traffic keeps flowing so health
// probes can watch the drain. Idempotent.
func (ctl *Controller) StartDrain() {
	if ctl.draining.CompareAndSwap(false, true) {
		ctl.drainStart.Store(time.Now().UnixNano())
	}
}

// ClassStats is one class's admission snapshot, shaped for /health.
type ClassStats struct {
	// InFlight and QueueDepth are instantaneous gauges.
	InFlight   int64 `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`
	// Admitted and the shed counters are lifetime totals.
	Admitted         int64 `json:"admitted"`
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout"`
	ShedDraining     int64 `json:"shed_draining"`
	ShedDegraded     int64 `json:"shed_degraded"`
	// Queue-wait accounting over admitted requests.
	QueueWaitTotalMS float64 `json:"queue_wait_total_ms"`
	QueueWaitMaxMS   float64 `json:"queue_wait_max_ms"`
	// Configured limits, echoed for operability.
	MaxInFlight int     `json:"max_in_flight"`
	MaxQueue    int     `json:"max_queue"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	BudgetMS    float64 `json:"budget_ms"`
}

// Stats is the controller snapshot surfaced under /health "admission".
type Stats struct {
	Draining bool `json:"draining"`
	// DrainedInMS is how long after StartDrain the non-exempt in-flight
	// count was first observed at zero (0 until then).
	DrainedInMS float64               `json:"drained_in_ms,omitempty"`
	Classes     map[string]ClassStats `json:"classes"`
}

// TotalShed sums every shed counter across classes.
func (s Stats) TotalShed() int64 {
	var n int64
	for _, c := range s.Classes {
		n += c.ShedQueueFull + c.ShedQueueTimeout + c.ShedDraining + c.ShedDegraded
	}
	return n
}

// Stats snapshots the controller. While draining, the first snapshot
// that observes zero non-exempt in-flight requests latches the drain
// latency.
func (ctl *Controller) Stats() Stats {
	st := Stats{Draining: ctl.draining.Load(), Classes: make(map[string]ClassStats, int(numClasses))}
	var busy int64
	for c := Exempt; c < numClasses; c++ {
		lim := ctl.classes[c]
		if c != Exempt {
			busy += lim.inFlight.Load()
		}
		st.Classes[c.String()] = ClassStats{
			InFlight:         lim.inFlight.Load(),
			QueueDepth:       lim.queued.Load(),
			Admitted:         lim.admitted.Load(),
			ShedQueueFull:    lim.shedFull.Load(),
			ShedQueueTimeout: lim.shedTimeout.Load(),
			ShedDraining:     lim.shedDrain.Load(),
			ShedDegraded:     lim.shedDegraded.Load(),
			QueueWaitTotalMS: float64(lim.waitTotalNS.Load()) / 1e6,
			QueueWaitMaxMS:   float64(lim.waitMaxNS.Load()) / 1e6,
			MaxInFlight:      lim.limits.MaxInFlight,
			MaxQueue:         lim.limits.MaxQueue,
			QueueWaitMS:      float64(lim.limits.QueueWait) / 1e6,
			BudgetMS:         float64(lim.limits.Budget) / 1e6,
		}
	}
	if st.Draining && busy == 0 && ctl.drainedIn.Load() == 0 {
		ctl.drainedIn.CompareAndSwap(0, time.Now().UnixNano()-ctl.drainStart.Load())
	}
	if ns := ctl.drainedIn.Load(); ns > 0 {
		st.DrainedInMS = float64(ns) / 1e6
	}
	return st
}
