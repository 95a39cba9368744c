package graphengine

import (
	"slices"
	"sync"

	"saga/internal/kg"
)

// Parallel plan execution. The first plan step's candidate list is
// partitioned into units of parallelUnitSize; K workers claim units and
// run the remaining join independently, collecting raw rows; the merge
// (on the consumer's goroutine) waits for units in production order and
// applies the global dedup, cursor skip, and limit there — so the output
// stream, including cursors and the dedup set, is byte-identical to the
// sequential executor for every K. Once the limit fills (or the consumer
// breaks), the merge closes the stop channel: the producer quits between
// sends and workers between units/candidates, bounding wasted work to
// the units in flight.
//
// Workers never dedup or count rows themselves — those are global
// properties of the stream order, which only the merge point sees. A
// resumed stream's cursor is honoured in two places: the producer drops
// the first-step candidates ahead of the one on the cursor's path (the
// executor's depth-0 prune, so the pages before this one are not
// re-derived), and the merge skips the rows of that one candidate's
// subtree that still precede the cursor row.

// parallelUnitSize is how many first-step candidates one work unit
// carries. Small enough that K workers stay busy on modest candidate
// lists, large enough that per-unit channel and allocation overhead
// stays amortized.
const parallelUnitSize = 128

// parallelRow is one complete row a worker derived: a detached copy of
// the slot row plus its encoded key tuple (computed only when the merge
// needs it for dedup or the cursor skip).
type parallelRow struct {
	vals []kg.Value
	key  []byte
}

// parallelUnit is one slice of the first step's candidates, claimed by a
// worker, with the derived rows published before done closes.
type parallelUnit struct {
	cands []kg.Triple
	rows  []parallelRow
	err   error
	done  chan struct{}
}

// parallelizable reports whether the plan has a first step worth
// partitioning. A fully resolved first step has exactly one candidate;
// an empty plan yields the single empty binding — both run sequential.
func parallelizable(p *Plan) bool {
	return len(p.steps) > 0 && p.steps[0].Path != PathHasFact
}

// runParallel executes ex's plan with the given worker count, leaving
// ex.err set exactly as the sequential path would on cancellation.
func runParallel(ex *executor, workers int) {
	step0 := ex.plan.steps[0]
	c0 := ex.clauses[step0.Input]
	keyed := ex.dedup || ex.skipping
	// The producer runs beside the merge, which clears ex.skipping when it
	// reaches the cursor row; it gets its own copy of the starting state.
	toCursor := ex.skipping

	stopCh := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(stopCh) }) }
	defer stop()

	orderCh := make(chan *parallelUnit, workers*2)
	unitCh := make(chan *parallelUnit, workers*2)

	go func() {
		defer close(orderCh)
		defer close(unitCh)
		produceUnits(ex, c0, &step0, toCursor, func(u *parallelUnit) bool {
			// orderCh first: the merge must see every unit a worker can
			// claim, in production order.
			select {
			case orderCh <- u:
			case <-stopCh:
				return false
			}
			select {
			case unitCh <- u:
			case <-stopCh:
				return false
			}
			return true
		})
	}()

	for i := 0; i < workers; i++ {
		go parallelWorker(ex, &step0, keyed, stopCh, unitCh)
	}

	// Merge in production order. After an early exit the loop keeps
	// draining orderCh without waiting on units, so the producer
	// unblocks, notices the stop, and closes the channels.
	stopped := false
	for u := range orderCh {
		if stopped {
			continue
		}
		<-u.done
		if u.err != nil {
			ex.err = u.err
			stop()
			stopped = true
			continue
		}
		for _, r := range u.rows {
			if !ex.mergeRow(r) {
				stop()
				stopped = true
				break
			}
		}
	}
}

// produceUnits partitions the first step's candidates and hands each
// unit to send, in stream order. A chunked first step (bound-object
// clause with dedup on) maps each posting slab to one unit without ever
// materializing the full candidate list; other paths expand buffered and
// split. With toCursor set, candidates are dropped until the first one on
// the cursor's path (PlanStep.onCursorPath — the same prune the
// sequential descent applies at depth 0); a restarted chunked read starts
// dropping again, as the sequential descent does.
func produceUnits(ex *executor, c0 Clause, step0 *PlanStep, toCursor bool, send func(*parallelUnit) bool) {
	dropping := toCursor
	ahead := func(t *kg.Triple) bool {
		if dropping && step0.onCursorPath(t, ex.cursor) {
			dropping = false
		}
		return dropping
	}
	if step0.Path == PathPosting && ex.chunked {
		ov := c0.Object.Const
		ex.g.SubjectsWithChunked(c0.Predicate, ov, parallelUnitSize, func(chunk []kg.EntityID, restarted bool) bool {
			if restarted {
				dropping = toCursor
			}
			cands := make([]kg.Triple, 0, len(chunk))
			t := kg.Triple{Predicate: c0.Predicate, Object: ov}
			for _, sub := range chunk {
				if t.Subject = sub; !ahead(&t) {
					cands = append(cands, t)
				}
			}
			return len(cands) == 0 || send(&parallelUnit{cands: cands, done: make(chan struct{})})
		})
		return
	}
	buf := expandStep(ex.g, step0.Path, c0.Predicate, c0.Subject.Const, c0.Object.Const, nil)
	for len(buf) > 0 && ahead(&buf[0]) {
		buf = buf[1:]
	}
	for start := 0; start < len(buf); start += parallelUnitSize {
		end := min(start+parallelUnitSize, len(buf))
		if !send(&parallelUnit{cands: buf[start:end], done: make(chan struct{})}) {
			return
		}
	}
}

// parallelWorker claims units and runs the remaining join (plan steps
// after the first) for each candidate, publishing raw rows in DFS order.
// The worker executor carries no dedup/cursor/limit state — sink mode
// collects every derivation and the merge filters globally.
func parallelWorker(ex *executor, step0 *PlanStep, keyed bool, stopCh chan struct{}, unitCh chan *parallelUnit) {
	w := &executor{
		g:       ex.g,
		plan:    ex.plan,
		clauses: ex.clauses,
		row:     make([]kg.Value, len(ex.plan.vars)),
		bufs:    make([][]kg.Triple, len(ex.plan.steps)),
		keys:    make([]kg.ValueKey, len(ex.plan.vars)),
		chunked: ex.chunked,
		ctx:     ex.ctx,
		keyed:   keyed,
		halt: func() bool {
			select {
			case <-stopCh:
				return true
			default:
				return false
			}
		},
	}
	for {
		var u *parallelUnit
		var ok bool
		select {
		case u, ok = <-unitCh:
			if !ok {
				return
			}
		case <-stopCh:
			return
		}
		w.sink = func(vals []kg.Value, key []byte) bool {
			u.rows = append(u.rows, parallelRow{vals: slices.Clone(vals), key: slices.Clone(key)})
			return true
		}
		for i := range u.cands {
			if !w.candidate(0, step0, &u.cands[i]) {
				break
			}
		}
		if w.err != nil {
			u.err = w.err
			w.err = nil
		}
		close(u.done)
	}
}
