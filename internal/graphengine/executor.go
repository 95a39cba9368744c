package graphengine

import (
	"context"
	"slices"

	"saga/internal/kg"
)

// The executor half of the query stack: runs an immutable Plan (plan.go)
// against the graph, depth-first in plan-step order, binding into one
// slot row, with streaming dedup, a cursor-guided descent, and limit
// push-down at the leaves. The executor never re-plans — every access-
// path decision and every variable's slot was fixed at build time — so
// the same plan over the same graph state always streams the same
// sequence, which is the property cursors and the parallel merge
// (parallel.go) rely on.

// postingChunkSize is how many posting entries the executor copies per
// lock acquisition when expanding a bound-object clause through the
// chunked read path. The chunk bounds the one-slab-copy cost a small
// limit pays on a huge posting list: candidates stream through the join
// chunkSize at a time instead of materializing the whole posting first.
const postingChunkSize = 1024

// executor carries the state of one plan execution: the caller's
// clauses (steps reference them by input index), the slot row the steps
// bind into, per-depth expansion buffers reused across sibling nodes,
// and the streaming dedup/cursor/limit state.
//
// The row needs no rollback: which step binds which slot is static, so a
// sibling candidate simply overwrites the slots its step owns, and a
// step only ever reads slots an earlier step wrote on the current path.
//
// Two optional hooks repurpose the executor as a parallel worker
// (parallel.go): sink redirects complete rows into a collection callback
// (bypassing dedup/cursor/limit, which the merge applies globally), and
// halt aborts the recursion when the merge has already stopped
// consuming.
type executor struct {
	g       conjGraph
	plan    *Plan
	clauses []Clause
	row     []kg.Value    // one value per plan variable, in slot order
	bufs    [][]kg.Triple // per-depth candidate scratch, reused across siblings
	keys    []kg.ValueKey // leaf key-tuple scratch
	enc     []byte        // leaf key-encoding scratch
	dedup   bool          // collapse duplicate rows
	seen    map[string]struct{}
	chunked bool // expand bound-object clauses through the chunked posting read

	cursor    []kg.ValueKey // the cursor row's key per slot; nil = none
	cursorKey string        // its encoded tuple, as the dedup set keys rows
	skipping  bool          // still descending towards the cursor row
	limit     int           // <= 0 = unlimited
	yielded   int
	ctx       context.Context
	err       error // context error to surface after unwinding
	yield     func(Row, error) bool

	// Worker hooks (nil in the sequential path).
	sink  func(vals []kg.Value, key []byte) bool
	keyed bool // sink wants the key tuple computed
	halt  func() bool
}

// term returns the value at one clause position: the constant, or the
// row slot an earlier step bound.
func (e *executor) term(t Term, slot int) kg.Value {
	if slot < 0 {
		return t.Const
	}
	return e.row[slot]
}

// exec evaluates plan steps[idx:] under the current row, yielding
// complete rows depth-first. It returns false to abort the whole
// enumeration (consumer break, limit reached, halt, or context
// cancelled).
func (e *executor) exec(idx int) bool {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			e.err = err
			return false
		}
	}
	if e.halt != nil && e.halt() {
		return false
	}
	if idx == len(e.plan.steps) {
		return e.emit()
	}
	step := &e.plan.steps[idx]
	c := &e.clauses[step.Input]

	// Fully resolved clause: a single membership check, no candidate
	// buffer and nothing to bind. The lookup is SPO identity; a var-bound
	// object then re-applies the join's Equal semantics, so a NaN-valued
	// binding is pruned here exactly as candidate prunes it on the general
	// path.
	if step.Path == PathHasFact {
		sv, ov := e.term(c.Subject, step.sSlot), e.term(c.Object, step.oSlot)
		if e.g.HasFact(sv.Entity, c.Predicate, ov) &&
			(step.oSlot < 0 || ov.Equal(ov)) {
			return e.exec(idx + 1)
		}
		return true
	}

	// The chunked reads below restart after a concurrent slot-shifting
	// write and then re-deliver candidates. Past the cursor the leaf dedup
	// absorbs them; an expansion the descent entered on the way to the
	// cursor instead re-enters the descent, because the siblings it pruned
	// were never keyed and would otherwise stream again as new rows.
	toCursor := e.skipping

	// Chunked posting expansion: candidates stream through the join
	// postingChunkSize at a time, each slab copied under one stripe lock
	// acquisition with an epoch check. A restart can re-deliver subjects
	// and only the leaf dedup absorbs duplicate derivations, so the path
	// is only taken when dedup is on (NoDedup streams would double-yield).
	if step.Path == PathPosting && e.chunked {
		ov := e.term(c.Object, step.oSlot)
		t := kg.Triple{Predicate: c.Predicate, Object: ov}
		ok := true
		e.g.SubjectsWithChunked(c.Predicate, ov, postingChunkSize, func(chunk []kg.EntityID, restarted bool) bool {
			if restarted && toCursor {
				e.skipping = true
			}
			for _, sub := range chunk {
				t.Subject = sub
				if !e.candidate(idx, step, &t) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}

	// Chunked facts expansion: the bound-subject twin of the posting path
	// above. Fact-list slabs are copied out under one shard lock
	// acquisition each; a concurrent retract in the shard splices lists
	// and restarts the read, so — like the posting path — the route is
	// only taken when the leaf dedup is on.
	if step.Path == PathFacts && e.chunked {
		sv := e.term(c.Subject, step.sSlot)
		ok := true
		e.g.FactsChunked(sv.Entity, c.Predicate, postingChunkSize, func(chunk []kg.Triple, restarted bool) bool {
			if restarted && toCursor {
				e.skipping = true
			}
			for i := range chunk {
				if !e.candidate(idx, step, &chunk[i]) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}

	// Buffered expansion: candidates are copied out under the index locks
	// and enumerated lock-free, so the recursion (and the consumer's loop
	// body) never runs inside a graph lock.
	e.bufs[idx] = expandStep(e.g, step.Path, c.Predicate,
		e.term(c.Subject, step.sSlot), e.term(c.Object, step.oSlot), e.bufs[idx][:0])
	for i := range e.bufs[idx] {
		// By index: the recursion below may reuse deeper buffers, never
		// this depth's.
		if !e.candidate(idx, step, &e.bufs[idx][i]) {
			return false
		}
	}
	return true
}

// candidate binds one candidate triple of step idx into the row and
// recurses. It returns false to abort the enumeration.
//
// While the stream is still skipping towards its cursor, the descent is
// cursor-guided: a candidate whose newly bound slots differ from the
// cursor's values for those slots cannot lead to the cursor row, so it is
// dropped here — no recursion, no emit, no key, no seen-set entry. A
// resumed page therefore costs one compare per skipped sibling on the
// cursor's path, then the page itself.
func (e *executor) candidate(idx int, step *PlanStep, t *kg.Triple) bool {
	if e.skipping && !step.onCursorPath(t, e.cursor) {
		return true
	}
	// A variable position some earlier step already bound is a join
	// condition (Equal semantics); one this step binds is a slot write.
	if step.sSlot >= 0 {
		if sv := kg.EntityValue(t.Subject); step.sNew {
			e.row[step.sSlot] = sv
		} else if !e.row[step.sSlot].Equal(sv) {
			return true
		}
	}
	if step.oSlot >= 0 {
		if step.oNew {
			e.row[step.oSlot] = t.Object
		} else if !e.row[step.oSlot].Equal(t.Object) {
			return true
		}
	}
	return e.exec(idx + 1)
}

// rowKey encodes the current row's key tuple into the executor's scratch.
func (e *executor) rowKey() []byte {
	for i := range e.row {
		e.keys[i] = e.row[i].MapKey()
	}
	e.enc = appendKeyTuple(e.enc[:0], e.keys)
	return e.enc
}

// emit handles a complete row at a leaf. In the sequential path: the end
// of the cursor descent, streaming dedup on the key tuple (unless
// NoDedup), limit accounting, and the yield itself. In a worker (sink
// set), the row and key tuple are handed to the sink; the merge applies
// the global dedup/cursor/limit in stream order.
func (e *executor) emit() bool {
	if e.sink != nil {
		var key []byte
		if e.keyed {
			key = e.rowKey()
		}
		return e.sink(e.row, key)
	}
	if e.skipping {
		// Every slot was compared on the way down, so the only leaf the
		// descent reaches is the cursor row itself: the stream resumes
		// after it, and dedups from it onward.
		e.skipping = false
		if e.dedup {
			e.seen[e.cursorKey] = struct{}{}
		}
		return true
	}
	if e.dedup {
		key := e.rowKey()
		if _, dup := e.seen[string(key)]; dup {
			return true
		}
		e.seen[string(key)] = struct{}{}
	}
	return e.deliver(e.row)
}

// mergeRow applies the leaf bookkeeping (dedup, cursor skip, limit) to a
// row a worker already derived and keyed — the merge-side twin of emit.
// Workers run the whole subtree of the one first-step candidate on the
// cursor's path (the producer pruned the others), so here the rows ahead
// of the cursor are told apart by key; the rows arrive in sequential
// stream order, which makes the effect identical to emit's.
func (e *executor) mergeRow(r parallelRow) bool {
	if e.dedup {
		if _, dup := e.seen[string(r.key)]; dup {
			return true
		}
		e.seen[string(r.key)] = struct{}{}
	}
	if e.skipping {
		if string(r.key) == e.cursorKey {
			e.skipping = false
		}
		return true
	}
	return e.deliver(r.vals)
}

// deliver yields one row to the consumer and counts it against the limit.
func (e *executor) deliver(vals []kg.Value) bool {
	if !e.yield(Row{Vars: e.plan.vars, Vals: vals}, nil) {
		return false
	}
	e.yielded++
	return e.limit <= 0 || e.yielded < e.limit
}

// expandStep appends the triples matching (sv, pred, ov) through an
// enumerating access path (facts, posting or scan — exec answers a
// has_fact step itself) to buf and returns it; sv and ov are the resolved
// positions, ignored where the path leaves them open. Candidates are
// copied out under the index locks (one consistent read per index
// touched) so the caller can enumerate and recurse lock-free. Bound-
// object clauses read one posting list from the predicate-major index;
// unbound clauses enumerate the predicate's postings and are sorted into
// (subject, object key) order, because the underlying map iteration is
// the one candidate source with no inherent deterministic order and the
// stream order must be reproducible for cursors.
func expandStep(g conjGraph, path AccessPath, pred kg.PredicateID, sv, ov kg.Value, buf []kg.Triple) []kg.Triple {
	switch path {
	case PathFacts:
		g.FactsFunc(sv.Entity, pred, func(t kg.Triple) bool {
			buf = append(buf, t)
			return true
		})
		return buf
	case PathPosting:
		// The count is only a capacity hint: the streaming read below is
		// the single consistent enumeration (a writer may land between the
		// two stripe acquisitions, so never truncate at the hint).
		buf = slices.Grow(buf, g.SubjectsWithCount(pred, ov))
		g.SubjectsWithFunc(pred, ov, func(sub kg.EntityID) bool {
			buf = append(buf, kg.Triple{Subject: sub, Predicate: pred, Object: ov})
			return true
		})
		return buf
	default: // PathScan
		start := len(buf)
		g.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
			buf = append(buf, kg.Triple{Subject: subj, Predicate: pred, Object: obj})
			return true
		})
		ext := buf[start:]
		slices.SortFunc(ext, func(a, b kg.Triple) int {
			if a.Subject != b.Subject {
				if a.Subject < b.Subject {
					return -1
				}
				return 1
			}
			return a.Object.MapKey().Compare(b.Object.MapKey())
		})
		return buf
	}
}
