package graphengine

import (
	"context"
	"slices"

	"saga/internal/kg"
)

// The executor half of the query stack: runs an immutable Plan (plan.go)
// against the graph, depth-first in plan-step order, binding into one
// slot row, with a cursor-guided descent and limit push-down at the
// leaves. The executor never re-plans — every access-path decision and
// every variable's slot was fixed at build time — and every step
// enumerates its candidates in canonical key order (postings by subject
// ID, fact lists by object key, scans by both), so the stream order is a
// function of the plan and the facts alone, and strictly ascending in the
// plan's binding order: no row can appear twice, and a cursor can be
// compared against, not just matched.

// postingChunkSize is how many posting or fact-list entries the executor
// copies per lock acquisition. The chunk bounds the one-slab-copy cost a
// small limit pays on a huge posting list: candidates stream through the
// join chunkSize at a time instead of materializing the whole list first.
const postingChunkSize = 1024

// executor carries the state of one plan execution: the caller's
// clauses (steps reference them by input index), the slot row the steps
// bind into, per-depth scan buffers reused across sibling nodes, and the
// cursor/limit state.
//
// The row needs no rollback: which step binds which slot is static, so a
// sibling candidate simply overwrites the slots its step owns, and a
// step only ever reads slots an earlier step wrote on the current path.
type executor struct {
	g       conjGraph
	plan    *Plan
	clauses []Clause
	row     []kg.Value    // one value per plan variable, in slot order
	bufs    [][]kg.Triple // per-depth scan scratch, reused across siblings

	cursor   []kg.ValueKey // the cursor row's key per slot; nil = none
	skipping bool          // still descending towards the cursor row
	limit    int           // <= 0 = unlimited
	yielded  int
	ctx      context.Context
	err      error // context error to surface after unwinding
	yield    func(Row, error) bool
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
// enumeration (consumer break, limit reached, or context cancelled).
//
// Candidate expansion never holds a graph lock across the recursion:
// fact lists and postings stream through the chunked reads (slabs copied
// out under one lock acquisition each, resumed by key so a concurrent
// write can neither shift nor repeat them), and a scan buffers one
// consistent read of the predicate.
func (e *executor) exec(idx int) bool {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			e.err = err
			return false
		}
	}
	if idx == len(e.plan.steps) {
		return e.emit()
	}
	step := &e.plan.steps[idx]
	c := &e.clauses[step.Input]
	switch step.Path {
	case PathHasFact:
		// Fully resolved clause: a single membership check, nothing to
		// bind. The lookup is SPO identity; a var-bound object then
		// re-applies the join's Equal semantics, so a NaN-valued binding is
		// pruned here exactly as candidate prunes it on the general path.
		sv, ov := e.term(c.Subject, step.sSlot), e.term(c.Object, step.oSlot)
		if e.g.HasFact(sv.Entity, c.Predicate, ov) &&
			(step.oSlot < 0 || ov.Equal(ov)) {
			return e.exec(idx + 1)
		}
		return true
	case PathPosting:
		ov := e.term(c.Object, step.oSlot)
		t := kg.Triple{Predicate: c.Predicate, Object: ov}
		// A resumed page starts the read at the cursor's subject: the
		// entries before it would each be compared and dropped.
		after := kg.NoEntity
		if e.skipping {
			after = step.seekAfter(e.cursor)
		}
		ok := true
		e.g.SubjectsWithChunked(c.Predicate, ov, after, postingChunkSize, func(chunk []kg.EntityID) bool {
			for _, sub := range chunk {
				t.Subject = sub
				if ok = e.candidate(idx, step, &t); !ok {
					break
				}
			}
			return ok
		})
		return ok
	case PathFacts:
		sv := e.term(c.Subject, step.sSlot)
		ok := true
		e.g.FactsChunked(sv.Entity, c.Predicate, postingChunkSize, func(chunk []kg.Triple) bool {
			for i := range chunk {
				if ok = e.candidate(idx, step, &chunk[i]); !ok {
					break
				}
			}
			return ok
		})
		return ok
	default: // PathScan
		e.bufs[idx] = scanSorted(e.g, c.Predicate, e.bufs[idx][:0])
		for i := range e.bufs[idx] {
			// By index: the recursion below may reuse deeper buffers, never
			// this depth's.
			if !e.candidate(idx, step, &e.bufs[idx][i]) {
				return false
			}
		}
		return true
	}
}

// candidate binds one candidate triple of step idx into the row and
// recurses. It returns false to abort the enumeration.
//
// While the stream is still skipping towards its cursor, the descent is
// guided by one three-way compare of the slots this step newly binds
// against the cursor's values for them — meaningful because every step
// enumerates in ascending key order. Less: the candidate's whole subtree
// precedes the cursor row, so it is dropped unexpanded. Equal: the cursor
// row lies below it; descend, still skipping. Greater: the cursor's own
// candidate is gone (its row was retracted since the token was minted),
// so this is the cursor's successor — stop skipping and stream from here.
func (e *executor) candidate(idx int, step *PlanStep, t *kg.Triple) bool {
	if e.skipping {
		switch c := step.compareCursor(t, e.cursor); {
		case c < 0:
			return true
		case c > 0:
			e.skipping = false
		}
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

// emit handles a complete row at a leaf: the end of the cursor descent,
// limit accounting, and the yield itself. There is no duplicate check —
// every variable is part of the row, so a row fixes the triple each
// clause matched, and the steps enumerate strictly ascending keys, so the
// depth-first walk reaches each row at most once.
func (e *executor) emit() bool {
	if e.skipping {
		// Every slot compared equal on the way down: this is the cursor
		// row itself, and the stream resumes after it.
		e.skipping = false
		return true
	}
	if !e.yield(Row{Vars: e.plan.vars, Vals: e.row}, nil) {
		return false
	}
	e.yielded++
	return e.limit <= 0 || e.yielded < e.limit
}

// scanSorted appends every (subject, object) pair under pred to buf as
// triples in (subject, object key) order and returns it. The pairs are
// copied out under the index locks (one consistent read) so the caller
// can enumerate and recurse lock-free; the predicate's entries come in
// (object, subject) order and an overlay's adds after them, so this is
// the one access path that has to sort. Equal pairs — a derived fact the base graph also asserts —
// collapse to one.
func scanSorted(g conjGraph, pred kg.PredicateID, buf []kg.Triple) []kg.Triple {
	g.PredicateEntriesFunc(pred, func(obj kg.Value, subj kg.EntityID) bool {
		buf = append(buf, kg.Triple{Subject: subj, Predicate: pred, Object: obj})
		return true
	})
	slices.SortFunc(buf, cmpSubjectObject)
	return slices.CompactFunc(buf, func(a, b kg.Triple) bool { return cmpSubjectObject(a, b) == 0 })
}

// cmpSubjectObject is the scan path's order: subject ID, then object key.
func cmpSubjectObject(a, b kg.Triple) int {
	if c := cmpEntity(a.Subject, b.Subject); c != 0 {
		return c
	}
	return cmpObject(a, b)
}
