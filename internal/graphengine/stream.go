package graphengine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"iter"
	"slices"
	"sort"
	"time"

	"saga/internal/kg"
)

// Streaming query surface. The slice-returning QueryConjunctive solves
// the whole answer set before the caller sees the first row — fine for
// training views, hostile for serving, where a caller wanting ten rows
// should pay for ten rows. This layer builds the query surface on Go 1.24
// iterators: StreamRows and StreamConjunctive yield results as the
// planner produces them, so a limit terminates the solve early, context
// cancellation aborts a join mid-flight, and an opaque cursor resumes
// enumeration where the previous page stopped (the "enumeration with
// bounded delay" serving contract — evaluation cost tracks output
// consumed, not output possible). QueryConjunctive remains as a
// collect-and-sort shim over this layer.

// QueryOptions configure one streaming query. The zero value streams the
// full answer set with no deadline. One options struct serves every
// conjunctive entry point (StreamRows, StreamConjunctive, and the
// platform/HTTP layers above them).
type QueryOptions struct {
	// Limit stops the solve after this many rows have been yielded
	// (<= 0 = unlimited). Unlike truncating a materialized result, the
	// limit is pushed into the solver: enumeration stops probing as soon
	// as the last row is out.
	Limit int

	// Cursor resumes a conjunctive enumeration after the row with this
	// key tuple (the row's values in sorted-variable order — see
	// BindingKey and Row.Key). Resumption is a seek, not a replay: every
	// join depth enumerates in canonical key order, so the executor
	// compares each candidate's newly bound values with the cursor's —
	// before it: dropped unexpanded; equal: descended into; past it: the
	// page starts here — and a bound-object step starts its posting read
	// at the cursor's subject outright. A page costs its own rows, not the
	// rows of the pages before it.
	//
	// The stream order is a function of the plan and the facts alone, so
	// a cursor stays meaningful across restarts, checkpoint recovery and
	// shard counts, and under concurrent writes: the page resumes at the
	// cursor row's successor in that order whether or not the cursor row
	// itself still exists, and a row present throughout a cursor walk is
	// delivered exactly once. (A plan-cache replan after large drift can
	// reorder the join; the walk then continues in the new order.)
	Cursor []kg.ValueKey

	// Timeout bounds the solve's wall-clock time (0 = none). It is
	// implemented as a context deadline layered over Context.
	Timeout time.Duration

	// Context aborts the solve when cancelled (nil = never). The stream
	// yields the context error as its final element.
	Context context.Context
}

// deadline returns the context the solve runs under — Context with
// Timeout layered over it as a deadline; nil when neither is set — and
// the function that releases it.
func (o QueryOptions) deadline() (context.Context, context.CancelFunc) {
	if o.Timeout <= 0 {
		return o.Context, func() {}
	}
	base := o.Context
	if base == nil {
		base = context.Background()
	}
	return context.WithTimeout(base, o.Timeout)
}

// conjGraph is the read surface the conjunctive solver touches: three
// counters for the planner, a membership probe, and one ordered
// enumeration per access path — fact lists by object key, postings by
// subject ID (resumable after a given subject), and the unordered
// per-predicate scan the executor sorts. It is an interface so tests can
// interpose a counting wrapper and pin how much of the graph a limited
// solve actually probes; *kg.Graph and *Overlay (the layered view)
// implement it.
type conjGraph interface {
	FactCount(kg.EntityID, kg.PredicateID) int
	SubjectsWithCount(kg.PredicateID, kg.Value) int
	PredicateFrequency(kg.PredicateID) int
	HasFact(kg.EntityID, kg.PredicateID, kg.Value) bool
	FactsChunked(kg.EntityID, kg.PredicateID, int, func([]kg.Triple) bool)
	SubjectsWithChunked(kg.PredicateID, kg.Value, kg.EntityID, int, func([]kg.EntityID) bool)
	PredicateEntriesFunc(kg.PredicateID, func(kg.Value, kg.EntityID) bool)
}

// Row is one answer of a conjunctive query in slot form: Vals[i] is the
// value of variable Vars[i], in sorted-variable order — the order of key
// tuples and cursors. Vars is shared with the plan and read-only. Vals
// may be the executor's own scratch: it is valid until the consumer asks
// for the next row, and must be copied (or turned into a Binding) to be
// kept.
type Row struct {
	Vars []string
	Vals []kg.Value
}

// Binding returns the row as a detached variable → value map.
func (r Row) Binding() Binding {
	b := make(Binding, len(r.Vars))
	for i, name := range r.Vars {
		b[name] = r.Vals[i]
	}
	return b
}

// Key returns the row's identity tuple, the same tuple BindingKey
// computes for the row's Binding. It does not alias Vals.
func (r Row) Key() []kg.ValueKey {
	keys := make([]kg.ValueKey, len(r.Vals))
	for i, v := range r.Vals {
		keys[i] = v.MapKey()
	}
	return keys
}

// StreamRows evaluates the conjunction and yields satisfying rows as the
// nested-loop join produces them — the one entry point every conjunctive
// read goes through; StreamConjunctive is this stream with each row
// turned into a Binding. Each distinct row is yielded exactly once, with
// no seen-set: every variable is part of the row, so a row fixes the
// triple each clause matched, and the walk below reaches it once.
//
// # Order
//
// The stream order is the plan's depth-first order with every join depth
// enumerated in canonical key order — a bound-subject step by object key,
// a bound-object step by subject ID, an unbound step by (subject, object
// key) — which makes it a function of the plan and the facts, not of how
// the facts arrived: the live graph, a graph recovered from a checkpoint,
// an as-of Overlay at the same watermark and a graph with a different
// shard count all stream byte-identical rows. The planner fixes a clause
// order once from counter estimates (ties keep the earlier clause — see
// buildPlan) and the Engine's plan cache returns the same plan for an
// unchanged shape, so consecutive pages see the same order. The order is
// NOT the sorted order of QueryConjunctive; that shim sorts after
// collecting.
//
// A resumed stream seeks to its cursor (see QueryOptions.Cursor); rows
// ahead of the cursor are never enumerated, and concatenated pages equal
// the unlimited stream.
//
// Candidate expansion never holds graph locks across a yield — fact
// lists and postings stream postingChunkSize-entry slabs per lock
// acquisition, a scan buffers one predicate's entries — so the consumer
// may freely read the graph or block, and the delay between consecutive
// yields is bounded by one node's fan-out, not the result size.
//
// Errors (clause validation, cursor shape, context cancellation) are
// yielded as the final (Row{}, err) element; rows always carry a nil
// error.
func (e *Engine) StreamRows(clauses []Clause, opts QueryOptions) iter.Seq2[Row, error] {
	g := e.read()
	return streamPlanned(g, clauses, opts, func() *Plan {
		return e.plans.plan(g, clauses, shapeKey(clauses))
	})
}

// StreamConjunctive is StreamRows with every row detached into a Binding
// (one map per row); errors yield as the final (nil, err) element.
func (e *Engine) StreamConjunctive(clauses []Clause, opts QueryOptions) iter.Seq2[Binding, error] {
	return bindings(e.StreamRows(clauses, opts))
}

// streamRows is StreamRows over the solver's graph interface (overlays
// and the tests' counting wrappers enter here). It plans per call, with
// no cache.
func streamRows(g conjGraph, clauses []Clause, opts QueryOptions) iter.Seq2[Row, error] {
	return streamPlanned(g, clauses, opts, func() *Plan {
		return buildPlan(g, clauses, "")
	})
}

// streamConjunctive is streamRows as Bindings.
func streamConjunctive(g conjGraph, clauses []Clause, opts QueryOptions) iter.Seq2[Binding, error] {
	return bindings(streamRows(g, clauses, opts))
}

// bindings adapts a row stream to the Binding-per-row surface.
func bindings(rows iter.Seq2[Row, error]) iter.Seq2[Binding, error] {
	return func(yield func(Binding, error) bool) {
		for r, err := range rows {
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(r.Binding(), nil) {
				return
			}
		}
	}
}

// validateClauses checks the structural invariants every entry point
// (streaming, explain) enforces before planning.
func validateClauses(clauses []Clause) error {
	for i, c := range clauses {
		if c.Subject.Var == "" && !c.Subject.Const.IsEntity() {
			return fmt.Errorf("graphengine: clause %d: constant subject must be an entity", i)
		}
		if c.Predicate == kg.NoPredicate {
			return fmt.Errorf("graphengine: clause %d: predicate required", i)
		}
	}
	return nil
}

// PlanConjunctive validates the query and returns its plan, through the
// Engine's plan cache — the explain surface. The returned Plan is
// immutable and safe to hold.
func (e *Engine) PlanConjunctive(clauses []Clause) (*Plan, error) {
	if err := validateClauses(clauses); err != nil {
		return nil, err
	}
	g := e.read()
	return e.plans.plan(g, clauses, shapeKey(clauses)), nil
}

// PlanCacheStats snapshots the Engine's plan-cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return e.plans.stats()
}

// streamPlanned is the shared entry body: validate, plan (the planFn
// decides caching), build an executor, and run it. planFn runs inside the
// iterator so each `range` over the returned sequence replans against
// current counters.
func streamPlanned(g conjGraph, clauses []Clause, opts QueryOptions, planFn func() *Plan) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		if err := validateClauses(clauses); err != nil {
			yield(Row{}, err)
			return
		}
		p := planFn()
		if len(opts.Cursor) > 0 && len(opts.Cursor) != len(p.vars) {
			yield(Row{}, fmt.Errorf("graphengine: cursor has %d values, query has %d variables", len(opts.Cursor), len(p.vars)))
			return
		}
		ctx, cancel := opts.deadline()
		defer cancel()
		ex := &executor{
			g:        g,
			plan:     p,
			clauses:  clauses,
			row:      make([]kg.Value, len(p.vars)),
			bufs:     make([][]kg.Triple, len(p.steps)),
			cursor:   opts.Cursor,
			skipping: len(opts.Cursor) > 0,
			limit:    opts.Limit,
			ctx:      ctx,
			yield:    yield,
		}
		ex.exec(0)
		if ex.err != nil {
			yield(Row{}, ex.err)
		}
	}
}

// queryVars returns the query's variable names, sorted — the canonical
// order of every binding's key tuple (result sort, cursors).
func queryVars(clauses []Clause) []string {
	var vars []string
	for _, c := range clauses {
		for _, t := range [2]Term{c.Subject, c.Object} {
			if t.Var != "" && !slices.Contains(vars, t.Var) {
				vars = append(vars, t.Var)
			}
		}
	}
	sort.Strings(vars)
	return vars
}

// --- Cursor tokens ------------------------------------------------------

// BindingKey returns the binding's identity tuple: the values' ValueKeys
// in sorted-variable order — the same tuple result ordering and cursors
// are defined over. Pass it to EncodeCursor to
// build the resume token for the page ending at this binding.
func BindingKey(b Binding) []kg.ValueKey {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	keys := make([]kg.ValueKey, len(names))
	for i, name := range names {
		keys[i] = b[name].MapKey()
	}
	return keys
}

// EncodeCursor serializes a binding key tuple into an opaque URL-safe
// token. The encoding is the collision-free binary key-tuple form (fixed-
// width kind/payload, length-prefixed strings), base64url without
// padding; adversarial literals (separators, NaN payloads, empty strings)
// round-trip exactly.
func EncodeCursor(keys []kg.ValueKey) string {
	return base64.RawURLEncoding.EncodeToString(appendKeyTuple(nil, keys))
}

// DecodeCursor parses a token produced by EncodeCursor.
func DecodeCursor(token string) ([]kg.ValueKey, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return nil, fmt.Errorf("graphengine: bad cursor encoding: %w", err)
	}
	count, off := binary.Uvarint(raw)
	if off <= 0 || count > maxCursorKeys {
		return nil, fmt.Errorf("graphengine: bad cursor header")
	}
	keys := make([]kg.ValueKey, 0, count)
	rest := raw[off:]
	for i := uint64(0); i < count; i++ {
		if len(rest) < 1+8 {
			return nil, fmt.Errorf("graphengine: truncated cursor")
		}
		k := kg.ValueKey{Kind: kg.ValueKind(rest[0])}
		k.Num = int64(binary.BigEndian.Uint64(rest[1:9]))
		rest = rest[9:]
		strLen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < strLen {
			return nil, fmt.Errorf("graphengine: truncated cursor string")
		}
		k.Str = string(rest[n : n+int(strLen)])
		rest = rest[n+int(strLen):]
		keys = append(keys, k)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("graphengine: trailing bytes in cursor")
	}
	return keys, nil
}

// maxCursorKeys bounds the declared tuple size of a decoded cursor; no
// real query has anywhere near this many variables, and the bound stops a
// hostile token from pre-allocating an arbitrary slice.
const maxCursorKeys = 4096

// appendKeyTuple appends the collision-free binary encoding of a key
// tuple: a uvarint count, then per key a kind byte, the 8-byte big-endian
// numeric payload, and the length-prefixed string payload. Fixed-width
// fields keep each key's encoding prefix-free, so distinct tuples can
// never encode to the same bytes (rendered-string encodings lost that to
// separator collisions).
func appendKeyTuple(b []byte, keys []kg.ValueKey) []byte {
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = append(b, byte(k.Kind))
		b = binary.BigEndian.AppendUint64(b, uint64(k.Num))
		b = binary.AppendUvarint(b, uint64(len(k.Str)))
		b = append(b, k.Str...)
	}
	return b
}
