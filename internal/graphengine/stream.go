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

// Streaming query surface. The slice-returning Query/QueryConjunctive
// APIs solve the whole answer set before the caller sees the first row —
// fine for training views, hostile for serving, where a caller wanting
// ten rows should pay for ten rows. This layer redesigns the query
// surface around Go 1.24 iterators: Stream and StreamConjunctive yield
// results as the planner produces them, so a limit terminates the solve
// early, context cancellation aborts a join mid-flight, and an opaque
// cursor resumes enumeration where the previous page stopped (the
// "enumeration with bounded delay" serving contract — evaluation cost
// tracks output consumed, not output possible). The slice APIs remain as
// collect-and-sort shims over this layer.

// QueryOptions configure one streaming query. The zero value streams the
// full answer set with no deadline. One options struct serves every
// planner entry point (StreamConjunctive, StreamPattern, and the
// platform/HTTP layers above them).
type QueryOptions struct {
	// Limit stops the solve after this many rows have been yielded
	// (<= 0 = unlimited). Unlike truncating a materialized result, the
	// limit is pushed into the solver: enumeration stops probing as soon
	// as the last row is out.
	Limit int

	// Cursor resumes a conjunctive enumeration after the row with this
	// key tuple (the row's values in sorted-variable order — see
	// BindingKey and Row.Key). Resumption is a seek, not a replay: the
	// executor descends straight to the cursor row, dropping at each join
	// depth every candidate whose values differ from the cursor's without
	// expanding it, so a page costs one compare per sibling skipped on the
	// cursor's path plus the rows of the page itself — not the rows of the
	// pages before it. (Siblings are compare-scanned today; once posting
	// lists are sorted the scan becomes a binary search.) The resumed
	// stream dedups from the cursor row onward. Resumption relies on the
	// stream's deterministic order and is exact while the graph is
	// unchanged; mutations in between may shift page boundaries. A cursor
	// naming a row that no longer exists yields an empty remainder.
	Cursor []kg.ValueKey

	// Provenance selects stored-triple enumeration for pattern queries.
	// By default the predicate-bound pattern paths (predicate-only and
	// predicate+object) read the predicate-major index, whose postings
	// reconstruct objects from identity keys — those triples carry no
	// Prov (the planner expansion has always been provenance-free there).
	// Setting Provenance routes these two paths through the full stored-
	// triple scan instead: every yielded triple carries its provenance,
	// at full-scan cost. Match semantics are unchanged (SPO identity).
	// Conjunctive bindings map variables to values, which carry no
	// provenance either way, so the flag is a no-op for
	// StreamConjunctive.
	Provenance bool

	// NoDedup disables StreamConjunctive's duplicate collapse. The
	// streaming dedup holds a seen-set entry per distinct row enumerated,
	// so an unlimited stream over a huge answer set carries O(answers)
	// memory; an aggregation that tolerates (or wants) multiplicity can
	// set NoDedup and run in O(1) solver memory instead. With it set, a
	// binding derivable along several join paths is yielded once per
	// derivation, and cursor resumption (still supported) resumes after
	// the first occurrence of the cursor row. The HTTP query surface is
	// unaffected: it never sets NoDedup and always solves with a Limit,
	// which bounds the seen-set at limit+1 entries. Pattern streams have
	// no dedup to disable (an index never yields the same triple twice);
	// the flag is a no-op for StreamPattern.
	NoDedup bool

	// Timeout bounds the solve's wall-clock time (0 = none). It is
	// implemented as a context deadline layered over Context.
	Timeout time.Duration

	// Context aborts the solve when cancelled (nil = never). The stream
	// yields the context error as its final element.
	Context context.Context

	// Parallelism runs a conjunctive solve with this many workers
	// partitioning the first plan step's candidates (<= 1 = sequential).
	// The output stream is byte-identical to the sequential one — same
	// row order, dedup set, and cursors — for every worker count; only
	// wall-clock changes. Workers are cancelled as soon as the limit
	// fills, the consumer breaks, or Context is cancelled. The flag is a
	// no-op for StreamPattern.
	Parallelism int
}

// conjGraph is the read surface the conjunctive solver touches. It is an
// interface so tests can interpose a counting wrapper and pin how much of
// the graph a limited solve actually probes; *kg.Graph implements it.
type conjGraph interface {
	FactCount(kg.EntityID, kg.PredicateID) int
	SubjectsWithCount(kg.PredicateID, kg.Value) int
	PredicateFrequency(kg.PredicateID) int
	HasFact(kg.EntityID, kg.PredicateID, kg.Value) bool
	FactsFunc(kg.EntityID, kg.PredicateID, func(kg.Triple) bool)
	FactsChunked(kg.EntityID, kg.PredicateID, int, func([]kg.Triple, bool) bool)
	SubjectsWithFunc(kg.PredicateID, kg.Value, func(kg.EntityID) bool)
	SubjectsWithChunked(kg.PredicateID, kg.Value, int, func([]kg.EntityID, bool) bool)
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
// turned into a Binding. Duplicates are collapsed on the fly (a seen-set
// of the rows' ValueKey tuples, never rendered strings), so each distinct
// row is yielded exactly once; the seen-set grows with the distinct rows
// enumerated, which a Limit bounds.
//
// # Order
//
// The stream order is the plan's depth-first order and it is
// deterministic for a fixed graph state: the planner fixes a clause
// order once from counter estimates (ties keep the earlier clause — see
// buildPlan), and the candidates of each expansion enumerate in index
// (assertion) order — except unbound-clause expansions, which are
// map-backed and therefore sorted by (subject, object key) before
// enumeration. The same plan and graph always stream the same sequence,
// which is what Cursor resumption relies on; the Engine's plan cache
// returns the same plan for an unchanged shape, so consecutive pages see
// the same order. The order is NOT the sorted order of QueryConjunctive;
// that shim sorts after collecting.
//
// A resumed stream seeks to its cursor (see QueryOptions.Cursor) and
// dedups from the cursor row onward: rows ahead of the cursor are never
// enumerated, so they are not in the seen-set. On a quiescent graph that
// changes nothing — every variable is part of the row, so a full row
// fixes the triple each clause matched and has exactly one derivation;
// nothing after the cursor can repeat a row before it, and concatenated
// pages equal the unlimited stream. The seen-set only ever absorbs the
// re-deliveries of a chunked read that a concurrent write restarted.
//
// Candidate expansion never holds graph locks across a yield — bound-
// object clauses stream postingChunkSize-entry slabs per lock
// acquisition, other paths buffer one node's candidates — so the
// consumer may freely read the graph or block, and the delay between
// consecutive yields is bounded by one node's fan-out, not the result
// size.
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

// streamRows is StreamRows over the solver's graph interface (overlays,
// derived views, and the tests' counting wrappers enter here). It plans
// per call, with no cache.
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
// decides caching), build an executor, and run it sequentially or in
// parallel. planFn runs inside the iterator so each `range` over the
// returned sequence replans against current counters.
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
		ctx := opts.Context
		if opts.Timeout > 0 {
			base := ctx
			if base == nil {
				base = context.Background()
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(base, opts.Timeout)
			defer cancel()
		}
		ex := &executor{
			g:       g,
			plan:    p,
			clauses: clauses,
			row:     make([]kg.Value, len(p.vars)),
			bufs:    make([][]kg.Triple, len(p.steps)),
			keys:    make([]kg.ValueKey, len(p.vars)),
			// A plan of membership probes has one candidate path and at
			// most one row: nothing to collapse, so no seen-set. (chunked
			// still follows the caller's NoDedup: such a plan has no
			// chunked step.)
			dedup:   !opts.NoDedup && !p.singleRow(),
			chunked: !opts.NoDedup,
			limit:   opts.Limit,
			ctx:     ctx,
			yield:   yield,
		}
		if ex.dedup {
			// A limited stream holds at most limit rows (plus the cursor
			// row); sizing for them up front saves regrowing the set
			// through every page.
			ex.seen = make(map[string]struct{}, min(max(opts.Limit, 0), 1024))
		}
		if len(opts.Cursor) > 0 {
			ex.cursor = opts.Cursor
			ex.cursorKey = string(appendKeyTuple(nil, opts.Cursor))
			ex.skipping = true
		}
		if opts.Parallelism > 1 && parallelizable(p) {
			runParallel(ex, opts.Parallelism)
		} else {
			ex.exec(0)
		}
		if ex.err != nil {
			yield(Row{}, ex.err)
		}
	}
}

// queryVars returns the query's variable names, sorted — the canonical
// order of every binding's key tuple (dedup, result sort, cursors).
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

// Stream yields the triples matching the pattern, choosing the cheapest
// index for the bound positions — the iterator twin of Query. Unlike
// StreamConjunctive, the yield runs under the graph's read locks (the
// same contract as the kg *Func/*Seq visitors): the loop body must not
// mutate the graph or call back into it; breaking out stops the scan and
// releases the lock. Use StreamPattern for limits, provenance routing,
// and cancellation; use Query for a detached copy.
func (e *Engine) Stream(p Pattern) iter.Seq[kg.Triple] {
	return func(yield func(kg.Triple) bool) {
		for t, err := range e.StreamPattern(p, QueryOptions{}) {
			// The zero options cannot produce an error (no cursor, no
			// context); guard anyway so a future error path cannot yield
			// a zero triple silently.
			if err != nil {
				return
			}
			if !yield(t) {
				return
			}
		}
	}
}

// StreamPattern is Stream with options: Limit stops the index scan after
// that many matches, Context/Timeout abort it between matches, and
// Provenance selects stored-triple enumeration for the predicate-bound
// paths (see QueryOptions.Provenance). Cursors are a conjunctive-query
// feature; a pattern query with a cursor yields an error. Rows yield
// under the graph's read locks, like Stream; error elements yield after
// the locks are released.
func (e *Engine) StreamPattern(p Pattern, opts QueryOptions) iter.Seq2[kg.Triple, error] {
	return func(yield func(kg.Triple, error) bool) {
		if len(opts.Cursor) > 0 {
			yield(kg.Triple{}, fmt.Errorf("graphengine: cursors are not supported for pattern queries"))
			return
		}
		ctx := opts.Context
		if opts.Timeout > 0 {
			base := ctx
			if base == nil {
				base = context.Background()
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(base, opts.Timeout)
			defer cancel()
		}
		g := e.g
		n := 0
		var ctxErr error
		// emit forwards one match; it returns false to stop the scan
		// (consumer break, limit, cancellation).
		emit := func(t kg.Triple) bool {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			if !yield(t, nil) {
				return false
			}
			n++
			return opts.Limit <= 0 || n < opts.Limit
		}
		switch {
		case p.Subject != nil && p.Predicate != nil:
			g.FactsFunc(*p.Subject, *p.Predicate, func(t kg.Triple) bool {
				if p.Object != nil && !t.Object.Equal(*p.Object) {
					return true
				}
				return emit(t)
			})
		case p.Subject != nil:
			g.OutgoingFunc(*p.Subject, func(t kg.Triple) bool {
				if p.Object != nil && !t.Object.Equal(*p.Object) {
					return true
				}
				return emit(t)
			})
		case p.Predicate != nil && p.Object != nil && !opts.Provenance:
			obj := *p.Object
			g.SubjectsWithFunc(*p.Predicate, obj, func(s kg.EntityID) bool {
				return emit(kg.Triple{Subject: s, Predicate: *p.Predicate, Object: obj})
			})
		case p.Predicate != nil && p.Object != nil:
			// Provenance route: stored triples at full-scan cost, with the
			// same SPO-identity match the index path applies.
			key := p.Object.MapKey()
			g.Triples(func(t kg.Triple) bool {
				if t.Predicate != *p.Predicate || t.Object.MapKey() != key {
					return true
				}
				return emit(t)
			})
		case p.Object != nil && p.Object.IsEntity():
			// The P+O cases above have already captured patterns with a
			// bound predicate, so only the bare incoming-edge scan remains.
			g.IncomingFunc(p.Object.Entity, emit)
		case p.Predicate != nil && !opts.Provenance:
			g.PredicateEntriesFunc(*p.Predicate, func(obj kg.Value, subj kg.EntityID) bool {
				return emit(kg.Triple{Subject: subj, Predicate: *p.Predicate, Object: obj})
			})
		case p.Predicate != nil:
			g.Triples(func(t kg.Triple) bool {
				if t.Predicate != *p.Predicate {
					return true
				}
				return emit(t)
			})
		default:
			// Nothing bound, or only a literal object: full scan with the
			// residual object filter.
			g.Triples(func(t kg.Triple) bool {
				if p.Object != nil && !t.Object.Equal(*p.Object) {
					return true
				}
				return emit(t)
			})
		}
		if ctxErr != nil {
			yield(kg.Triple{}, ctxErr)
		}
	}
}

// --- Cursor tokens ------------------------------------------------------

// BindingKey returns the binding's identity tuple: the values' ValueKeys
// in sorted-variable order — the same tuple streaming dedup, result
// ordering, and cursors are defined over. Pass it to EncodeCursor to
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
// never encode to the same bytes (the property the streaming dedup set
// and cursor comparison rely on; rendered-string encodings lost it to
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
