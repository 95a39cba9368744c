package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"saga/internal/kg"
	"saga/internal/server"
	"saga/internal/wal"
	"saga/saga"
)

// A traced run measures the layers from outside: it replays a
// deterministic sample of the workload's ops at each seam a request
// crosses, bottom to top, timing the call into that seam's public
// function. A layer's self time is its seam's time minus the seam
// below it. Nothing inside the program is instrumented; spans inside
// the layers are a later change.
//
// Reads climb  kg visitors → Engine.StreamConjunctive →
// Platform.QueryStream (or the embedding / search / annotation service
// call) → Handler().ServeHTTP into a recorder → loopback HTTP, all on
// the stack the measured phase just ran on.
//
// Writes climb  Graph.AssertNew/Retract + SyncIndexes → Manager.Commit
// under SyncNever → under SyncEachCommit → handler → loopback, each
// rung replaying the same batch prefix on its own fresh platform.

// ladderReps is how often each op is replayed per rung; an op's time at
// a rung is the fastest of them, which is what filters this box's
// steal bursts out of a microsecond-scale measurement.
const ladderReps = 3

type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	OpID   int    `json:"op_id"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs fn as one span and returns its duration.
func (tr *tracer) timed(name, parent string, opID int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, OpID: opID, Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
	return end.Sub(start)
}

// add records a span that ended just now and lasted d, for a seam whose
// time the callee measured itself (the client's send → body drained).
func (tr *tracer) add(name, parent string, opID int, d time.Duration) {
	end := time.Since(tr.t0)
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, OpID: opID, Start: int64(end - d), End: int64(end)})
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read seams, bottom to top, with the span each one's time nests under.
const (
	seamKG = iota
	seamEngine
	seamService
	seamHandler
	seamHTTP
	numSeams
)

// layerSet accumulates per-layer metrics; every name BENCHMARK.json
// lists is emitted by every workload, zero where the layer is idle.
type layerSet map[string]metric

func (ls layerSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ls[name] = metric{v, unit}
}

var layerUnits = map[string]string{
	"http.self_us": "us", "http.resp_bytes_per_op": "B",
	"server.self_us": "us", "server.encode_bytes_per_row": "B", "admission.shed": "count", "admission.queue_wait_ms": "ms",
	"saga.self_us":             "us",
	"graphengine.exec_self_us": "us", "graphengine.rows_per_ms": "1/ms", "graphengine.page_first_us": "us",
	"graphengine.page_last_us": "us", "graphengine.plan_miss_us": "us", "graphengine.plan_hit_frac": "frac",
	"kg.read_us": "us", "kg.assert_us_per_triple": "us", "kg.retract_us_per_triple": "us", "kg.pom_sync_us": "us", "kg.heap_bytes_per_triple": "B",
	"wal.append_us_per_batch": "us", "wal.fsync_us_per_batch": "us", "wal.bytes_per_triple": "B", "wal.writes_per_batch": "count",
	"wal.fsyncs_per_batch": "count", "wal.checkpoints": "count", "wal.checkpoint_s": "s", "wal.checkpoint_bytes": "B", "wal.recover_s": "s",
	"subscribe.fanout_us_per_write": "us", "subscribe.notify_lag_p50_ms": "ms", "subscribe.events_per_write": "count", "subscribe.evictions": "count",
	"rules.maint_us_per_batch": "us", "rules.derivations_per_batch": "count", "rules.retractions_per_batch": "count",
	"rules.full_runs": "count", "rules.lag_max": "count", "rules.initial_derive_s": "s",
	"embedserve.related_us": "us", "vecindex.search_us": "us", "annotate.doc_us": "us", "websearch.search_us": "us",
	"mixed.write_lat_p50_ms": "ms", "mixed.write_lat_p95_ms": "ms", "mixed.write_late_p95_ms": "ms", "mixed.writes_done": "count",
	"setup.gen_s": "s", "setup.import_s": "s", "setup.checkpoint_s": "s", "setup.train_s": "s", "setup.index_s": "s",
	"proc.cpu_us_per_op": "us", "proc.allocs_per_op": "count", "proc.alloc_bytes_per_op": "B", "proc.gc_pause_ms": "ms",
	"proc.heap_mb": "MiB", "proc.rss_peak_mb": "MiB", "proc.steal_frac": "frac",
	"load.lat_p95_ms": "ms", "load.lat_p99_ms": "ms", "load.slice_rate_iqr_frac": "frac", "load.trace_overhead_frac": "frac",
	"load.probe_ms": "ms", "load.raw_ops_s": "1/s", "load.raw_lat_p50_ms": "ms", "load.raw_lat_p95_ms": "ms",
}

// traceLayers builds every per-layer metric: the ones the measured
// phase's counters give directly, then the seam ladders.
func traceLayers(cfg *runConfig, st *stack, pl *plan, ms *measured) (map[string]metric, error) {
	ls := make(layerSet, len(layerUnits))
	for name, unit := range layerUnits {
		ls[name] = metric{0, unit}
	}
	countersToLayers(ls, st, ms)

	tr := &tracer{t0: time.Now()}
	if st.sp.name != "ingest-durable" {
		readLadder(cfg, tr, ls, st, pl, ms)
	}
	if st.sp.durable {
		prefix, warm := pl.main, pl.warm
		if st.sp.live {
			prefix, warm = pl.writes[pl.warmWrites:], pl.writes[:pl.warmWrites]
		}
		if err := writeLadder(cfg, tr, ls, st, warm, prefix[:min(cfg.sz.ladderBatches, len(prefix))]); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(cfg.outDir, "trace-"+st.sp.name+".json")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	cfg.logf("# %d spans written to %s", len(tr.spans), path)
	return ls, nil
}

// countersToLayers fills the metrics that come from counters sampled
// around the untraced measured phase.
func countersToLayers(ls layerSet, st *stack, ms *measured) {
	ops := float64(max(1, ms.loop.attempted))
	if ms.writer != nil {
		ops += float64(ms.writer.attempted)
	}
	d := func(a, b uint64) float64 { return float64(a - b) }
	ls.set("proc.cpu_us_per_op", float64(ms.post.cpu-ms.pre.cpu)/float64(time.Microsecond)/ops, "us")
	ls.set("proc.allocs_per_op", d(ms.post.mallocs, ms.pre.mallocs)/ops, "count")
	ls.set("proc.alloc_bytes_per_op", d(ms.post.allocBytes, ms.pre.allocBytes)/ops, "B")
	ls.set("proc.gc_pause_ms", d(ms.post.gcPauseNS, ms.pre.gcPauseNS)/1e6, "ms")
	ls.set("proc.heap_mb", float64(ms.post.heapBytes)/(1<<20), "MiB")
	if total := d(ms.post.hostTotal, ms.pre.hostTotal); total > 0 {
		ls.set("proc.steal_frac", d(ms.post.hostSteal, ms.pre.hostSteal)/total, "frac")
	}
	ls.set("proc.rss_peak_mb", peakRSSMiB(), "MiB")
	ls.set("load.lat_p95_ms", quantile(ms.loop.scaledMS, 0.95), "ms")
	ls.set("load.lat_p99_ms", quantile(ms.loop.scaledMS, 0.99), "ms")
	ls.set("load.slice_rate_iqr_frac", iqrFrac(ms.loop.rates), "frac")
	// The clock's own readings, before scaling by the probe.
	ls.set("load.probe_ms", median(ms.loop.probesMS), "ms")
	ls.set("load.raw_ops_s", median(ms.loop.rawRates), "1/s")
	ls.set("load.raw_lat_p50_ms", quantile(ms.loop.latMS, 0.50), "ms")
	ls.set("load.raw_lat_p95_ms", quantile(ms.loop.latMS, 0.95), "ms")

	ls.set("admission.shed", float64(ms.shed), "count")
	ls.set("admission.queue_wait_ms", ms.queueWaitMS/float64(max(1, ms.admitted)), "ms")
	if n := ms.planHits + ms.planMisses; n > 0 {
		ls.set("graphengine.plan_hit_frac", float64(ms.planHits)/float64(n), "frac")
	}
	for _, stage := range []string{"gen_s", "import_s", "checkpoint_s", "train_s", "index_s"} {
		ls.set("setup."+stage, st.stage[stage], "s")
	}

	if st.sp.durable {
		batches := float64(max(1, ms.loop.attempted))
		if ms.writer != nil {
			batches = float64(max(1, ms.writer.attempted))
		}
		ls.set("wal.bytes_per_triple", float64(ms.fs.segBytes)/float64(max(1, ms.triples)), "B")
		ls.set("wal.writes_per_batch", float64(ms.fs.segWrites)/batches, "count")
		ls.set("wal.fsyncs_per_batch", float64(ms.fs.syncs)/batches, "count")
		ls.set("wal.checkpoints", float64(ms.checkpoints), "count")
		ls.set("wal.checkpoint_s", ms.checkpointS, "s")
		ls.set("wal.checkpoint_bytes", float64(ms.fs.ckptBytes), "B")
		ls.set("wal.recover_s", ms.recoverS, "s")
	}
	if wr := ms.writer; wr != nil {
		writes := float64(max(1, wr.attempted))
		ls.set("subscribe.notify_lag_p50_ms", quantile(wr.lagMS, 0.5), "ms")
		ls.set("subscribe.events_per_write", float64(wr.events)/writes, "count")
		ls.set("subscribe.evictions", float64(ms.evictions), "count")
		ls.set("rules.derivations_per_batch", d(ms.rules1.Derivations, ms.rules0.Derivations)/writes, "count")
		ls.set("rules.retractions_per_batch", d(ms.rules1.Retractions, ms.rules0.Retractions)/writes, "count")
		ls.set("rules.full_runs", float64(ms.rules1.FullRuns), "count")
		ls.set("rules.lag_max", float64(wr.rulesLagMax), "count")
		ls.set("rules.initial_derive_s", st.stage["rules_s"], "s")
		ls.set("mixed.write_lat_p50_ms", quantile(wr.latMS, 0.5), "ms")
		ls.set("mixed.write_lat_p95_ms", quantile(wr.latMS, 0.95), "ms")
		ls.set("mixed.write_late_p95_ms", quantile(wr.lateMS, 0.95), "ms")
		ls.set("mixed.writes_done", float64(wr.attempted), "count")
	}
}

// readLadder replays a sample of the measured ops at each read seam:
// the first cycle of every k-th window, k chosen so that one pass over
// the loopback seam takes about ladderSeconds at the nominal rate.
func readLadder(cfg *runConfig, tr *tracer, ls layerSet, st *stack, pl *plan, ms *measured) {
	want := max(1, int(cfg.sz.ladderSeconds*cfg.sz.cyclesPerSecond[st.sp.name]))
	step := max(1, pl.windows/want)
	var idx []int // indexes into pl.main
	for w := 0; w < pl.windows && len(idx) < want*pl.cycleLen; w += step {
		for i := 0; i < pl.cycleLen; i++ {
			idx = append(idx, w*pl.opsPerWindow+i)
		}
	}

	g, eng := st.p.Graph(), st.p.Engine()
	c := newClient(st.base)
	defer c.close()
	best := make([][numSeams]time.Duration, len(idx))
	for i := range best {
		for s := range best[i] {
			best[i][s] = math.MaxInt64
		}
	}
	keep := func(i, seam int, d time.Duration) {
		if d < best[i][seam] {
			best[i][seam] = d
		}
	}
	rows := make([]int, len(idx))
	var handlerBytes, httpBytes int64
	var tracedMS, untracedMS []float64 // the same ops over loopback: first traced pass vs the measured phase
	var relatedNS, relatedN, vecNS, searchNS, searchN, annNS, annN int64

	for rep := 0; rep < ladderReps; rep++ {
		// One pass per seam, bottom to top, so each seam runs with the
		// caches the seam before it left — as a request would find them.
		var cursor saga.QueryCursor
		for i, at := range idx {
			o := &pl.main[at]
			switch o.kind {
			case kQuery:
				keep(i, seamKG, tr.timed("kg", "graphengine", at, func() { kgEnumerate(g, o.cls, o.limit) }))
			case kEntity:
				keep(i, seamKG, tr.timed("kg", "server", at, func() {
					if ent, ok := g.EntityByKey(o.text); ok {
						g.OutgoingFunc(ent.ID, func(kg.Triple) bool { return true })
					}
				}))
			default:
				keep(i, seamKG, 0)
			}
		}
		for i, at := range idx {
			o := &pl.main[at]
			if o.kind != kQuery {
				keep(i, seamEngine, best[i][seamKG])
				continue
			}
			if o.page == 0 {
				cursor = nil
			}
			var last saga.QueryBinding
			n := 0
			keep(i, seamEngine, tr.timed("graphengine", "saga", at, func() {
				last, n = drainStream(eng.StreamConjunctive(engineClauses(o.cls), saga.QueryOptions{Limit: o.limit + 1, Cursor: cursor}), o.limit)
			}))
			rows[i] = n
			if o.pages > 1 && last != nil {
				cursor = saga.QueryBindingKey(last)
			}
		}
		for i, at := range idx {
			o := &pl.main[at]
			switch o.kind {
			case kQuery:
				if o.page == 0 {
					cursor = nil
				}
				var last saga.QueryBinding
				keep(i, seamService, tr.timed("saga", "server", at, func() {
					last, _ = drainStream(st.p.QueryStream(engineClauses(o.cls), saga.QueryOptions{Limit: o.limit + 1, Cursor: cursor}), o.limit)
				}))
				if o.pages > 1 && last != nil {
					cursor = saga.QueryBindingKey(last)
				}
			case kRelated:
				d := tr.timed("embedserve", "server", at, func() { st.p.RelatedEntitiesContext(context.Background(), o.ent, 10) }) //nolint:errcheck // checked in the measured phase
				keep(i, seamService, d)
				relatedNS, relatedN = relatedNS+int64(d), relatedN+1
				if vec, ok := st.p.EmbeddingService().EntityEmbedding(o.ent); ok {
					vecNS += int64(tr.timed("vecindex", "embedserve", at, func() { st.p.EmbeddingService().NearestByVector(vec, 10) }))
				}
			case kSearch:
				d := tr.timed("websearch", "server", at, func() { st.index.Search(o.text, 10) })
				keep(i, seamService, d)
				searchNS, searchN = searchNS+int64(d), searchN+1
			case kAnnotate:
				d := tr.timed("annotate", "server", at, func() { st.p.Annotate(o.text) }) //nolint:errcheck // checked in the measured phase
				keep(i, seamService, d)
				annNS, annN = annNS+int64(d), annN+1
			default:
				keep(i, seamService, best[i][seamEngine])
			}
		}
		for i, at := range idx {
			o := &pl.main[at]
			req, _ := c.request(o) // cursor carried in c, as over loopback
			rec := httptest.NewRecorder()
			keep(i, seamHandler, tr.timed("server", "http", at, func() { st.handler.ServeHTTP(rec, req) }))
			if rep == 0 {
				handlerBytes += int64(rec.Body.Len())
			}
			var env envelope
			if json.Unmarshal(rec.Body.Bytes(), &env) != nil {
				continue // the loopback pass below reports what is wrong with it
			}
			c.cursor = env.NextCursor
			if o.kind != kQuery {
				rows[i] = len(env.Facts) + len(env.Related) + len(env.Hits) + len(env.Annotations)
			}
		}
		for i, at := range idx {
			o := &pl.main[at]
			saved := o.exp
			o.exp = nil // the measured phase already checked; time the transport
			out := c.do(o, time.Time{})
			o.exp = saved
			tr.add("http", "", at, out.lat)
			keep(i, seamHTTP, out.lat)
			if rep == 0 {
				httpBytes += int64(out.bytes)
				tracedMS = append(tracedMS, float64(out.lat)/float64(time.Millisecond))
			}
		}
	}

	n := float64(len(idx))
	var sum [numSeams]float64
	var execSelf, sagaSelf, engineNS, queryRows float64
	var first, last []float64
	totalRows := 0
	for i, at := range idx {
		o := &pl.main[at]
		for s := 0; s < numSeams; s++ {
			sum[s] += float64(best[i][s])
		}
		if o.kind == kQuery {
			execSelf += float64(best[i][seamEngine] - best[i][seamKG])
			sagaSelf += float64(best[i][seamService] - best[i][seamEngine])
			engineNS += float64(best[i][seamEngine])
			queryRows += float64(rows[i])
			if o.pages > 1 && o.page == 0 {
				first = append(first, float64(best[i][seamEngine])/1e3)
			}
			if o.pages > 1 && o.page == o.pages-1 {
				last = append(last, float64(best[i][seamEngine])/1e3)
			}
		}
		totalRows += rows[i]
		untracedMS = append(untracedMS, ms.loop.latMS[at])
	}
	us := func(ns float64) float64 { return ns / 1e3 / n }
	ls.set("kg.read_us", us(sum[seamKG]), "us")
	ls.set("graphengine.exec_self_us", us(execSelf), "us")
	ls.set("saga.self_us", us(sagaSelf), "us")
	ls.set("server.self_us", us(sum[seamHandler]-sum[seamService]), "us")
	ls.set("http.self_us", us(sum[seamHTTP]-sum[seamHandler]), "us")
	ls.set("http.resp_bytes_per_op", float64(httpBytes)/n, "B")
	ls.set("server.encode_bytes_per_row", float64(handlerBytes)/float64(max(1, totalRows)), "B")
	if engineNS > 0 {
		ls.set("graphengine.rows_per_ms", queryRows/(engineNS/1e6), "1/ms")
	}
	ls.set("graphengine.page_first_us", mean(first), "us")
	ls.set("graphengine.page_last_us", mean(last), "us")
	per := func(ns, k int64) float64 { return float64(ns) / 1e3 / float64(max(1, k)) }
	ls.set("embedserve.related_us", per(relatedNS, relatedN), "us")
	ls.set("vecindex.search_us", per(vecNS, relatedN), "us")
	ls.set("websearch.search_us", per(searchNS, searchN), "us")
	ls.set("annotate.doc_us", per(annNS, annN), "us")
	if u := median(untracedMS); u > 0 {
		// Medians: one GC cycle landing in either pass would swing a mean.
		ls.set("load.trace_overhead_frac", (median(tracedMS)-u)/u, "frac")
	}
	ls.set("graphengine.plan_miss_us", planMissUS(tr, st, pl), "us")
	cfg.logf("# read ladder: %d ops x %d reps; mean us/op by seam: kg %.1f, graphengine %.1f, saga %.1f, server %.1f, http %.1f",
		len(idx), ladderReps, us(sum[seamKG]), us(sum[seamEngine]), us(sum[seamService]), us(sum[seamHandler]), us(sum[seamHTTP]))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// drainStream consumes a query stream the way the handler does: up to
// limit rows, plus the one extra row that proves more remain.
func drainStream(seq func(func(saga.QueryBinding, error) bool), limit int) (last saga.QueryBinding, n int) {
	for b, err := range seq {
		if err != nil || n == limit {
			break
		}
		last = b
		n++
	}
	return last, n
}

// planMissUS prices a plan-cache miss: planning a shape whose variable
// names no query has used, minus planning the same shape again.
func planMissUS(tr *tracer, st *stack, pl *plan) float64 {
	gn := pl.gn
	member, occ := gn.pred("memberOf"), gn.pred("occupation")
	var miss, hit time.Duration
	const n = 64
	for i := 0; i < n; i++ {
		p, o := fmt.Sprintf("tp%d", i), fmt.Sprintf("to%d", i)
		cls := engineClauses([]clause{cl(v(p), member, e(gn.w.Teams[i%len(gn.w.Teams)])), cl(v(p), occ, v(o))})
		miss += tr.timed("graphengine.plan_miss", "graphengine", i, func() { st.p.PlanQuery(cls) }) //nolint:errcheck // valid by construction
		hit += tr.timed("graphengine.plan_hit", "graphengine", i, func() { st.p.PlanQuery(cls) })   //nolint:errcheck // valid by construction
	}
	return float64(miss-hit) / 1e3 / n
}

// kgEnumerate evaluates the conjunction in the order given using only
// kg's visitor calls, counting up to limit+1 rows: the least kg work
// that could answer the query's first page, with no planner, no
// dedup, no binding maps. Candidates are copied out of each visitor
// before descending, so no graph lock is held across levels.
func kgEnumerate(g *kg.Graph, cls []clause, limit int) int {
	type slot struct {
		name string
		val  kg.Value
	}
	var bound []slot
	lookup := func(t term) (kg.Value, bool) {
		if t.v == "" {
			return kg.EntityValue(t.e), true
		}
		for _, s := range bound {
			if s.name == t.v {
				return s.val, true
			}
		}
		return kg.Value{}, false
	}
	rows := 0
	bufs := make([][]kg.Triple, len(cls))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(cls) {
			rows++
			return rows <= limit
		}
		c := cls[i]
		sv, sOK := lookup(c.s)
		ov, oOK := lookup(c.o)
		buf := bufs[i][:0]
		switch {
		case sOK && oOK:
			if sv.IsEntity() && g.HasFact(sv.Entity, c.p, ov) {
				buf = append(buf, kg.Triple{Subject: sv.Entity, Predicate: c.p, Object: ov})
			}
		case sOK:
			if sv.IsEntity() {
				g.FactsFunc(sv.Entity, c.p, func(t kg.Triple) bool { buf = append(buf, t); return true })
			}
		case oOK:
			g.SubjectsWithFunc(c.p, ov, func(s kg.EntityID) bool {
				buf = append(buf, kg.Triple{Subject: s, Predicate: c.p, Object: ov})
				return len(buf) <= limit
			})
		default:
			g.PredicateEntriesFunc(c.p, func(o kg.Value, s kg.EntityID) bool {
				buf = append(buf, kg.Triple{Subject: s, Predicate: c.p, Object: o})
				return len(buf) <= limit
			})
		}
		bufs[i] = buf
		for _, t := range buf {
			mark := len(bound)
			if !sOK {
				bound = append(bound, slot{c.s.v, kg.EntityValue(t.Subject)})
			}
			if !oOK {
				if prev, ok := lookup(c.o); ok {
					if !prev.Equal(t.Object) {
						bound = bound[:mark]
						continue
					}
				} else {
					bound = append(bound, slot{c.o.v, t.Object})
				}
			}
			more := rec(i + 1)
			bound = bound[:mark]
			if !more {
				return false
			}
		}
		return true
	}
	rec(0)
	return rows
}

// liteStack is a fresh durable platform behind a handler and a
// listener, without the embedding, annotation and search services the
// write path never touches.
type liteStack struct {
	p       *saga.Platform
	fs      *countFS
	dir     string
	handler http.Handler
	httpSrv *http.Server
	base    string
}

func freshDurable(cfg *runConfig, st *stack, sync saga.SyncPolicy) (*liteStack, error) {
	l := &liteStack{
		fs:  &countFS{FS: wal.OSFS{}},
		dir: filepath.Join(cfg.outDir, fmt.Sprintf("ladder-%s-%d-%d", st.sp.name, os.Getpid(), time.Now().UnixNano())),
	}
	p, _, err := saga.OpenDurablePlatform(l.dir, saga.DurableOptions{Sync: sync, FS: l.fs})
	if err != nil {
		return nil, err
	}
	l.p = p
	if err := saga.ImportGraph(p.Graph(), st.world.Graph); err != nil {
		return nil, err
	}
	if _, err := p.CheckpointDurable(); err != nil {
		return nil, err
	}
	srv, err := server.New(p, nil)
	if err != nil {
		return nil, err
	}
	l.handler = srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.httpSrv = &http.Server{Handler: l.handler, ReadHeaderTimeout: 2 * time.Second}
	go l.httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	l.base = "http://" + ln.Addr().String()
	return l, nil
}

func (l *liteStack) close() {
	l.httpSrv.Close()
	l.p.CloseDurable() //nolint:errcheck // the directory is removed next
	os.RemoveAll(l.dir)
}

// chunkedMean is the mean a stall cannot move: the samples are cut into
// ladderChunks consecutive chunks and the median of the chunk means is
// returned, so a 10 ms scheduler hiccup costs one chunk, not the figure.
// Write seams need it because a batch can be applied only once per
// platform, so there is no fastest-of-three to take.
func chunkedMean(ds []time.Duration) time.Duration {
	const ladderChunks = 20
	if len(ds) == 0 {
		return 0
	}
	size := max(1, len(ds)/ladderChunks)
	var means []float64
	for lo := 0; lo+size <= len(ds); lo += size {
		var sum time.Duration
		for _, d := range ds[lo : lo+size] {
			sum += d
		}
		means = append(means, float64(sum)/float64(size))
	}
	return time.Duration(median(means))
}

func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// writeLadder replays the batch prefix at each write seam, each on its
// own fresh platform that first applied the warm-up batches. Every
// figure is a chunkedMean over the prefix's batches.
func writeLadder(cfg *runConfig, tr *tracer, ls layerSet, st *stack, warm, prefix []op) error {
	nb := len(prefix)
	var asserts, retracts float64
	for i := range prefix {
		asserts += float64(len(prefix[i].batch.asserts))
		retracts += float64(len(prefix[i].batch.retracts))
	}
	perBatch := func() []time.Duration { return make([]time.Duration, 0, nb) }
	applyAll := func(g *kg.Graph, ops []op) error {
		for i := range ops {
			if err := applyBatch(g, ops[i].batch); err != nil {
				return err
			}
		}
		return nil
	}

	// Seam 1: the graph alone, in memory.
	runtime.GC()
	h0 := takeProcSnap().heapBytes
	g := saga.NewGraph()
	if err := saga.ImportGraph(g, st.world.Graph); err != nil {
		return err
	}
	runtime.GC()
	ls.set("kg.heap_bytes_per_triple", float64(takeProcSnap().heapBytes-h0)/float64(max(1, g.NumTriples())), "B")
	if err := applyAll(g, warm); err != nil {
		return err
	}
	assertD, retractD, syncD := perBatch(), perBatch(), perBatch()
	cpu0 := processCPU()
	for i := range prefix {
		b := prefix[i].batch
		assertD = append(assertD, tr.timed("kg.assert", "wal", i, func() {
			for _, f := range b.asserts {
				g.AssertNew(tripleOf(f)) //nolint:errcheck // the same batches pass applyBatch at the seams above
			}
		}))
		retractD = append(retractD, tr.timed("kg.retract", "wal", i, func() {
			for _, f := range b.retracts {
				g.Retract(tripleOf(f))
			}
		}))
		syncD = append(syncD, tr.timed("kg.pom_sync", "wal", i, func() { g.SyncIndexes() }))
	}
	graphCPU := processCPU() - cpu0
	graphUS := usOf(chunkedMean(assertD) + chunkedMean(retractD))
	ls.set("kg.assert_us_per_triple", usOf(chunkedMean(assertD))*float64(nb)/math.Max(1, asserts), "us")
	ls.set("kg.retract_us_per_triple", usOf(chunkedMean(retractD))*float64(nb)/math.Max(1, retracts), "us")
	ls.set("kg.pom_sync_us", usOf(chunkedMean(syncD)), "us")

	// Seams 2 and 3: the same batches committed to the log, without and
	// with an fsync per commit.
	var commitUS [2]float64
	var fsyncUS float64
	for k, policy := range []saga.SyncPolicy{saga.SyncNever, saga.SyncEachCommit} {
		l, err := freshDurable(cfg, st, policy)
		if err != nil {
			return err
		}
		if err := applyAll(l.p.Graph(), warm); err != nil {
			l.close()
			return err
		}
		mgr := l.p.Durability()
		mgr.Commit() //nolint:errcheck // a failed commit latches and fails the timed ones below
		commitD, fsyncD := perBatch(), perBatch()
		name := []string{"wal.commit.never", "wal.commit.sync"}[k]
		for i := range prefix {
			if err := applyBatch(l.p.Graph(), prefix[i].batch); err != nil {
				l.close()
				return err
			}
			var cerr error
			sync0 := l.fs.syncNS.Load()
			commitD = append(commitD, tr.timed(name, "server", i, func() { _, cerr = mgr.Commit() }))
			fsyncD = append(fsyncD, time.Duration(l.fs.syncNS.Load()-sync0))
			if cerr != nil {
				l.close()
				return fmt.Errorf("%s: %w", name, cerr)
			}
		}
		commitUS[k] = usOf(chunkedMean(commitD))
		if policy == saga.SyncEachCommit {
			fsyncUS = usOf(chunkedMean(fsyncD))
		}
		l.close()
	}
	ls.set("wal.append_us_per_batch", commitUS[0], "us")
	ls.set("wal.fsync_us_per_batch", fsyncUS, "us")

	// Seams 4 and 5: the handler in-process, then over loopback.
	var seamUS [2]float64
	var respBytes float64
	for k, name := range []string{"server", "http"} {
		l, err := freshDurable(cfg, st, saga.SyncEachCommit)
		if err != nil {
			return err
		}
		c := newClient(l.base)
		seamD := perBatch()
		for li, list := range [][]op{warm, prefix} {
			for i := range list {
				o := &list[i]
				var d time.Duration
				if k == 0 {
					req, _ := c.request(o)
					rec := httptest.NewRecorder()
					d = tr.timed(name, "http", i, func() { l.handler.ServeHTTP(rec, req) })
					if rec.Code != http.StatusOK {
						c.close()
						l.close()
						return fmt.Errorf("ladder handler: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
					}
				} else {
					out := c.do(o, time.Time{})
					if out.err != nil {
						c.close()
						l.close()
						return fmt.Errorf("ladder loopback: %w", out.err)
					}
					d = out.lat
					if li == 1 {
						tr.add(name, "", i, d)
						respBytes += float64(out.bytes)
					}
				}
				if li == 1 {
					seamD = append(seamD, d)
				}
			}
		}
		seamUS[k] = usOf(chunkedMean(seamD))
		c.close()
		l.close()
	}
	if st.sp.name == "ingest-durable" {
		// The workload's ops are the writes, so its serving-tier self
		// times come from this ladder; mixed-live's come from its reads.
		ls.set("server.self_us", seamUS[0]-graphUS-commitUS[1], "us")
		ls.set("http.self_us", seamUS[1]-seamUS[0], "us")
		ls.set("http.resp_bytes_per_op", respBytes/float64(nb), "B")
	}
	cfg.logf("# write ladder: %d batches; us/batch by seam: kg %.1f (+pom sync %.1f), +commit(SyncNever) %.1f, +commit(SyncEachCommit) %.1f (fsync %.1f), server %.1f, http %.1f",
		nb, graphUS, usOf(chunkedMean(syncD)), commitUS[0], commitUS[1], fsyncUS, seamUS[0], seamUS[1])

	if st.sp.live {
		return liveLadder(cfg, tr, ls, st, warm, prefix, graphCPU)
	}
	return nil
}

// liveLadder prices what a write costs beyond the graph on mixed-live:
// the subscription hub's delta-join fan-out (process CPU over the
// prefix with the standing queries registered, minus the same prefix
// on the bare graph — the hub works on its own goroutine, so there is
// no call to time) and rule maintenance (Rules().Sync after each batch).
func liveLadder(cfg *runConfig, tr *tracer, ls layerSet, st *stack, warm, prefix []op, graphCPU time.Duration) error {
	nb := float64(len(prefix))
	fresh := func() (*saga.Platform, error) {
		g := saga.NewGraph()
		if err := saga.ImportGraph(g, st.world.Graph); err != nil {
			return nil, err
		}
		for i := range warm {
			if err := applyBatch(g, warm[i].batch); err != nil {
				return nil, err
			}
		}
		return saga.New(g), nil
	}

	p, err := fresh()
	if err != nil {
		return err
	}
	var subs []*saga.Subscription
	for _, cls := range st.subCls {
		sub, err := p.Subscribe(engineClauses(cls), saga.SubscribeOptions{})
		if err != nil {
			return err
		}
		subs = append(subs, sub)
	}
	drain := func() {
		for _, sub := range subs {
			for more := true; more; {
				select {
				case <-sub.C:
				default:
					more = false
				}
			}
		}
	}
	drain()
	cpu0 := processCPU()
	for i := range prefix {
		b := prefix[i].batch
		tr.timed("kg.apply+subscribe", "server", i, func() {
			applyBatch(p.Graph(), b) //nolint:errcheck // the same batches passed at the seams above
		})
		drain()
	}
	time.Sleep(40 * time.Millisecond) // two poll ticks and a coalescing window: the hub finishes its last batch
	drain()
	subCPU := processCPU() - cpu0
	for _, sub := range subs {
		sub.Close()
	}
	ls.set("subscribe.fanout_us_per_write", usOf(subCPU-graphCPU)/nb, "us")

	p, err = fresh()
	if err != nil {
		return err
	}
	if err := p.DefineRulesText(liveRules); err != nil {
		return err
	}
	defer p.Rules().Close()
	maintD := make([]time.Duration, 0, len(prefix))
	for i := range prefix {
		if err := applyBatch(p.Graph(), prefix[i].batch); err != nil {
			return err
		}
		maintD = append(maintD, tr.timed("rules.sync", "server", i, func() { p.Rules().Sync() }))
	}
	ls.set("rules.maint_us_per_batch", usOf(chunkedMean(maintD)), "us")
	cfg.logf("# live ladder: subscription fan-out %.1f us/write (process CPU), rule maintenance %.1f us/batch",
		usOf(subCPU-graphCPU)/nb, usOf(chunkedMean(maintD)))
	return nil
}
