package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"saga/saga"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string
	log      io.Writer // progress and the human-readable report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxProcs is the number of cores the benchmark may use: this box has
// two, and the harness pins GOMAXPROCS to it so client goroutines (at
// most two) and the server share exactly what a later run will have.
const maxProcs = 2

// mixedWriteRate is mixed-live's offered write load in batches per
// second. It is a constant of the benchmark, never calibrated per run.
// ISSUE 14 proposed 200/s and told the builder to lower it until the
// writer's p95 lateness stays under 5 ms. Beside a reader that keeps both
// cores busy, one write in ten takes 20–60 ms instead of 2–3 (its 32
// shard-lock acquisitions queue behind readers, the subscription hub and
// rule maintenance), so at 200/s and at 100/s the writer ran past half
// its capacity and p95 lateness read 20–660 ms; at 50/s it read 4–9 ms.
// At 40/s the 25 ms between sends absorbs a slow write.
const mixedWriteRate = 40

// deadlineFactor bounds a run on a box that has become slow: once the
// measured phase has taken this many times the asked-for seconds it
// stops at the next window boundary and says so.
const deadlineFactor = 2

// plan is the seeded input of one run: op lists and the oracle.
type plan struct {
	gn           *gen
	m            *model
	warm, main   []op
	writes       []op // mixed-live's writer batches; the first warmWrites warm up
	warmWrites   int
	cycleLen     int // ops per cycle
	opsPerWindow int // a whole number of cycles
	windows      int
}

func (cfg *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(cfg.log, format+"\n", args...)
}

// makePlan generates the run's inputs from the seed. The world a seed
// generates is the same on every build, so one plan serves all of a
// run's cold builds.
func makePlan(cfg *runConfig, st *stack) *plan {
	sz, sp := cfg.sz, st.sp
	m := newModel(st.p.Graph())
	gn := newGen(st.world, m, st.corpus, cfg.seed*7919+int64(len(sp.name)))
	pl := &plan{gn: gn, m: m}

	// Fixed work: the arguments, not the box's speed today, decide how
	// many cycles run — seconds × the workload's nominal rate, rounded to
	// whole windows.
	rate := sz.cyclesPerSecond[sp.name]
	perWindow := max(1, int(math.Round(sz.windowSeconds*rate)))
	pl.windows = max(sz.minWindows, int(math.Round(cfg.seconds*rate/float64(perWindow))))
	cycles := pl.windows * perWindow
	warm := max(1, int(math.Round(sz.warmSeconds*rate)))

	switch sp.name {
	case "serve-read-mix", "mixed-live":
		pl.warm, pl.main = gn.serveOps(warm, sp.live), gn.serveOps(cycles, sp.live)
		if sp.live {
			wg := newWriteGen(gn, m, sz.mixedBatch, sz.retractLag)
			pl.warmWrites = max(2, int(sz.warmSeconds*float64(sz.mixedRate)/4))
			n := pl.warmWrites + int(math.Ceil(cfg.seconds*deadlineFactor*1.5*float64(sz.mixedRate))) + 16
			pl.writes = gn.ingestOps(wg, n)
		}
	case "scan-paginate":
		occ, rows := walkPosting(st.world, m, sz.walkRows)
		pl.warm = gn.scanOps(warm, occ, rows, sz.pageSize, sz.joinLimit)
		pl.main = gn.scanOps(cycles, occ, rows, sz.pageSize, sz.joinLimit)
	case "ingest-durable":
		wg := newWriteGen(gn, m, sz.ingestBatch, sz.retractLag)
		pl.warm, pl.main = gn.ingestOps(wg, warm), gn.ingestOps(wg, cycles)
	}
	pl.cycleLen = len(pl.main) / cycles
	pl.opsPerWindow = perWindow * pl.cycleLen
	return pl
}

// attachExpectations gives every k-th op of each shape the oracle's
// answer, k chosen so at least samplesPerShape ops per shape are
// checked in full. Query answers come from the model's brute-force
// evaluation; /related, /search and /annotate, whose answers depend on
// trained vectors and text indexes rather than on facts, are checked
// against the same call made in-process.
func attachExpectations(cfg *runConfig, st *stack, pl *plan) (checked int) {
	perShape := make(map[uint8]int)
	for i := range pl.main {
		if o := &pl.main[i]; o.page == 0 {
			perShape[o.shape]++
		}
	}
	seen := make(map[uint8]int)
	memo := make(map[string]*expect)
	var walk *expect
	for i := range pl.main {
		o := &pl.main[i]
		if o.loose || o.kind == kIngest {
			continue
		}
		if o.page > 0 { // a sampled walk is checked on every page
			o.exp = walk
			continue
		}
		walk = nil
		k := max(1, perShape[o.shape]/cfg.sz.samplesPerShape)
		seen[o.shape]++
		if (seen[o.shape]-1)%k != 0 {
			continue
		}
		key := o.path + o.body
		exp, ok := memo[key]
		if !ok {
			exp = expectationFor(st, pl.m, o)
			memo[key] = exp
		}
		o.exp = exp
		if o.pages > 1 {
			walk = exp
		}
		checked++
	}
	return checked
}

func expectationFor(st *stack, m *model, o *op) *expect {
	switch o.kind {
	case kQuery:
		return &expect{rows: m.answers(o.cls)}
	case kEntity:
		return &expect{strs: m.entityFacts(o.ent)}
	case kRelated:
		rel, err := st.p.RelatedEntities(o.ent, 10)
		if err != nil {
			panic(fmt.Sprintf("bench: in-process related(%v): %v", o.ent, err))
		}
		strs := make([]string, 0, len(rel))
		for _, r := range rel {
			strs = append(strs, m.keys[r.ID])
		}
		sort.Strings(strs)
		return &expect{strs: strs}
	case kSearch:
		hits := st.index.Search(o.text, 10)
		strs := make([]string, 0, len(hits))
		for _, h := range hits {
			strs = append(strs, h.Doc.ID)
		}
		sort.Strings(strs)
		return &expect{strs: strs}
	case kAnnotate:
		anns, err := st.p.Annotate(o.text)
		if err != nil {
			panic(fmt.Sprintf("bench: in-process annotate: %v", err))
		}
		strs := make([]string, 0, len(anns))
		for _, a := range anns {
			strs = append(strs, fmt.Sprintf("%v:%v:%v", a.Start, a.End, m.keys[a.Entity]))
		}
		sort.Strings(strs)
		return &expect{strs: strs}
	}
	return nil
}

// warmUp replays the plan's warm-up cycles (and, on mixed-live, the
// writer's first batches) on a fresh client, filling the plan cache,
// the related-entity cache, the connection and the heap. Any failure
// is fatal: a stack that cannot warm up cannot be measured.
func warmUp(st *stack, pl *plan) (time.Duration, uint64, error) {
	c := newClient(st.base)
	defer c.close()
	t0 := time.Now()
	for _, list := range [][]op{pl.warm, pl.writes[:pl.warmWrites]} {
		for i := range list {
			if out := c.do(&list[i], time.Time{}); out.err != nil {
				return 0, 0, fmt.Errorf("warm-up op %d (%s): %w", i, list[i].path, out.err)
			}
		}
	}
	return time.Since(t0), c.lastWM, nil
}

// measured is everything one workload's measured phase produced.
type measured struct {
	loop                 loopResult
	pre, post            procSnap
	fs                   fsCounts
	triples              int64 // triples applied through /ingest
	checkpoints          int
	checkpointS          float64
	recoverS             float64
	writer               *writerResult
	planHits, planMisses int64
	shed                 int64
	queueWaitMS          float64
	admitted             int64
	rules0, rules1       saga.RuleEngineStats
	evictions            int64
	setupS               float64
	settledRSS           float64
}

// runWorkload is the whole benchmark for one workload: cold builds,
// warm-up, the measured phase, the workload's end-state checks, and
// the metrics.
func runWorkload(cfg *runConfig) (result, error) {
	sp, ok := specs[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	runtime.GOMAXPROCS(maxProcs)
	builds := cfg.sz.builds
	if cfg.trace {
		builds = 1 // a traced run reports no setup_s; one build is enough
	}
	pr, err := newProbe()
	if err != nil {
		return result{}, err
	}
	defer pr.close()

	var st *stack
	var pl *plan
	var setups []float64
	var lastWM uint64
	for b := 0; b < builds; b++ {
		if st != nil {
			st.close()
			st = nil
			debug.FreeOSMemory()
			resetPeakRSS()
		}
		var err error
		if st, err = buildStack(cfg.sz, sp, cfg.seed, cfg.outDir); err != nil {
			return result{}, err
		}
		if pl == nil {
			pl = makePlan(cfg, st)
		}
		warmD, wm, err := warmUp(st, pl)
		if err != nil {
			st.close()
			return result{}, err
		}
		lastWM = wm
		setups = append(setups, st.buildS+warmD.Seconds())
		cfg.logf("# build %d: stack %.3fs + warm-up %.3fs (%d ops)", b+1, st.buildS, warmD.Seconds(), len(pl.warm)+pl.warmWrites)
	}
	defer func() { st.close() }()
	checked := attachExpectations(cfg, st, pl)
	cfg.logf("# %s seed=%d GOMAXPROCS=%d shards=%d: %d triples, %d entities; %d ops in %d windows of %d (cycle of %d), %d oracle-checked",
		sp.name, cfg.seed, runtime.GOMAXPROCS(0), st.p.Graph().NumShards(), st.p.Graph().NumTriples(), st.p.Graph().NumEntities(),
		len(pl.main), pl.windows, pl.opsPerWindow, pl.cycleLen, checked)

	runtime.GC()
	ms, err := measure(cfg, st, pl, pr, lastWM)
	if err != nil {
		return result{}, err
	}
	ms.setupS = median(setups)
	res := result{Attempted: ms.loop.attempted, Failed: ms.loop.failed, Metrics: make(map[string]metric)}
	if ms.writer != nil {
		res.Attempted += ms.writer.attempted
		res.Failed += ms.writer.failed
	}
	if ms.loop.firstErr != nil {
		cfg.logf("! first failure: %v", ms.loop.firstErr)
	}
	if ms.loop.truncated {
		cfg.logf("! the box is slow: stopped after %d of %d ops at %dx the asked-for time", ms.loop.attempted, len(pl.main), deadlineFactor)
	}
	endErr := endChecks(cfg, st, pl, &ms)
	if endErr != nil {
		cfg.logf("! end-state check failed: %v", endErr)
	}
	res.Correct = res.Failed == 0 && endErr == nil

	// What the process settles to once the run's garbage is gone: the
	// peak (proc.rss_peak_mb) depends on when the collector happened to
	// run; this does not.
	debug.FreeOSMemory()
	ms.settledRSS = currentRSSMiB()

	if cfg.trace {
		layers, err := traceLayers(cfg, st, pl, &ms)
		if err != nil {
			return result{}, err
		}
		res.Metrics = layers
	} else {
		res.Metrics = endToEnd(&ms)
	}
	report(cfg, sp, &ms, res)
	return res, nil
}

// measure runs the workload's measured phase between two snapshots of
// every counter the metrics are built from.
func measure(cfg *runConfig, st *stack, pl *plan, pr *probe, lastWM uint64) (measured, error) {
	var ms measured
	c := newClient(st.base)
	defer c.close()
	c.lastWM = lastWM
	lo := loopOpts{
		opsPerWindow: pl.opsPerWindow,
		probe:        pr,
		deadline:     time.Duration(cfg.seconds * deadlineFactor * float64(time.Second)),
	}
	fs0 := st.fs.snapshot()
	plan0 := st.p.QueryPlanCacheStats()
	adm0 := st.srv.Admission.Stats()
	ms.rules0 = st.p.RuleStats()

	var wr *writer
	switch st.sp.name {
	case "ingest-durable":
		mgr := st.p.Durability()
		lo.deviceWait = func() time.Duration { return time.Duration(st.fs.syncNS.Load()) }
		lo.housekeepEvery = cfg.sz.housekeepEvery
		lo.housekeep = func() {
			// kgserve's /ingest path calls Sync, which never checkpoints; a
			// count-triggered checkpoint needs someone to call Commit. The
			// client plays that housekeeping role at fixed op positions.
			before, t0 := mgr.CheckpointLSN(), time.Now()
			if _, err := mgr.Commit(); err != nil {
				panic(fmt.Sprintf("bench: housekeeping commit: %v", err))
			}
			if mgr.CheckpointLSN() != before {
				ms.checkpoints++
				ms.checkpointS += time.Since(t0).Seconds()
			}
		}
	case "mixed-live":
		wr = newWriter(cfg, st, pl, lastWM)
		every := max(1, pl.windows/(cfg.sz.mixedCheckpoints+1))
		lo.atWindow = func(w int) {
			if w > 0 && w%every == 0 && w/every <= cfg.sz.mixedCheckpoints {
				wr.checkpoint.Store(true)
			}
		}
		wr.start()
	}

	ms.pre = takeProcSnap()
	loop, err := closedLoop(c, pl.main, lo)
	ms.loop = loop
	if wr != nil {
		ms.writer = wr.stop()
		ms.checkpoints, ms.checkpointS = ms.writer.checkpoints, ms.writer.checkpointS
		ms.triples = ms.writer.triples
	}
	if err != nil {
		return ms, err
	}
	ms.post = takeProcSnap()

	ms.fs = st.fs.snapshot().sub(fs0)
	plan1 := st.p.QueryPlanCacheStats()
	ms.planHits, ms.planMisses = plan1.Hits-plan0.Hits, plan1.Misses-plan0.Misses
	adm1 := st.srv.Admission.Stats()
	ms.shed = adm1.TotalShed() - adm0.TotalShed()
	for name, cs := range adm1.Classes {
		ms.queueWaitMS += cs.QueueWaitTotalMS - adm0.Classes[name].QueueWaitTotalMS
		ms.admitted += cs.Admitted - adm0.Classes[name].Admitted
	}
	if r := st.p.Rules(); r != nil {
		r.Sync() // count the last batches' maintenance too
	}
	ms.rules1 = st.p.RuleStats()
	ms.evictions = st.p.SubscriptionStats().Evictions
	if st.sp.name == "ingest-durable" {
		ms.triples = ms.loop.rows
	}
	return ms, nil
}

// endToEnd builds the end-to-end metrics. Rates and latencies are
// scaled to the nominal box (probe.go); on mixed-live they are the
// reader's, while bytes and rows count both clients — the writer's up
// to a fixed batch, so the figure does not depend on how long the
// reader took.
func endToEnd(ms *measured) map[string]metric {
	respBytes, rows := ms.loop.respBytes, ms.loop.rows
	device := ms.fs.segBytes + ms.fs.ckptBytes
	if wr := ms.writer; wr != nil {
		respBytes += wr.frozen.respBytes
		rows += wr.frozen.triples
		device = wr.frozen.segBytes + ms.fs.ckptBytes
	}
	return map[string]metric{
		"setup_s":       {ms.setupS, "s"},
		"ops_s":         {median(ms.loop.rates), "1/s"},
		"lat_p50_ms":    {quantile(ms.loop.scaledMS, 0.50), "ms"},
		"bytes_per_row": {float64(respBytes+device) / float64(max(1, rows)), "B"},
		"rss_mb":        {ms.settledRSS, "MiB"},
	}
}

// report prints the human-readable account of the run.
func report(cfg *runConfig, sp spec, ms *measured, res result) {
	cfg.logf("# measured %.2fs (%.2fs of it waiting in fsync): %d ops attempted, %d failed, %d rows, %d response bytes, %d windows; probe median %.3f ms (nominal %.3f)",
		ms.loop.elapsed.Seconds(), ms.loop.deviceS, ms.loop.attempted, ms.loop.failed, ms.loop.rows, ms.loop.respBytes, len(ms.loop.rates),
		median(ms.loop.probesMS), float64(probeNominal)/1e6)
	if total := ms.post.hostTotal - ms.pre.hostTotal; total > 0 {
		cfg.logf("# host steal during the measured phase: %.4f of all CPU time; window-rate IQR/median %.4f scaled, %.4f raw",
			float64(ms.post.hostSteal-ms.pre.hostSteal)/float64(total), iqrFrac(ms.loop.rates), iqrFrac(ms.loop.rawRates))
	}
	// The clock's own readings and the demoted p95, for aa.py to set
	// beside the end-to-end metrics.
	extra, _ := json.Marshal(map[string]float64{
		"raw_ops_s": median(ms.loop.rawRates), "raw_lat_p50_ms": quantile(ms.loop.latMS, 0.5), "raw_lat_p95_ms": quantile(ms.loop.latMS, 0.95),
		"lat_p95_ms": quantile(ms.loop.scaledMS, 0.95), "rss_peak_mb": peakRSSMiB(), "probe_ms": median(ms.loop.probesMS),
	})
	cfg.logf("# extra %s", extra)
	byShape := make(map[uint8][]float64)
	for i, l := range ms.loop.scaledMS {
		byShape[ms.loop.shape[i]] = append(byShape[ms.loop.shape[i]], l)
	}
	for sh, name := range sp.shapes {
		if ls := byShape[uint8(sh)]; len(ls) > 0 {
			cfg.logf("#   %-20s n=%-6d p10=%.3f p50=%.3f p90=%.3f p99=%.3f ms (scaled)", name, len(ls),
				quantile(ls, 0.10), quantile(ls, 0.50), quantile(ls, 0.90), quantile(ls, 0.99))
		}
	}
	if ms.writer != nil {
		cfg.logf("#   writer: %d batches, %d triples, lat p50=%.3f p95=%.3f ms, late p95=%.3f ms; %d checkpoints in %.3fs; rules: %d full runs, %d batches, lag max %d",
			ms.writer.attempted, ms.writer.triples, quantile(ms.writer.latMS, 0.5), quantile(ms.writer.latMS, 0.95), quantile(ms.writer.lateMS, 0.95),
			ms.checkpoints, ms.checkpointS, ms.rules1.FullRuns, ms.rules1.Batches-ms.rules0.Batches, ms.writer.rulesLagMax)
	}
	if sp.durable {
		cfg.logf("#   device: %d log bytes in %d writes, %d checkpoint bytes, %d fsyncs, %d checkpoints (fsync policy: SyncEachCommit)",
			ms.fs.segBytes, ms.fs.segWrites, ms.fs.ckptBytes, ms.fs.syncs, ms.checkpoints)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg.logf("%-34s %14.4f %s", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}
