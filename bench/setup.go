package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"saga/internal/kg"
	"saga/internal/server"
	"saga/internal/wal"
	"saga/saga"
)

// sizes fixes how much work a run does. The full sizes are the
// benchmark; the smoke sizes exist so bench/smoke_test.go can run every
// code path in seconds.
type sizes struct {
	people, clusters, docs int
	epochs                 int
	warmSeconds            float64 // nominal seconds of whole cycles replayed before measuring, per build
	windowSeconds          float64 // nominal seconds of whole cycles between two speed probes
	minWindows             int     // at least this many windows, however few seconds are asked for
	pageSize, joinLimit    int     // scan-paginate
	walkRows               int     // target posting size of the cursor walk
	ingestBatch            int     // triples per /ingest in ingest-durable
	mixedBatch             int     // triples per /ingest in mixed-live
	retractLag             int     // batches between an assert and its retract
	ckptEvery              uint64
	housekeepEvery         int // ingest-durable: ops between housekeeping Commit calls
	mixedCheckpoints       int // mixed-live: checkpoints at fixed reader positions
	mixedRate              int // mixed-live: writer batches per second
	subs                   int
	samplesPerShape        int     // oracle-checked ops per shape
	ladderSeconds          float64 // nominal seconds of cycles replayed at each read seam in a traced run
	ladderBatches          int     // write batches replayed at each write seam
	builds                 int     // cold builds per run; setup_s is their median
	// cyclesPerSecond is the nominal rate of this box per workload: a run
	// asked to measure for s seconds executes round(s*rate) cycles, so
	// the work is fixed by the arguments, not by how fast the box is today.
	cyclesPerSecond map[string]float64
}

func fullSizes() sizes {
	return sizes{
		people: 20000, clusters: 400, docs: 2000, epochs: 5,
		warmSeconds: 0.5, windowSeconds: 0.035, minWindows: 20,
		pageSize: 250, joinLimit: 500, walkRows: 5000,
		ingestBatch: 32, mixedBatch: 16, retractLag: 64,
		ckptEvery: 150000, housekeepEvery: 128, mixedCheckpoints: 1, mixedRate: mixedWriteRate,
		subs: 64, samplesPerShape: 200, ladderSeconds: 0.8, ladderBatches: 1500,
		builds: 3,
		cyclesPerSecond: map[string]float64{
			"serve-read-mix": 180, "scan-paginate": 14, "ingest-durable": 750, "mixed-live": 105,
		},
	}
}

func smokeSizes() sizes {
	return sizes{
		people: 300, clusters: 6, docs: 60, epochs: 1,
		warmSeconds: 0.2, windowSeconds: 0.1, minWindows: 4,
		pageSize: 25, joinLimit: 100, walkRows: 120,
		ingestBatch: 8, mixedBatch: 4, retractLag: 4,
		ckptEvery: 1500, housekeepEvery: 16, mixedCheckpoints: 1, mixedRate: 500,
		subs: 8, samplesPerShape: 20, ladderSeconds: 0.4, ladderBatches: 24,
		builds: 1,
		cyclesPerSecond: map[string]float64{
			"serve-read-mix": 10, "scan-paginate": 8, "ingest-durable": 100, "mixed-live": 40,
		},
	}
}

// spec is what distinguishes the four workloads' stacks.
type spec struct {
	name    string
	durable bool
	live    bool // rules + standing subscriptions (mixed-live)
	shapes  []string
}

var specs = map[string]spec{
	"serve-read-mix": {name: "serve-read-mix", shapes: serveShapes},
	"scan-paginate":  {name: "scan-paginate", shapes: scanShapes},
	"ingest-durable": {name: "ingest-durable", durable: true, shapes: ingestShapes},
	"mixed-live":     {name: "mixed-live", durable: true, live: true, shapes: serveShapes},
}

var workloadNames = []string{"serve-read-mix", "scan-paginate", "ingest-durable", "mixed-live"}

// liveRules is mixed-live's three-rule recursive program: a link is a
// collaboration that reaches someone who has a spouse on record, and a
// circle is the transitive closure of link. The writer asserts and
// retracts collaborator facts, a fifth of which are links, so rule
// maintenance runs on every batch and derives on most. (Links are
// sparse on purpose — under one per person — so the closure stays in
// the tens of thousands of facts and the initial derivation well under
// a second; a denser link relation percolates and derives for seconds.)
const liveRules = `
link(X, Y) :- collaborator(X, Y), spouse(Y, S).
circle(X, Y) :- link(X, Y).
circle(X, Z) :- circle(X, Y), link(Y, Z).
`

// stack is one cold-built serving stack behind a loopback listener.
type stack struct {
	sp      spec
	world   *saga.World
	p       *saga.Platform
	corpus  []*saga.Document
	index   *saga.SearchIndex
	srv     *server.Server
	handler http.Handler
	httpSrv *http.Server
	base    string
	fs      *countFS
	dir     string
	subs    []*saga.Subscription
	subCls  [][]clause
	stage   map[string]float64 // seconds per set-up stage
	buildS  float64
}

// buildStack cold-builds the stack: world, platform (import and seed
// checkpoint when durable), embeddings, annotator, corpus and search
// index, rules and subscriptions when live, server and listener.
func buildStack(sz sizes, sp spec, seed int64, outDir string) (*stack, error) {
	st := &stack{sp: sp, stage: make(map[string]float64)}
	t0 := time.Now()
	lap := func(name string, since time.Time) time.Time {
		now := time.Now()
		st.stage[name] += now.Sub(since).Seconds()
		return now
	}
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: sz.people, NumClusters: sz.clusters, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	st.world = w
	t := lap("gen_s", t0)

	if sp.durable {
		st.dir = filepath.Join(outDir, fmt.Sprintf("data-%s-%d-%d", sp.name, os.Getpid(), time.Now().UnixNano()))
		st.fs = &countFS{FS: wal.OSFS{}}
		p, _, err := saga.OpenDurablePlatform(st.dir, st.durableOptions(sz, saga.SyncEachCommit))
		if err != nil {
			return nil, fmt.Errorf("open data dir: %w", err)
		}
		st.p = p
		if err := saga.ImportGraph(p.Graph(), w.Graph); err != nil {
			return nil, fmt.Errorf("import world: %w", err)
		}
		t = lap("import_s", t)
		if _, err := p.CheckpointDurable(); err != nil {
			return nil, fmt.Errorf("seed checkpoint: %w", err)
		}
		t = lap("checkpoint_s", t)
	} else {
		st.p = saga.New(w.Graph)
	}

	// One trainer worker: Hogwild with two workers is not reproducible,
	// and /related responses (and so byte counts) must repeat exactly.
	if err := st.p.TrainEmbeddings(saga.EmbeddingOptions{
		Train: saga.TrainConfig{Model: saga.DistMult, Dim: 32, Epochs: sz.epochs, Seed: seed, Workers: 1},
	}); err != nil {
		return nil, fmt.Errorf("train embeddings: %w", err)
	}
	t = lap("train_s", t)

	if err := st.p.BuildAnnotator(saga.AnnotateConfig{Mode: saga.ModeContextual, Seed: seed}); err != nil {
		return nil, fmt.Errorf("build annotator: %w", err)
	}
	st.corpus = saga.GenerateCorpus(w, saga.CorpusConfig{NumDocs: sz.docs, Seed: seed})
	st.index = saga.NewSearchIndex(st.corpus)
	t = lap("index_s", t)

	if sp.live {
		if err := st.p.DefineRulesText(liveRules); err != nil {
			return nil, fmt.Errorf("install rules: %w", err)
		}
		t = lap("rules_s", t)
		if err := st.subscribe(sz.subs); err != nil {
			return nil, err
		}
		lap("subscribe_s", t)
	}

	st.srv, err = server.New(st.p, st.index)
	if err != nil {
		return nil, err
	}
	st.handler = st.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.httpSrv = &http.Server{Handler: st.handler, ReadHeaderTimeout: 2 * time.Second}
	go st.httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	st.base = "http://" + ln.Addr().String()
	st.buildS = time.Since(t0).Seconds()
	return st, nil
}

func (st *stack) durableOptions(sz sizes, sync saga.SyncPolicy) saga.DurableOptions {
	opts := saga.DurableOptions{Sync: sync, FS: st.fs}
	if !st.sp.live {
		// mixed-live checkpoints at fixed reader positions instead, so the
		// number of checkpoints does not depend on how long the run took.
		opts.CheckpointEvery = sz.ckptEvery
	}
	return opts
}

// subscribe registers n standing queries through Platform.Subscribe and
// drains each one's snapshot event: half watch one popular person's
// collaborators, a quarter an award's holders, a quarter a person's
// collaborators joined to their teams.
func (st *stack) subscribe(n int) error {
	w := st.world
	collab, award, member := w.Preds["collaborator"], w.Preds["award"], w.Preds["memberOf"]
	for i := 0; i < n; i++ {
		var cls []clause
		switch {
		case i%4 < 2:
			cls = []clause{cl(e(w.People[i]), collab, v("c"))}
		case i%4 == 2:
			cls = []clause{cl(v("p"), award, e(w.Awards[i%len(w.Awards)]))}
		default:
			cls = []clause{cl(e(w.People[i]), collab, v("c")), cl(v("c"), member, v("t"))}
		}
		sub, err := st.p.Subscribe(engineClauses(cls), saga.SubscribeOptions{})
		if err != nil {
			return fmt.Errorf("subscribe %d: %w", i, err)
		}
		st.subs = append(st.subs, sub)
		st.subCls = append(st.subCls, cls)
	}
	return nil
}

func engineClauses(cls []clause) []saga.QueryClause {
	out := make([]saga.QueryClause, len(cls))
	for i, c := range cls {
		out[i] = saga.QueryClause{Subject: engineTerm(c.s), Predicate: c.p, Object: engineTerm(c.o)}
	}
	return out
}

func engineTerm(t term) saga.QueryTerm {
	if t.v != "" {
		return saga.QVar(t.v)
	}
	return saga.QEntity(t.e)
}

// close stops the listener and everything the stack started, closes
// the WAL and removes the data directory. shutdown alone leaves the WAL
// manager and the directory as a crash would (ingest-durable's check).
func (st *stack) close() {
	st.shutdown()
	if st.p.Durability() != nil {
		st.p.CloseDurable() //nolint:errcheck // the directory is removed next
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

func (st *stack) shutdown() {
	st.httpSrv.Close()
	for _, s := range st.subs {
		s.Close()
	}
	if r := st.p.Rules(); r != nil {
		r.Close()
	}
}

// countFS wraps a wal.FS and counts what reaches the device: write
// calls and bytes to log segments, bytes to checkpoint files, file
// fsyncs, and the time spent waiting in them (two clock reads per
// fsync). The byte counts feed bytes_per_row; the fsync wait is what the
// end-to-end timings leave out, because it is this sandbox's disk and
// not the repository's code.
type countFS struct {
	wal.FS

	segWrites, segBytes, ckptBytes, syncs, syncNS atomic.Int64
}

type fsCounts struct {
	segWrites, segBytes, ckptBytes, syncs, syncNS int64
}

func (c *countFS) snapshot() fsCounts {
	if c == nil {
		return fsCounts{}
	}
	return fsCounts{
		segWrites: c.segWrites.Load(), segBytes: c.segBytes.Load(), ckptBytes: c.ckptBytes.Load(),
		syncs: c.syncs.Load(), syncNS: c.syncNS.Load(),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		segWrites: a.segWrites - b.segWrites, segBytes: a.segBytes - b.segBytes, ckptBytes: a.ckptBytes - b.ckptBytes,
		syncs: a.syncs - b.syncs, syncNS: a.syncNS - b.syncNS,
	}
}

type countFile struct {
	wal.File
	fs   *countFS
	ckpt bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.ckpt {
		f.fs.ckptBytes.Add(int64(n))
	} else {
		f.fs.segWrites.Add(1)
		f.fs.segBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNS.Add(int64(time.Since(t0)))
	return err
}

func (c *countFS) wrap(name string, f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, ckpt: strings.Contains(filepath.Base(name), "checkpoint-")}, nil
}

func (c *countFS) Create(name string) (wal.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(name, f, err)
}

func (c *countFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.FS.OpenAppend(name)
	return c.wrap(name, f, err)
}

// applyBatch applies one write batch straight to a graph, the way
// handleIngest does (AssertNew per triple, then Retract per triple).
func applyBatch(g *kg.Graph, b *writeBatch) error {
	for _, f := range b.asserts {
		ok, err := g.AssertNew(tripleOf(f))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("assert of %v was a duplicate", f)
		}
	}
	for _, f := range b.retracts {
		if !g.Retract(tripleOf(f)) {
			return fmt.Errorf("retract of %v found nothing", f)
		}
	}
	return nil
}

func tripleOf(f fact) kg.Triple {
	obj := kg.EntityValue(f.o.ent)
	if f.o.ent == 0 {
		s, err := strconv.Unquote(f.o.lit)
		if err != nil {
			panic("bench: literal fact is not a quoted string: " + f.o.lit)
		}
		obj = kg.StringValue(s)
	}
	return kg.Triple{Subject: f.s, Predicate: f.p, Object: obj}
}
