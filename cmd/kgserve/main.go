// Command kgserve stands up the knowledge-serving HTTP API (Fig 1's
// serving layer) over a synthetic world: it generates a KG, trains
// embeddings, builds the annotation service and a web-search index, and
// serves /health, /entity, /annotate, /rank, /verify, /related, /search,
// the conjunctive-query endpoint POST /query, and the live-subscription
// endpoint POST /subscribe.
//
// /query streams: the body is {"clauses": [...], "limit": N,
// "cursor": "..."} (limit defaults to 1000 and is capped; bodies over
// 1 MiB or 32 clauses are rejected), the solve stops as soon as the page
// is full or the client disconnects, and the response's "next_cursor"
// token fetches the next page:
//
//	curl -s localhost:8080/query -d '{
//	  "clauses": [{"subject": {"var": "p"}, "predicate": "memberOf",
//	               "object": {"key": "team0"}}],
//	  "limit": 10}'
//
// Adding "explain": true to the body returns the execution plan —
// clause order, access paths, cardinality estimates — instead of
// running the query:
//
//	curl -s localhost:8080/query -d '{
//	  "clauses": [...], "explain": true}'
//
// /health reports the plan cache's hit/miss/invalidation/eviction
// counters under "plan_cache" and the changefeed's watermark, in-memory
// log retention (log_entries, log_floor), durable LSN, checkpoint
// retention, and subscriber health under "changefeed".
//
// POST /subscribe streams a standing query's answer set as NDJSON: a
// full snapshot first, then coalesced add/retract deltas as the graph
// mutates (see internal/server's subscribe.go). Subscription streams
// outlive the server's WriteTimeout — the handler sets a per-write
// deadline on each event instead.
//
// -rules FILE installs a Datalog-style rule program (internal/rules) at
// startup; its head predicates answer through /query, /subscribe, and
// cursors exactly like base predicates and stay fresh as the graph
// mutates. The same program can be (re)installed at runtime with
// POST /rules {"text": "..."}; GET /rules returns the installed source
// and maintenance counters, and POST /derive materializes in-graph
// analytics (connected components, sameAs closure, k-hop) as derived
// predicates:
//
//	curl -s localhost:8080/derive -d '{"kind": "components", "out": "component"}'
//
// /health reports the rules engine's fact count and maintenance
// counters under "rules" once a program is installed.
//
// The serving tier is overload-safe: every route passes an admission
// gate (internal/admission) with per-class concurrency limits, bounded
// FIFO wait queues, and per-request deadlines. Reads (/query, /entity,
// /search, ...), writes (/ingest, /derive, POST /rules), and
// subscriptions are limited independently — health and metrics are
// exempt, and writes shed first under pressure so reads keep serving.
// Overflow is shed with 429 + Retry-After; a request whose class budget
// expires mid-solve gets 503 + Retry-After. /health reports per-class
// in-flight, queue depth, admitted and shed counters under "admission".
// The knobs:
//
//	-read-limit N        max in-flight read requests (default 256)
//	-read-queue N        bounded read wait queue (default 512)
//	-read-queue-wait D   max time a read may queue (default 250ms)
//	-read-budget D       read request deadline (default 5s)
//	-write-limit N       max in-flight writes (default 64)
//	-write-queue N       bounded write wait queue (default 128)
//	-write-queue-wait D  max time a write may queue (default 100ms)
//	-write-budget D      write request deadline (default 5s)
//	-max-subscriptions N concurrent /subscribe streams (default 1024);
//	                     excess subscribers get 429 immediately
//
// On SIGINT/SIGTERM the server enters drain: new requests are shed
// with 503 + Retry-After while in-flight ones finish, then the listener
// closes. cmd/kgload drives this tier with an open-loop
// constant-arrival-rate workload and misbehaving-client fault modes.
//
// With -data-dir the graph is durable: a fresh directory is seeded from
// the generated world (a full checkpoint on startup), an existing one is
// recovered — the newest checkpoint's chain (a full checkpoint and the
// deltas after it) plus write-ahead-log replay — and served in place of
// a fresh generation. Durable platforms additionally serve point-in-time
// reads: "as_of": <watermark> in a /query body evaluates against the
// graph as of that mutation watermark, reconstructed from retained
// checkpoints plus the log. SIGINT/SIGTERM drain in-flight requests,
// then checkpoint — a delta of what the session changed, nothing after
// a read-only one — and flush and close the log.
//
// Usage:
//
//	kgserve [-addr :8080] [-people 200] [-clusters 10] [-docs 400] [-seed 1] [-data-dir DIR] [-rules FILE]
//	        [-read-limit 256] [-read-queue 512] [-read-queue-wait 250ms] [-read-budget 5s]
//	        [-write-limit 64] [-write-queue 128] [-write-queue-wait 100ms] [-write-budget 5s] [-max-subscriptions 1024]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"saga/internal/admission"
	"saga/internal/server"
	"saga/saga"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	people := flag.Int("people", 200, "number of person entities")
	clusters := flag.Int("clusters", 10, "number of communities")
	docs := flag.Int("docs", 400, "web corpus size")
	seed := flag.Int64("seed", 1, "generation seed")
	dim := flag.Int("dim", 32, "embedding dimensionality")
	epochs := flag.Int("epochs", 25, "training epochs")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty serves from memory only. World flags (-people, -clusters, -seed) must match across restarts of the same directory")
	rulesFile := flag.String("rules", "", "Datalog-style rule program to install at startup (see internal/rules for the syntax)")
	defRead, defWrite, defSub := admission.DefaultLimits()
	readLimit := flag.Int("read-limit", defRead.MaxInFlight, "max in-flight read requests (0 = unlimited)")
	readQueue := flag.Int("read-queue", defRead.MaxQueue, "bounded read wait queue (0 = shed immediately at capacity)")
	readQueueWait := flag.Duration("read-queue-wait", defRead.QueueWait, "max time a read may wait in queue before 429")
	readBudget := flag.Duration("read-budget", defRead.Budget, "read request deadline; expiry mid-solve answers 503 (0 = none)")
	writeLimit := flag.Int("write-limit", defWrite.MaxInFlight, "max in-flight write requests (0 = unlimited)")
	writeQueue := flag.Int("write-queue", defWrite.MaxQueue, "bounded write wait queue (0 = shed immediately at capacity)")
	writeQueueWait := flag.Duration("write-queue-wait", defWrite.QueueWait, "max time a write may wait in queue before 429")
	writeBudget := flag.Duration("write-budget", defWrite.Budget, "write request deadline (0 = none)")
	maxSubscriptions := flag.Int("max-subscriptions", defSub.MaxInFlight, "concurrent /subscribe streams; excess get 429 (0 = unlimited)")
	flag.Parse()

	log.Printf("generating world: %d people, %d clusters (seed %d)", *people, *clusters, *seed)
	w, err := saga.GenerateWorld(saga.WorldConfig{
		NumPeople: *people, NumClusters: *clusters, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}

	var p *saga.Platform
	if *dataDir != "" {
		var info *saga.RecoveryInfo
		p, info, err = saga.OpenDurablePlatform(*dataDir, saga.DurableOptions{Sync: saga.SyncEachCommit})
		if err != nil {
			log.Fatalf("open data dir %s: %v", *dataDir, err)
		}
		for _, d := range info.Diagnostics {
			log.Printf("recovery: %s", d)
		}
		if info.RecoveredLSN == 0 {
			log.Printf("seeding fresh data dir %s from generated world", *dataDir)
			if err := saga.ImportGraph(p.Graph(), w.Graph); err != nil {
				log.Fatalf("seed data dir: %v", err)
			}
			if _, err := p.CheckpointDurable(); err != nil {
				log.Fatalf("checkpoint seed: %v", err)
			}
		} else {
			log.Printf("recovered %s: LSN %d, %d mutations replayed past checkpoint %d",
				*dataDir, info.RecoveredLSN, info.MutationsReplayed, info.CheckpointLSN)
			if got, want := p.Graph().NumEntities(), w.Graph.NumEntities(); got < want {
				log.Printf("warning: recovered graph has %d entities, generated world %d — were the world flags changed?", got, want)
			}
		}
	} else {
		p = saga.New(w.Graph)
	}

	log.Printf("training %s embeddings (dim %d, %d epochs)", saga.DistMult, *dim, *epochs)
	if err := p.TrainEmbeddings(saga.EmbeddingOptions{
		Train: saga.TrainConfig{Model: saga.DistMult, Dim: *dim, Epochs: *epochs, Seed: *seed},
	}); err != nil {
		log.Fatalf("train embeddings: %v", err)
	}

	// Calibrate the verifier on observed facts vs corrupted ones. The
	// serving graph's IDs agree with the generated world's because the
	// generator is deterministic and recovery reproduces IDs exactly.
	g := p.Graph()
	occ := w.Preds["occupation"]
	var pos, neg [][3]uint32
	for _, person := range w.People {
		g.FactsFunc(person, occ, func(f saga.Triple) bool {
			pos = append(pos, [3]uint32{uint32(person), uint32(occ), uint32(f.Object.Entity)})
			return true
		})
		other := w.People[(int(person)+7)%len(w.People)]
		neg = append(neg, [3]uint32{uint32(person), uint32(occ), uint32(other)})
	}
	if err := p.CalibrateVerifier(pos, neg); err != nil {
		log.Fatalf("calibrate verifier: %v", err)
	}

	if err := p.BuildAnnotator(saga.AnnotateConfig{Mode: saga.ModeContextual, Seed: *seed}); err != nil {
		log.Fatalf("build annotator: %v", err)
	}

	if *rulesFile != "" {
		text, err := os.ReadFile(*rulesFile)
		if err != nil {
			log.Fatalf("read rules %s: %v", *rulesFile, err)
		}
		if err := p.DefineRulesText(string(text)); err != nil {
			log.Fatalf("install rules %s: %v", *rulesFile, err)
		}
		st := p.RuleStats()
		log.Printf("installed %d rules from %s: %d derived facts, %d strata", st.Rules, *rulesFile, st.Facts, st.Strata)
	}

	log.Printf("generating %d-document corpus and search index", *docs)
	corpus := saga.GenerateCorpus(w, saga.CorpusConfig{NumDocs: *docs, Seed: *seed})
	index := saga.NewSearchIndex(corpus)

	srv, err := server.New(p, index)
	if err != nil {
		log.Fatalf("build server: %v", err)
	}
	srv.Admission = admission.NewController(
		admission.Limits{MaxInFlight: *readLimit, MaxQueue: *readQueue, QueueWait: *readQueueWait, Budget: *readBudget},
		admission.Limits{MaxInFlight: *writeLimit, MaxQueue: *writeQueue, QueueWait: *writeQueueWait, Budget: *writeBudget},
		admission.Limits{MaxInFlight: *maxSubscriptions},
	)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 2 * time.Second,
		ReadTimeout:       5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	log.Printf("serving %d entities / %d triples on %s", g.NumEntities(), g.NumTriples(), *addr)
	log.Printf("try: curl 'localhost%s/entity?key=person0'", *addr)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received; draining requests")
		// Admission-level drain first: new arrivals shed with 503 +
		// Retry-After while Shutdown waits out the in-flight ones.
		srv.StartDrain()
		drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("drain: %v", err)
		}
		if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			log.Printf("serve: %v", serveErr)
		}
	}
	if p.Durability() != nil {
		if _, err := p.CheckpointDurable(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		if err := p.CloseDurable(); err != nil {
			log.Printf("close data dir: %v", err)
		}
		log.Printf("durable state closed")
	}
}
