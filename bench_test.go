package repro_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"saga/internal/annotate"
	"saga/internal/embedding"
	"saga/internal/graphengine"
	"saga/internal/kg"
	"saga/internal/odke"
	"saga/internal/ondevice"
	"saga/internal/vecindex"
	"saga/internal/wal"
	"saga/internal/webcorpus"
	"saga/internal/websearch"
	"saga/internal/workload"
)

// The benchmark side of each experiment: where the Test measures quality
// (the paper's "who wins"), the Benchmark measures cost (the paper's
// price/performance axis). Run with:
//
//	go test -bench=. -benchmem .

// BenchmarkE1FactRanking measures fact-ranking queries per second.
func BenchmarkE1FactRanking(b *testing.B) {
	f := getFixture(b)
	occ := f.w.Preds["occupation"]
	people := f.w.People
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.svc.RankFacts(people[i%len(people)], occ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2FactVerification measures triple-scoring throughput.
func BenchmarkE2FactVerification(b *testing.B) {
	f := getFixture(b)
	n := int32(f.dataset.NumEntities())
	r := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.model.Score(int32(i)%n, r, int32(i*7)%n)
	}
}

// BenchmarkE3RelatedEntities measures related-entity queries (walk-vector
// kNN) per second.
func BenchmarkE3RelatedEntities(b *testing.B) {
	f := getFixture(b)
	people := f.w.People
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.walkSvc.RelatedEntities(people[i%len(people)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4EntityLinking measures single-document annotation latency
// for each ranking mode — the paper's modular quality/cost trade-off.
func BenchmarkE4EntityLinking(b *testing.B) {
	f := getFixture(b)
	var texts []string
	for _, d := range f.corpus {
		if d.Cluster >= 0 {
			texts = append(texts, d.Text)
		}
		if len(texts) == 50 {
			break
		}
	}
	for _, mode := range []annotate.Mode{annotate.ModeLexical, annotate.ModePopularity, annotate.ModeContextual} {
		b.Run(string(mode), func(b *testing.B) {
			a := f.annotators[mode]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = a.Annotate(texts[i%len(texts)])
			}
		})
	}
}

// BenchmarkE5TrainingThroughput measures Hogwild SGD edge throughput at
// 1, 2, and 4 workers (the paper's multi-GPU scaling axis, mapped to
// goroutines; ROADMAP.md's Hogwild residual records how it scales). Each
// worker is an updater plus the sampler goroutine that draws its steps,
// so one worker already runs on two cores and W workers start 2W
// goroutines.
func BenchmarkE5TrainingThroughput(b *testing.B) {
	f := getFixture(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := embedding.TrainConfig{
				Model: embedding.DistMult, Dim: 32, Epochs: 1,
				LearningRate: 0.08, Negatives: 2, Workers: workers, Seed: 1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := embedding.Train(f.train, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(f.train.Triples)*b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkE6AnnotationThroughput measures corpus annotation in docs/s.
func BenchmarkE6AnnotationThroughput(b *testing.B) {
	f := getFixture(b)
	a := f.annotators[annotate.ModeContextual]
	b.ResetTimer()
	var docs int
	for i := 0; i < b.N; i++ {
		pipe := annotate.NewPipeline(a, 4)
		stats := pipe.Run(f.corpus)
		docs += stats.Processed
	}
	b.ReportMetric(float64(docs)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkE6Incremental measures the incremental pass cost at several
// change rates; work should scale with the rate, not the corpus.
func BenchmarkE6Incremental(b *testing.B) {
	f := getFixture(b)
	a := f.annotators[annotate.ModeContextual]
	for _, rate := range []float64{0.05, 0.2} {
		b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				docs := webcorpus.Generate(f.w, webcorpus.Config{NumDocs: 300, Seed: 7})
				pipe := annotate.NewPipeline(a, 4)
				pipe.Run(docs)
				rng := rand.New(rand.NewSource(int64(i)))
				webcorpus.Mutate(docs, rate, rng)
				b.StartTimer()
				pipe.Run(docs)
			}
		})
	}
}

// BenchmarkE7ODKEPipeline measures end-to-end gap-filling latency.
func BenchmarkE7ODKEPipeline(b *testing.B) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 80, NumClusters: 8, Seed: 177})
	if err != nil {
		b.Fatal(err)
	}
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 400, InfoboxFraction: 0.6, Seed: 177})
	ann, err := annotate.New(w.Graph, annotate.Config{Mode: annotate.ModeContextual, Seed: 177})
	if err != nil {
		b.Fatal(err)
	}
	index := websearch.NewIndex(docs)
	resolver := odke.NewEntityResolver(w.Graph)
	pipe, err := odke.NewPipeline(w.Graph, index, ann,
		[]odke.Extractor{odke.NewInfoboxExtractor(w.Graph, resolver), odke.NewTextExtractor(w.Graph)},
		odke.MajorityVoteFuser{})
	if err != nil {
		b.Fatal(err)
	}
	// A rotating set of gaps (collect-only so graph state stays fixed).
	var gaps []odke.Gap
	for _, p := range w.People[:20] {
		gaps = append(gaps, odke.Gap{Subject: p, Predicate: w.Preds["memberOf"], Kind: odke.GapMissing})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap := gaps[i%len(gaps)]
		cands, _, _ := pipe.CollectCandidates(gap)
		_, _ = odke.Fuse(odke.MajorityVoteFuser{}, cands)
	}
}

// BenchmarkE8PersonalKG measures personal-KG construction in records/s
// under a tight and a loose memory budget.
func BenchmarkE8PersonalKG(b *testing.B) {
	records, _ := ondevice.GenerateDeviceData(ondevice.DeviceDataConfig{NumPersons: 40, RecordsPerPerson: 4, Seed: 188})
	for _, budget := range []int{1 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				builder, err := ondevice.NewBuilder(b.TempDir(), budget)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				processed, err := builder.ProcessBatch(records, 0)
				if err != nil {
					b.Fatal(err)
				}
				n += processed
				b.StopTimer()
				builder.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkE9Sync measures a full all-to-all sync round across three
// devices.
func BenchmarkE9Sync(b *testing.B) {
	records, _ := ondevice.GenerateDeviceData(ondevice.DeviceDataConfig{NumPersons: 20, RecordsPerPerson: 4, Seed: 199})
	prefs := func() map[ondevice.SourceKind]bool {
		return map[ondevice.SourceKind]bool{
			ondevice.SourceContacts: true, ondevice.SourceMessages: true, ondevice.SourceCalendar: true,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := b.TempDir()
		var devices []*ondevice.Device
		for _, name := range []string{"phone", "laptop", "watch"} {
			d, err := ondevice.NewDevice(base, name, 1, prefs(), 0)
			if err != nil {
				b.Fatal(err)
			}
			devices = append(devices, d)
		}
		devices[0].AddLocalRecords(records)
		sg := &ondevice.SyncGroup{Devices: devices}
		b.StartTimer()
		if err := sg.SyncRound(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, d := range devices {
			d.Close()
		}
		b.StartTimer()
	}
}

// BenchmarkE10Enrichment measures the three enrichment paths' per-query
// cost: asset lookup, piggyback interaction, and PIR fetch. static-asset
// also reports asset_B, the heap the built asset retains (deterministic:
// a record that it holds its entries and not a copy of the graph).
func BenchmarkE10Enrichment(b *testing.B) {
	f := getFixture(b)
	keys := make([]string, len(f.w.People))
	for i, p := range f.w.People {
		keys[i] = f.w.Graph.Entity(p).Key
	}
	b.Run("static-asset", func(b *testing.B) {
		before := liveHeap()
		asset, err := ondevice.BuildStaticAsset(f.w.Graph, 60)
		if err != nil {
			b.Fatal(err)
		}
		retained := int64(liveHeap()) - int64(before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			asset.Lookup(keys[i%len(keys)])
		}
		b.ReportMetric(float64(retained), "asset_B")
	})
	b.Run("piggyback", func(b *testing.B) {
		cache := ondevice.NewPiggybackCache()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.ServerInteraction(f.w.Graph, keys[i%len(keys)])
		}
	})
	b.Run("pir", func(b *testing.B) {
		pir := ondevice.NewPIRServer(f.w.Graph)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pir.Fetch(keys[i%len(keys)])
		}
		b.ReportMetric(float64(pir.CostUnits)/float64(b.N), "rows/query")
	})
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkE11ANNPricePerf measures kNN latency across nprobe settings
// and against the exact flat index, with recall reported per setting.
func BenchmarkE11ANNPricePerf(b *testing.B) {
	rng := rand.New(rand.NewSource(211))
	const n, dim = 5000, 32
	ids := make([]uint64, n)
	vecs := make([]vecindex.Vector, n)
	for i := 0; i < n; i++ {
		ids[i] = uint64(i + 1)
		v := make(vecindex.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = vecindex.Normalize(v)
	}
	flat := vecindex.NewFlat()
	for i := range ids {
		if err := flat.Add(ids[i], vecs[i]); err != nil {
			b.Fatal(err)
		}
	}
	ivf, err := vecindex.BuildIVF(ids, vecs, vecindex.IVFOptions{NList: 64, Seed: 211})
	if err != nil {
		b.Fatal(err)
	}
	recallOf := func(nprobe int) float64 {
		var hit, total int
		for q := 0; q < 30; q++ {
			query := vecs[(q*31)%n]
			want := flat.Search(query, 10)
			got := ivf.SearchNProbe(query, 10, nprobe)
			gotSet := make(map[uint64]bool, len(got))
			for _, r := range got {
				gotSet[r.ID] = true
			}
			for _, r := range want {
				total++
				if gotSet[r.ID] {
					hit++
				}
			}
		}
		return float64(hit) / float64(total)
	}
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = flat.Search(vecs[i%n], 10)
		}
		b.ReportMetric(1.0, "recall@10")
	})
	for _, nprobe := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("ivf-nprobe=%d", nprobe), func(b *testing.B) {
			rec := recallOf(nprobe)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ivf.SearchNProbe(vecs[i%n], 10, nprobe)
			}
			b.ReportMetric(rec, "recall@10")
		})
	}
}

// BenchmarkE12DiskTraining compares one epoch of in-memory vs
// disk-streamed partition training.
func BenchmarkE12DiskTraining(b *testing.B) {
	f := getFixture(b)
	cfg := embedding.TrainConfig{
		Model: embedding.DistMult, Dim: 32, Epochs: 1,
		LearningRate: 0.08, Negatives: 2, Workers: 2, Seed: 1,
	}
	b.Run("in-memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := embedding.Train(f.train, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disk-partitioned", func(b *testing.B) {
		dir := b.TempDir()
		paths, err := embedding.WritePartitions(f.train, dir, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := embedding.TrainFromDisk(f.train, paths, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13Conjunctive measures the paper's §1 retrieval shape — a
// two-clause bound-object conjunctive query ("people in team T who won
// award A") — on a skewed graph: a hot follows predicate and a
// few hot teams dominate the postings while the queried (memberOf, team)
// pair is selective. The "pom" case runs the planner over the
// predicate-major index (counter estimates + one posting-list read); the
// "sweep" case replays the pre-index strategy, where every selectivity
// estimate and the expansion scan the stored triples — the cost model of
// a graph with no reverse index at all, excluded from the benchcmp gate
// as a deliberately-degraded baseline foil (see scripts/benchcmp).
func BenchmarkE13Conjunctive(b *testing.B) {
	g := kg.NewGraph()
	add := func(key string) kg.EntityID {
		id, err := g.AddEntity(kg.Entity{Key: key})
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	member, _ := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	awardP, _ := g.AddPredicate(kg.Predicate{Name: "award"})
	follows, _ := g.AddPredicate(kg.Predicate{Name: "follows"})
	const nPeople = 8192
	const nTeams = 64
	teams := make([]kg.EntityID, nTeams)
	for i := range teams {
		teams[i] = add(fmt.Sprintf("team%d", i))
	}
	prize := add("prize")
	people := make([]kg.EntityID, nPeople)
	for i := range people {
		people[i] = add(fmt.Sprintf("p%d", i))
	}
	batch := make([]kg.Triple, 0, nPeople*6)
	for i, p := range people {
		// Skewed membership: 15 of every 16 people pile onto the 8 hot
		// teams; the rest spread across all 64 teams, leaving the queried
		// cold team (nTeams-1) with 8 members.
		ti := i % 8
		if i%16 == 15 {
			ti = (i / 16) % nTeams
		}
		batch = append(batch, kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(teams[ti])})
		if i%7 == 0 {
			batch = append(batch, kg.Triple{Subject: p, Predicate: awardP, Object: kg.EntityValue(prize)})
		}
		for j := 1; j <= 4; j++ {
			batch = append(batch, kg.Triple{Subject: p, Predicate: follows, Object: kg.EntityValue(people[(i+j*131)%nPeople])})
		}
	}
	if _, err := g.AssertBatch(batch); err != nil {
		b.Fatal(err)
	}
	eng := graphengine.New(g)
	teamRare := teams[nTeams-1]
	clauses := []graphengine.Clause{
		{Subject: graphengine.V("p"), Predicate: member, Object: graphengine.CE(teamRare)},
		{Subject: graphengine.V("p"), Predicate: awardP, Object: graphengine.CE(prize)},
	}
	// The index-free baseline: selectivity-estimate both clauses and
	// expand the cheaper one via a scan of the stored triples, then filter
	// with HasFact.
	sweep := func(p kg.PredicateID, o kg.Value) []kg.EntityID {
		var out []kg.EntityID
		key := o.MapKey()
		g.TriplesSnapshot(func(t kg.Triple) bool {
			if t.Predicate == p && t.Object.MapKey() == key {
				out = append(out, t.Subject)
			}
			return true
		})
		return out
	}
	sweepEval := func() int {
		p1, o1 := member, kg.EntityValue(teamRare)
		p2, o2 := awardP, kg.EntityValue(prize)
		if len(sweep(p2, o2)) < len(sweep(p1, o1)) {
			p1, o1, p2, o2 = p2, o2, p1, o1
		}
		n := 0
		for _, s := range sweep(p1, o1) {
			if g.HasFact(s, p2, o2) {
				n++
			}
		}
		return n
	}
	res, err := eng.QueryConjunctive(clauses)
	if err != nil {
		b.Fatal(err)
	}
	if want := sweepEval(); len(res) != want || want == 0 {
		b.Fatalf("planner found %d bindings, sweep baseline %d (must agree and be non-empty)", len(res), want)
	}
	b.Run("pom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.QueryConjunctive(clauses); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sweepEval()
		}
	})
}

// BenchmarkE14QueryStream measures what the streaming query API buys the
// serving path: a limit=10 conjunctive query over a skewed graph where
// the answer set is wide (every hot-team member also won the award, so
// thousands of bindings satisfy the conjunction). The "stream" case
// pushes the limit into the solver (StreamConjunctive stops probing after
// ten rows); the "materialize" case replays the pre-streaming strategy —
// QueryConjunctive solves, dedups, and sorts the full answer set, then
// the caller keeps the first ten. Report-only per the E14+ convention.
func BenchmarkE14QueryStream(b *testing.B) {
	g := kg.NewGraph()
	add := func(key string) kg.EntityID {
		id, err := g.AddEntity(kg.Entity{Key: key})
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	member, _ := g.AddPredicate(kg.Predicate{Name: "memberOf"})
	awardP, _ := g.AddPredicate(kg.Predicate{Name: "award"})
	follows, _ := g.AddPredicate(kg.Predicate{Name: "follows"})
	tier, _ := g.AddPredicate(kg.Predicate{Name: "tier"})
	const nPeople = 8192
	const nTeams = 64
	const nGold = 5000 // the walked posting: (p, tier, gold) for the first 5000 people
	teams := make([]kg.EntityID, nTeams)
	for i := range teams {
		teams[i] = add(fmt.Sprintf("team%d", i))
	}
	prize := add("prize")
	gold := add("gold")
	people := make([]kg.EntityID, nPeople)
	for i := range people {
		people[i] = add(fmt.Sprintf("p%d", i))
	}
	batch := make([]kg.Triple, 0, nPeople*7)
	for i, p := range people {
		// Half the people pile onto the hot team 0, the rest spread across
		// the other teams; every hot-team member holds the award, so the
		// queried conjunction has ~4096 answers.
		ti := 0
		if i%2 == 1 {
			ti = 1 + (i/2)%(nTeams-1)
		}
		batch = append(batch, kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(teams[ti])})
		if ti == 0 || i%7 == 0 {
			batch = append(batch, kg.Triple{Subject: p, Predicate: awardP, Object: kg.EntityValue(prize)})
		}
		if i < nGold {
			batch = append(batch, kg.Triple{Subject: p, Predicate: tier, Object: kg.EntityValue(gold)})
		}
		for j := 1; j <= 4; j++ {
			batch = append(batch, kg.Triple{Subject: p, Predicate: follows, Object: kg.EntityValue(people[(i+j*131)%nPeople])})
		}
	}
	if _, err := g.AssertBatch(batch); err != nil {
		b.Fatal(err)
	}
	eng := graphengine.New(g)
	clauses := []graphengine.Clause{
		{Subject: graphengine.V("p"), Predicate: member, Object: graphengine.CE(teams[0])},
		{Subject: graphengine.V("p"), Predicate: awardP, Object: graphengine.CE(prize)},
	}
	const limit = 10

	// Correctness pins: the limited stream yields exactly limit rows and
	// the materialized solve finds the full wide answer set.
	full, err := eng.QueryConjunctive(clauses)
	if err != nil {
		b.Fatal(err)
	}
	if len(full) != nPeople/2 {
		b.Fatalf("full solve = %d bindings, want %d", len(full), nPeople/2)
	}

	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, err := range eng.StreamConjunctive(clauses, graphengine.QueryOptions{Limit: limit}) {
				if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n != limit {
				b.Fatalf("stream yielded %d rows, want %d", n, limit)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := eng.QueryConjunctive(clauses)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) < limit {
				b.Fatalf("materialized solve = %d rows, want >= %d", len(res), limit)
			}
			res = res[:limit]
			_ = res
		}
	})

	// The cursor walk: 20 pages of 250 over the 5000-subject posting.
	// page-first is the walk's first page, page-last its twentieth
	// (resumed after row 4750). A cursor that seeks makes the two cost the
	// same; one that replays makes the last page cost the whole walk.
	// allocs/op is the noise-free witness.
	walk := []graphengine.Clause{{Subject: graphengine.V("p"), Predicate: tier, Object: graphengine.CE(gold)}}
	const pageSize, pages = 250, nGold / 250
	page := func(b *testing.B, cursor []kg.ValueKey) graphengine.Binding {
		var last graphengine.Binding
		n := 0
		for row, err := range eng.StreamConjunctive(walk, graphengine.QueryOptions{Limit: pageSize, Cursor: cursor}) {
			if err != nil {
				b.Fatal(err)
			}
			last = row
			n++
		}
		if n != pageSize {
			b.Fatalf("page yielded %d rows, want %d", n, pageSize)
		}
		return last
	}
	var lastPageCursor []kg.ValueKey
	for i := 0; i < pages-1; i++ {
		lastPageCursor = graphengine.BindingKey(page(b, lastPageCursor))
	}
	for _, pg := range []struct {
		name   string
		cursor []kg.ValueKey
	}{{"page-first", nil}, {"page-last", lastPageCursor}} {
		b.Run(pg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				page(b, pg.cursor)
			}
		})
	}
}

// BenchmarkE15Ingest measures parallel same-predicate batch ingestion —
// the ODKE bulk-load shape: 8 goroutines AssertBatch disjoint subject
// ranges of ONE predicate into one graph, each subject's run of a batch
// under one hold of the graph's write lock, every index update on the
// same hot predicate's posting. Gated (E15).
func BenchmarkE15Ingest(b *testing.B) {
	const pool = 1 << 16
	const batchSize = 512
	g := kg.NewGraph()
	p, _ := g.AddPredicate(kg.Predicate{Name: "type"})
	ids := make([]kg.EntityID, pool)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	var worker atomic.Int64
	procs := runtime.GOMAXPROCS(0)
	// SetParallelism targets ≈8 goroutines but RunParallel spawns
	// parallelism*GOMAXPROCS, which overshoots on core counts that
	// don't divide 8 — so worker w owns the subjects congruent to w
	// mod 64, keeping the subject ranges disjoint for any worker count
	// up to 64.
	b.SetParallelism((8 + procs - 1) / procs)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1)) - 1
		rng := rand.New(rand.NewSource(int64(w)))
		batch := make([]kg.Triple, batchSize)
		var i int64
		for pb.Next() {
			i++
			for j := range batch {
				// Worker w owns the subjects congruent to w mod 64;
				// every object value is fresh, so each batch asserts
				// batchSize new facts of the one shared predicate.
				s := ids[rng.Intn(pool/64)*64+w%64]
				batch[j] = kg.Triple{Subject: s, Predicate: p, Object: kg.IntValue(int64(w)<<48 | i<<16 | int64(j))}
			}
			if _, err := g.AssertBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(batchSize), "triples/op")
}

// BenchmarkGraphRetractHot measures Retract against a hot posting list —
// n subjects all asserting (type, Person), the paper's person-entity
// shape — at three sizes spanning 64×. Each op retracts one fact and
// re-asserts it, so the posting stays at steady-state size. The posting
// is a sorted []EntityID: finding the slot is a binary search, but
// removing it and putting it back each shift the tail of the list — a
// memmove of on average n/2 four-byte IDs, twice per op. The cost is
// therefore linear in n with a small constant (it stays in the noise of
// the rest of the write path up to n ≈ 16k and dominates at n ≈ 1M);
// that is the known price of order being a function of the facts, paid
// here in the worst case — mid-list churn on the single hottest posting —
// and deliberately not hidden behind a blocked or tree-shaped posting.
// Compare sizes at a fixed -benchtime Nx.
func BenchmarkGraphRetractHot(b *testing.B) {
	for _, n := range []int{16384, 131072, 1048576} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := kg.NewGraph()
			typeP, _ := g.AddPredicate(kg.Predicate{Name: "type"})
			person, err := g.AddEntity(kg.Entity{Key: "Person"})
			if err != nil {
				b.Fatal(err)
			}
			subs := make([]kg.EntityID, n)
			batch := make([]kg.Triple, n)
			obj := kg.EntityValue(person)
			for i := range subs {
				id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("s%d", i)})
				if err != nil {
					b.Fatal(err)
				}
				subs[i] = id
				batch[i] = kg.Triple{Subject: id, Predicate: typeP, Object: obj}
			}
			// Subjects were registered in ascending ID order, so the batch
			// is identity-sorted and restores through the merge-append path.
			if _, err := g.AssertBatch(batch); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := kg.Triple{Subject: subs[i%n], Predicate: typeP, Object: obj}
				if !g.Retract(tr) {
					b.Fatal("retract missed a live fact")
				}
				if err := g.Assert(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphAssertWideSubject measures the one shape a subject's run
// makes costlier: a subject with 64 predicates × 256 facts, the run
// 16 384 rows long. Each op retracts the fact in the middle of the run
// and asserts it again, so each splice moves half the subject's run (a
// memmove of ~8 192 40-byte rows), where a list per predicate would move
// half of one predicate's 256.
func BenchmarkGraphAssertWideSubject(b *testing.B) {
	const preds, perPred = 64, 256
	g := kg.NewGraph()
	s, err := g.AddEntity(kg.Entity{Key: "wide"})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]kg.Triple, 0, preds*perPred)
	var mid kg.Triple
	for i := 0; i < preds; i++ {
		p, err := g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < perPred; k++ {
			batch = append(batch, kg.Triple{Subject: s, Predicate: p, Object: kg.IntValue(int64(k))})
		}
		if i == preds/2 {
			mid = batch[len(batch)-perPred/2]
		}
	}
	if _, err := g.AssertBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.Retract(mid) {
			b.Fatal("retract missed a live fact")
		}
		if err := g.Assert(mid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphFootprint reports heap_B/triple, the heap a graph
// retains per fact: live heap after collection with the world imported
// into a fresh graph, less the live heap before, divided by the graph's
// fact count. The world is the end-to-end benchmark's (seed 1, 20 000
// people, 400 clusters: 178 751 facts), imported as wal.ImportGraph does
// it, so the figure covers the entity records as well as the facts.
// Report-only; it counts bytes, so it does not drift with the box's
// speed.
func BenchmarkGraphFootprint(b *testing.B) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 20000, NumClusters: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var perTriple float64
	var facts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		g := kg.NewGraph()
		if err := wal.ImportGraph(g, w.Graph); err != nil {
			b.Fatal(err)
		}
		facts = g.NumTriples()
		perTriple = float64(int64(liveHeap())-int64(before)) / float64(facts)
		runtime.KeepAlive(g)
	}
	b.ReportMetric(perTriple, "heap_B/triple")
	b.ReportMetric(float64(facts), "facts")
}

// BenchmarkGraphAssertBatchSorted measures the disk-restore shape: one
// 65536-triple snapshot in AllTriples order (subjects ascending, then
// predicate, then object identity) bulk-loaded into a fresh graph with a
// single AssertBatch call. The "sorted" case takes the fast path (an
// O(n) sortedness check); the "shuffled" case replays the identical
// triples through a fixed permutation and pays the general per-batch
// identity comparison sort. Graph construction and entity registration happen off the clock.
func BenchmarkGraphAssertBatchSorted(b *testing.B) {
	const pool = 4096
	const perSubject = 16 // 4 predicates x 4 ascending objects
	const batchSize = pool * perSubject
	build := func(g *kg.Graph) ([]kg.EntityID, []kg.PredicateID) {
		ids := make([]kg.EntityID, pool)
		for i := range ids {
			id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		preds := make([]kg.PredicateID, 4)
		for i := range preds {
			preds[i], _ = g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
		}
		return ids, preds
	}
	// Template graph fixes the ID assignment; every fresh graph below
	// registers the same records in the same order, so the snapshot's IDs
	// stay valid.
	tmpl := kg.NewGraph()
	ids, preds := build(tmpl)
	snapshot := make([]kg.Triple, 0, batchSize)
	for si, s := range ids {
		for _, p := range preds {
			for k := 0; k < 4; k++ {
				var obj kg.Value
				if p == preds[0] {
					// Entity-valued facts keep ascending object identity
					// within the run because ids are assigned ascending.
					obj = kg.EntityValue(ids[(si*4+k)%pool])
				} else {
					obj = kg.IntValue(int64(si*16 + k))
				}
				snapshot = append(snapshot, kg.Triple{Subject: s, Predicate: p, Object: obj})
			}
		}
	}
	shuffled := append([]kg.Triple(nil), snapshot...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, c := range []struct {
		name  string
		batch []kg.Triple
	}{{"sorted", snapshot}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := kg.NewGraph()
				build(g)
				b.StartTimer()
				added, err := g.AssertBatch(c.batch)
				if err != nil {
					b.Fatal(err)
				}
				if added != batchSize {
					b.Fatalf("restored %d of %d triples", added, batchSize)
				}
			}
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}

// BenchmarkGraphAssert measures raw triple ingestion.
func BenchmarkGraphAssert(b *testing.B) {
	g := kg.NewGraph()
	p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	const pool = 10000
	ids := make([]kg.EntityID, pool)
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Assert(kg.Triple{Subject: ids[i%pool], Predicate: p, Object: kg.IntValue(int64(i))})
	}
}

// BenchmarkGraphAssertParallel measures concurrent triple ingestion at 8
// goroutines into one graph, whose writers serialize on its write lock.
// Each goroutine asserts fresh facts for its own subject slice, the write
// pattern ODKE-style ingestion produces. In the shared row every writer
// asserts the one predicate; in the disjoint row each writer owns its
// predicate as well as its subjects, the shape that a graph partitioned
// by subject and predicate would let run side by side.
func BenchmarkGraphAssertParallel(b *testing.B) {
	const pool, writers = 8192, 8
	for _, disjoint := range []bool{false, true} {
		name := "shared"
		if disjoint {
			name = "disjoint"
		}
		b.Run(name, func(b *testing.B) {
			g := kg.NewGraph()
			preds := make([]kg.PredicateID, writers)
			for i := range preds {
				preds[i], _ = g.AddPredicate(kg.Predicate{Name: fmt.Sprintf("p%d", i)})
			}
			ids := make([]kg.EntityID, pool)
			for i := range ids {
				id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			var worker atomic.Int64
			procs := runtime.GOMAXPROCS(0)
			b.SetParallelism((writers + procs - 1) / procs) // ≈8 goroutines total
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(worker.Add(1)) - 1
				rng := rand.New(rand.NewSource(int64(w)))
				p := preds[0]
				if disjoint {
					p = preds[w%writers]
				}
				var i int64
				for pb.Next() {
					i++
					// Worker w owns the subjects congruent to w mod 8
					// (mirroring ingestion workers partitioned by subject),
					// and every object value is fresh.
					s := ids[rng.Intn(pool/writers)*writers+w%writers]
					_ = g.Assert(kg.Triple{Subject: s, Predicate: p, Object: kg.IntValue(int64(w)<<40 | i)})
				}
			})
		})
	}
}

// BenchmarkGraphAssertBatch compares looped Assert against the AssertBatch
// fast path (one lock acquisition per subject, indexes grown per run) for a
// 512-triple ingestion batch.
func BenchmarkGraphAssertBatch(b *testing.B) {
	const pool, batchSize = 1024, 512
	mkGraph := func(b *testing.B) (*kg.Graph, []kg.EntityID, kg.PredicateID) {
		g := kg.NewGraph()
		p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
		ids := make([]kg.EntityID, pool)
		for i := range ids {
			id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		return g, ids, p
	}
	mkBatch := func(ids []kg.EntityID, p kg.PredicateID, i int) []kg.Triple {
		batch := make([]kg.Triple, batchSize)
		for j := range batch {
			batch[j] = kg.Triple{Subject: ids[(i*batchSize+j*7)%pool], Predicate: p, Object: kg.IntValue(int64(i*batchSize + j))}
		}
		return batch
	}
	b.Run("loop", func(b *testing.B) {
		g, ids, p := mkGraph(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tr := range mkBatch(ids, p, i) {
				_ = g.Assert(tr)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		g, ids, p := mkGraph(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.AssertBatch(mkBatch(ids, p, i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTripleKey compares the two fact-identity representations: the
// comparable TripleKey struct (what the graph's indexes key on) vs the
// legacy SPO() string build. Each iteration keys a map insert + lookup,
// the exact operation pair Assert and HasFact perform.
func BenchmarkTripleKey(b *testing.B) {
	g := kg.NewGraph()
	p, _ := g.AddPredicate(kg.Predicate{Name: "p"})
	const pool = 4096
	triples := make([]kg.Triple, pool)
	for i := range triples {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		triples[i] = kg.Triple{Subject: id, Predicate: p, Object: kg.IntValue(int64(i))}
	}
	b.Run("struct", func(b *testing.B) {
		set := make(map[kg.TripleKey]struct{}, pool)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := triples[i%pool].IdentityKey()
			if _, dup := set[k]; !dup {
				set[k] = struct{}{}
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		set := make(map[string]struct{}, pool)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := triples[i%pool].SPO()
			if _, dup := set[k]; !dup {
				set[k] = struct{}{}
			}
		}
	})
}

// BenchmarkSearch measures BM25 query latency on the fixture corpus.
func BenchmarkSearch(b *testing.B) {
	f := getFixture(b)
	queries := []string{"update from", "award after the match", "basketball player", "weather today"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.index.Search(queries[i%len(queries)], 10)
	}
}
