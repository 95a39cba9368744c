package repro_test

import (
	"testing"

	"saga/internal/kg"
	"saga/internal/wal"
)

// BenchmarkE16Durable measures what durability costs (experiment E16,
// report-only — excluded from the benchcmp gate): bulk ingest of a
// 64K-triple graph with the WAL off, with fsync-per-commit, and with
// fsync deferred (SyncNever), the restart axis — recovering the
// checkpointed graph versus re-ingesting it from scratch — and the
// checkpoint axis: a full checkpoint against a delta after 1 % churn.
const (
	e16Triples  = 1 << 16
	e16Entities = 4096
	e16Preds    = 4
	e16Batch    = 4096
)

// e16Seed populates an empty graph's dictionaries and returns the triple
// load in identity order (the merge-append bulk path).
func e16Seed(tb testing.TB, g *kg.Graph) []kg.Triple {
	tb.Helper()
	ents := make([]kg.EntityID, e16Entities)
	for i := range ents {
		id, err := g.AddEntity(kg.Entity{Key: "e16-" + itoa(i)})
		if err != nil {
			tb.Fatal(err)
		}
		ents[i] = id
	}
	preds := make([]kg.PredicateID, e16Preds)
	for i := range preds {
		id, err := g.AddPredicate(kg.Predicate{Name: "p16-" + itoa(i)})
		if err != nil {
			tb.Fatal(err)
		}
		preds[i] = id
	}
	perSubject := e16Triples / e16Entities
	triples := make([]kg.Triple, 0, e16Triples)
	for _, s := range ents {
		for j := 0; j < perSubject; j++ {
			triples = append(triples, kg.Triple{
				Subject:   s,
				Predicate: preds[j%e16Preds],
				Object:    kg.IntValue(int64(j)),
			})
		}
	}
	return triples
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// e16Ingest loads the triples batch-wise, committing each batch through
// the manager when one is attached.
func e16Ingest(tb testing.TB, g *kg.Graph, m *wal.Manager, triples []kg.Triple) {
	tb.Helper()
	for off := 0; off < len(triples); off += e16Batch {
		end := off + e16Batch
		if end > len(triples) {
			end = len(triples)
		}
		if _, err := g.AssertBatch(triples[off:end]); err != nil {
			tb.Fatal(err)
		}
		if m != nil {
			if _, err := m.Commit(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func BenchmarkE16Durable(b *testing.B) {
	modes := []struct {
		name string
		opts *wal.Options // nil = no WAL
	}{
		{"ingest/wal=off", nil},
		{"ingest/wal=sync-each-commit", &wal.Options{Sync: wal.SyncEachCommit}},
		{"ingest/wal=sync-never", &wal.Options{Sync: wal.SyncNever}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := kg.NewGraph()
				var m *wal.Manager
				if mode.opts != nil {
					var err error
					m, _, err = wal.Open(b.TempDir(), g, *mode.opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				triples := e16Seed(b, g)
				e16Ingest(b, g, m, triples)
				if m != nil {
					if err := m.Close(); err != nil {
						b.Fatal(err)
					}
				}
				if g.NumTriples() != e16Triples {
					b.Fatalf("ingested %d triples", g.NumTriples())
				}
			}
			b.ReportMetric(float64(e16Triples), "triples/op")
		})
	}

	// Restart axis: a checkpointed data dir prepared once, recovered per
	// iteration, against re-ingesting the same load into a fresh graph.
	b.Run("restart/recover-checkpoint", func(b *testing.B) {
		dir := b.TempDir()
		g := kg.NewGraph()
		m, _, err := wal.Open(dir, g, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		e16Ingest(b, g, m, e16Seed(b, g))
		if _, err := m.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g2 := kg.NewGraph()
			m2, info, err := wal.Open(dir, g2, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			if g2.NumTriples() != e16Triples {
				b.Fatalf("recovered %d triples (info %+v)", g2.NumTriples(), info)
			}
			b.StopTimer()
			if err := m2.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(e16Triples), "triples/op")
	})
	b.Run("restart/reingest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := kg.NewGraph()
			e16Ingest(b, g, nil, e16Seed(b, g))
			if g.NumTriples() != e16Triples {
				b.Fatalf("ingested %d triples", g.NumTriples())
			}
		}
		b.ReportMetric(float64(e16Triples), "triples/op")
	})
	// Checkpoint axis: one checkpoint of the graph after 1 % churn — 328
	// facts retracted, the 328 retracted the round before asserted again —
	// written full, and as a delta chained to the previous checkpoint
	// (in-memory FaultFS, so the figures are CPU and bytes, not the
	// disk). ckpt_bytes/op is what the checkpoint writes.
	for _, mode := range []string{"full", "delta-1pct"} {
		b.Run("checkpoint/"+mode, func(b *testing.B) {
			fs := wal.NewFaultFS(16)
			g := kg.NewGraph()
			m, _, err := wal.Open("/e16", g, wal.Options{FS: fs, Sync: wal.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			triples := e16Seed(b, g)
			e16Ingest(b, g, m, triples)
			checkpoint := func() {
				if _, err := m.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			commit := func() {
				if _, err := m.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			checkpoint()
			// A log truncated past the previous checkpoint forces a full one.
			forceFull := func() {
				commit()
				g.TruncateLog(g.LastSeq())
			}
			const churn = e16Triples / 200
			round := func(i int) {
				for j := 0; j < churn; j++ {
					if i > 0 {
						if err := g.Assert(triples[((i-1)*churn+j)%e16Triples]); err != nil {
							b.Fatal(err)
						}
					}
					g.Retract(triples[(i*churn+j)%e16Triples])
				}
			}
			round(0)
			commit()
			checkpoint()
			var written int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				b.StopTimer()
				if mode != "full" && i%64 == 0 {
					// Restart the chain before the compaction rule would, so
					// every timed checkpoint is one delta over a full one.
					spacer := kg.Triple{Subject: triples[0].Subject, Predicate: triples[0].Predicate, Object: kg.IntValue(-1)}
					if err := g.Assert(spacer); err != nil {
						b.Fatal(err)
					}
					g.Retract(spacer)
					forceFull()
					checkpoint()
				}
				round(i)
				if mode == "full" {
					forceFull()
				} else {
					commit()
				}
				before := fs.BytesAccepted()
				b.StartTimer()
				checkpoint()
				written += fs.BytesAccepted() - before
			}
			b.ReportMetric(float64(written)/float64(b.N), "ckpt_bytes/op")
			b.StopTimer()
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
