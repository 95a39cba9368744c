package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"saga/internal/kg"
)

// The fixed-width triple and key blocks still decode exactly:
// adversarial triple content — NaN floats, empty strings, zero and
// non-zero observation times, every value kind — comes back as asserts,
// and keys as retracts.
func TestTripleBlockRoundTrip(t *testing.T) {
	ts := []kg.Triple{
		{Subject: 1, Predicate: 2, Object: kg.EntityValue(3)},
		{Subject: 4, Predicate: 5, Object: kg.FloatValue(math.NaN())},
		{Subject: 6, Predicate: 7, Object: kg.StringValue("")},
		{Subject: 8, Predicate: 9, Object: kg.StringValue("héllo\x00world")},
		{Subject: 10, Predicate: 11, Object: kg.IntValue(-1), Prov: kg.Provenance{
			Source: "src", Confidence: 0.25, SourceQuality: 0.5,
			ObservedAt: time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC),
		}},
	}
	keys := make([]kg.TripleKey, len(ts))
	for i, tr := range ts {
		keys[i] = tr.IdentityKey()
	}
	for _, c := range []struct {
		payload []byte
		op      kg.MutationOp
		prov    bool
	}{
		{encTripleBlock(nil, ts), kg.OpAssert, true},
		{encKeyBlock(nil, keys), kg.OpRetract, false},
	} {
		got, err := decFacts(c.payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ts) {
			t.Fatalf("record type %d: decoded %d facts, want %d", c.payload[0], len(got), len(ts))
		}
		for i := range ts {
			want := kg.Mutation{Op: c.op, T: ts[i]}
			if !c.prov {
				want.T.Prov = kg.Provenance{}
			}
			if !sameMutation(got[i], want) {
				t.Fatalf("record type %d, fact %d: %+v, want %+v", c.payload[0], i, got[i], want)
			}
		}
	}
	// An empty block is legal (and decodes to nothing).
	if got, err := decFacts(encTripleBlock(nil, nil), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty block: %d facts, err %v", len(got), err)
	}
}

// A truncated block payload, in either format, errors: no block decodes
// to part of itself.
func TestTripleBlockTruncation(t *testing.T) {
	ts := []kg.Triple{
		{Subject: 1, Predicate: 2, Object: kg.EntityValue(3)},
		{Subject: 4, Predicate: 5, Object: kg.StringValue("tail")},
	}
	muts := []kg.Mutation{{Seq: 7, Op: kg.OpAssert, T: ts[0]}, {Seq: 8, Op: kg.OpRetract, T: ts[1]}}
	for _, p := range [][]byte{encTripleBlock(nil, ts), firstPayload(appendFactBlocks(nil, 7, muts, mutationFact))} {
		for cut := len(p) - 1; cut > 0; cut-- {
			if _, err := decFacts(p[:cut], nil); err == nil {
				t.Fatalf("record type %d cut at %d of %d bytes decoded cleanly", p[0], cut, len(p))
			}
		}
	}
}

// A checkpoint written before checkpoints were chained has the same
// records under a five-field header — no base, no retraction count.
// Frame one by hand from a scripted graph: it must open as a full
// checkpoint, and the next checkpoint must chain to it.
func TestUnchainedCheckpointOpensAsFull(t *testing.T) {
	src := kg.NewGraphWithShards(4)
	s := newScripted(t, src, 31)
	for i := 0; i < 300; i++ {
		s.step()
	}
	ts, wm := src.AllTriplesSnapshot()
	ont := src.Ontology()
	hdr := []byte{recCheckpointHeader}
	for _, v := range []uint64{wm, uint64(src.NumEntities()), uint64(src.NumPredicates()), uint64(ont.Len()), uint64(len(ts))} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	file := appendFrame(nil, hdr)
	for id := kg.TypeID(1); int(id) <= ont.Len(); id++ {
		file = appendFrame(file, encOntType(nil, ontRec{id: id, name: ont.Name(id), parent: ont.Parent(id)}))
	}
	for id := kg.EntityID(1); int(id) <= src.NumEntities(); id++ {
		file = appendFrame(file, encEntity(nil, src.Entity(id)))
	}
	for id := kg.PredicateID(1); int(id) <= src.NumPredicates(); id++ {
		file = appendFrame(file, encPredicate(nil, src.Predicate(id)))
	}
	for start := 0; start < len(ts); start += factBlockSize {
		file = appendFrame(file, encTripleBlock(nil, ts[start:min(start+factBlockSize, len(ts))]))
	}
	file = appendFrame(file, encCkptFooter(nil, ckptFooter{watermark: wm, nTriples: uint64(len(ts))}))

	fs := NewFaultFS(31)
	if err := fs.MkdirAll(testDir); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(filepath.Join(testDir, ckptName(wm)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(file); err != nil {
		t.Fatal(err)
	}
	g, m, info := mustOpen(t, fs, Options{})
	if info.CheckpointLSN != wm || info.RecoveredLSN != wm {
		t.Fatalf("recovered checkpoint %d to LSN %d, want %d", info.CheckpointLSN, info.RecoveredLSN, wm)
	}
	if f := m.files[wm]; f.base != 0 || f.rows != 0 {
		t.Fatalf("unchained checkpoint indexed as %+v, want a full one", f)
	}
	sameTriples(t, src, g)
	sameDicts(t, src, g)

	// The next checkpoint is a delta over it, and recovers through it.
	if !g.Retract(ts[0]) {
		t.Fatal("retract failed")
	}
	if err := g.Assert(kg.Triple{Subject: ts[0].Subject, Predicate: ts[0].Predicate, Object: kg.StringValue("after")}); err != nil {
		t.Fatal(err)
	}
	wm2, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if base := m.files[wm2].base; base != wm {
		t.Fatalf("checkpoint at %d has base %d, want the unchained checkpoint %d", wm2, base, wm)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	g2, m2, _ := mustOpen(t, fs, Options{})
	defer m2.Close()
	sameTriples(t, g, g2)
	sameDicts(t, g, g2)
}

// A checkpoint of a graph larger than one block must still restore
// exactly (multiple full blocks plus a remainder).
func TestBlockCheckpointMultiBlockRestore(t *testing.T) {
	fs := NewFaultFS(29)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	ent := make([]kg.EntityID, 0, 40)
	for i := 0; i < 40; i++ {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("b%03d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ent = append(ent, id)
	}
	pred, err := g.AddPredicate(kg.Predicate{Name: "links"})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]kg.Triple, 0, factBlockSize*2+37)
	for i := 0; i < cap(batch); i++ {
		batch = append(batch, kg.Triple{
			Subject:   ent[i%len(ent)],
			Predicate: pred,
			Object:    kg.IntValue(int64(i)),
		})
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	g2, m2, _ := mustOpen(t, fs, Options{})
	defer m2.Close()
	if got, want := g2.NumTriples(), g.NumTriples(); got != want {
		t.Fatalf("restored %d triples, want %d", got, want)
	}
}
