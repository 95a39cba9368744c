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

// Block payloads round-trip adversarial triple content exactly: NaN
// floats, empty strings, zero and non-zero observation times, every
// value kind the tripleBody codec covers.
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
	p := encTripleBlock(nil, ts)
	if p[0] != recTripleBlock {
		t.Fatalf("payload type = %d, want %d", p[0], recTripleBlock)
	}
	var got []kg.Triple
	if err := decTripleBlock(p, func(tr kg.Triple) error {
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("decoded %d triples, want %d", len(got), len(ts))
	}
	for i := range ts {
		if got[i].IdentityKey() != ts[i].IdentityKey() {
			t.Fatalf("triple %d: key %v, want %v", i, got[i].IdentityKey(), ts[i].IdentityKey())
		}
		if got[i].Prov != ts[i].Prov {
			t.Fatalf("triple %d: prov %+v, want %+v", i, got[i].Prov, ts[i].Prov)
		}
	}
	// An empty block is legal (and decodes to nothing).
	if err := decTripleBlock(encTripleBlock(nil, nil), func(kg.Triple) error {
		t.Fatal("empty block delivered a triple")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A truncated block payload errors without delivering the partially
// decoded triple.
func TestTripleBlockTruncation(t *testing.T) {
	ts := []kg.Triple{
		{Subject: 1, Predicate: 2, Object: kg.EntityValue(3)},
		{Subject: 4, Predicate: 5, Object: kg.StringValue("tail")},
	}
	p := encTripleBlock(nil, ts)
	for cut := len(p) - 1; cut > 5; cut -= 7 {
		delivered := 0
		err := decTripleBlock(p[:cut], func(kg.Triple) error {
			delivered++
			return nil
		})
		if err == nil {
			t.Fatalf("cut at %d decoded cleanly", cut)
		}
		if delivered > 1 {
			t.Fatalf("cut at %d delivered %d triples from a torn two-triple block", cut, delivered)
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
	for start := 0; start < len(ts); start += ckptTripleBlockSize {
		file = appendFrame(file, encTripleBlock(nil, ts[start:min(start+ckptTripleBlockSize, len(ts))]))
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
	batch := make([]kg.Triple, 0, ckptTripleBlockSize*2+37)
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
