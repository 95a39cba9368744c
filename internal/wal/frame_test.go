package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"saga/internal/kg"
)

// appendFrame is the reference framing — payload built on its own, then
// copied behind a freshly computed header — that the manager's in-place
// beginFrame/endFrame pair replaced. Tests frame with it so the bytes on
// disk stay pinned to the format, not to the writer under test.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

func readFile(t testing.TB, fs FS, name string) []byte {
	t.Helper()
	r, err := fs.OpenRead(filepath.Join(testDir, name))
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

// refFactBlock is the reference encoding of one fact block, written from
// the format's description apart from the manager's encoder: the facts'
// LSNs are first on (0 in a checkpoint), and whether a provenance is zero
// or the previous entry's is decided by comparing stored rows.
func refFactBlock(first uint64, facts []kg.Mutation) []byte {
	p := binary.AppendUvarint([]byte{recFactBlock}, first)
	p = binary.AppendUvarint(p, uint64(len(facts)))
	row := func(prov kg.Provenance) kg.FactRow { return kg.RowOf(kg.BoolValue(true), prov) }
	for i, f := range facts {
		v, prov := f.T.Object, f.T.Prov
		mode := byte(3)
		switch {
		case row(prov) == row(kg.Provenance{}):
			mode = 0
		case i > 0 && row(prov) == row(facts[i-1].T.Prov):
			mode = 1
		case prov.ObservedAt.IsZero():
			mode = 2
		}
		h := byte(v.Kind) | mode<<4
		if f.Op == kg.OpRetract {
			h |= 8
		}
		p = append(p, h)
		p = binary.AppendUvarint(p, uint64(f.T.Subject))
		p = binary.AppendUvarint(p, uint64(f.T.Predicate))
		switch v.Kind {
		case kg.KindEntity:
			p = binary.AppendUvarint(p, uint64(v.Entity))
		case kg.KindBool:
			p = binary.AppendUvarint(p, uint64(v.Num))
		case kg.KindString:
			p = binary.AppendUvarint(p, uint64(len(v.Str)))
			p = append(p, v.Str...)
		case kg.KindInt:
			p = binary.AppendVarint(p, v.Num)
		case kg.KindTime:
			p = binary.AppendVarint(p, v.TS.UnixNano())
		case kg.KindFloat:
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v.Flt))
		}
		if mode >= 2 {
			p = binary.AppendUvarint(p, uint64(len(prov.Source)))
			p = append(p, prov.Source...)
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(prov.Confidence))
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(prov.SourceQuality))
			if mode == 3 {
				p = binary.AppendVarint(p, prov.ObservedAt.UnixNano())
			}
		}
	}
	return p
}

// refFactFrames frames facts as the reference fact blocks of at most
// factBlockSize facts each.
func refFactFrames(first uint64, facts []kg.Mutation) []byte {
	var out []byte
	for len(facts) > 0 {
		n := min(len(facts), factBlockSize)
		out = appendFrame(out, refFactBlock(first, facts[:n]))
		if first != 0 {
			first += uint64(n)
		}
		facts = facts[n:]
	}
	return out
}

// refWriter rebuilds, record by record through the reference encoders,
// what a manager must have written: it shadows the manager's dictionary
// cursors and drains its own changefeed at every commit. With fixedWidth
// set it writes facts as the records used before fact blocks, which is
// how the tests build a directory in that format.
type refWriter struct {
	g              *kg.Graph
	feed           *kg.Changefeed
	ont, ent, pred int
	pops           map[kg.EntityID]float64 // popularity as of the previous commit
	fixedWidth     bool
}

func (r *refWriter) segHeader(gen uint64) []byte {
	return appendFrame(nil, encSegHeader(nil, segHeader{version: walVersion, gen: gen, firstLSN: r.feed.Cursor()}))
}

// commit returns the bytes of one commit: dictionary deltas, updates of
// entity records (pops is the script's shadow of every popularity),
// mutations.
func (r *refWriter) commit(t testing.TB, pops map[kg.EntityID]float64) []byte {
	t.Helper()
	muts, complete := r.feed.Pull()
	if !complete {
		t.Fatal("reference feed fell behind the log floor")
	}
	var out []byte
	ont := r.g.Ontology()
	for ; r.ont < ont.Len(); r.ont++ {
		id := kg.TypeID(r.ont + 1)
		out = appendFrame(out, encOntType(nil, ontRec{id: id, name: ont.Name(id), parent: ont.Parent(id)}))
	}
	for ; r.ent < r.g.NumEntities(); r.ent++ {
		out = appendFrame(out, encEntity(nil, r.g.Entity(kg.EntityID(r.ent+1))))
	}
	for ; r.pred < r.g.NumPredicates(); r.pred++ {
		out = appendFrame(out, encPredicate(nil, r.g.Predicate(kg.PredicateID(r.pred+1))))
	}
	// The script's updates only ever raise a popularity, by at least 1
	// from a start below 1, so an entity is dirty when its popularity
	// moved since the last commit — or, registered since, already is >= 1.
	var dirty []kg.EntityID
	for id, p := range pops {
		if old, ok := r.pops[id]; (ok && old != p) || (!ok && p >= 1) {
			dirty = append(dirty, id)
		}
	}
	slices.Sort(dirty)
	for _, id := range dirty {
		out = appendFrame(out, encEntityUpdate(nil, r.g.Entity(id)))
	}
	r.pops = pops
	if r.fixedWidth {
		return append(out, fixedWidthFacts(muts)...)
	}
	if len(muts) > 0 {
		out = append(out, refFactFrames(muts[0].Seq, muts)...)
	}
	return out
}

// checkpoint returns the bytes of a full checkpoint at wm and moves the
// writer past it, as the manager's cursors move.
func (r *refWriter) checkpoint(wm uint64) []byte {
	ts := r.g.AllTriples()
	ont := r.g.Ontology()
	out := appendFrame(nil, encCkptHeader(nil, ckptHeader{
		watermark: wm,
		nEntities: uint64(r.g.NumEntities()),
		nPreds:    uint64(r.g.NumPredicates()),
		nOntTypes: uint64(ont.Len()),
		nTriples:  uint64(len(ts)),
	}))
	for id := kg.TypeID(1); int(id) <= ont.Len(); id++ {
		out = appendFrame(out, encOntType(nil, ontRec{id: id, name: ont.Name(id), parent: ont.Parent(id)}))
	}
	for id := kg.EntityID(1); int(id) <= r.g.NumEntities(); id++ {
		out = appendFrame(out, encEntity(nil, r.g.Entity(id)))
	}
	for id := kg.PredicateID(1); int(id) <= r.g.NumPredicates(); id++ {
		out = appendFrame(out, encPredicate(nil, r.g.Predicate(id)))
	}
	if r.fixedWidth {
		for start := 0; start < len(ts); start += factBlockSize {
			out = appendFrame(out, encTripleBlock(nil, ts[start:min(start+factBlockSize, len(ts))]))
		}
	} else {
		adds := make([]kg.Mutation, len(ts))
		for i, t := range ts {
			adds[i] = kg.Mutation{Op: kg.OpAssert, T: t}
		}
		out = append(out, refFactFrames(0, adds)...)
	}
	r.ont, r.ent, r.pred = ont.Len(), r.g.NumEntities(), r.g.NumPredicates()
	r.feed.Reset(wm)
	return appendFrame(out, encCkptFooter(nil, ckptFooter{watermark: wm, nTriples: uint64(len(ts))}))
}

// TestSegmentBytesMatchReferenceEncoders pins the on-disk format and the
// manager's in-place framing: for a seeded history — entities,
// predicates and ontology types registered mid-stream, entity record
// updates, asserts and retracts of every value kind, provenance with and
// without an observation time — every segment and the checkpoint hold
// exactly the bytes the reference appendFrame(nil, encX(nil, …)) and
// refFactBlock encoders produce for the same records in the same order.
// Commit sizes vary from empty to more than one fact block so the reused
// buffers are exercised empty, regrown and reused.
func TestSegmentBytesMatchReferenceEncoders(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		fs := NewFaultFS(seed)
		g, m, _ := mustOpen(t, fs, Options{Sync: SyncNever})
		s := newScripted(t, g, seed)
		ref := &refWriter{g: g, feed: g.Feed(0), pops: map[kg.EntityID]float64{}}

		commit := func(want []byte) []byte {
			if _, err := m.Commit(); err != nil {
				t.Fatalf("seed %d: Commit: %v", seed, err)
			}
			return append(want, ref.commit(t, s.snapshotPops())...)
		}
		want := ref.segHeader(1)
		want = commit(want) // an empty commit writes nothing
		for _, steps := range []int{1, 7, 0, 300, 2, 1200, 40, 0, 1} {
			for i := 0; i < steps; i++ {
				s.step()
			}
			want = commit(want)
		}
		if got := readFile(t, fs, segName(1)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: segment 1 differs from the reference encoding: %d bytes, want %d", seed, len(got), len(want))
		}
		// The checkpoint snapshots and rotates: segment 2 starts at its
		// watermark.
		wm, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("seed %d: Checkpoint: %v", seed, err)
		}
		if got := readFile(t, fs, ckptName(wm)); !bytes.Equal(got, ref.checkpoint(wm)) {
			t.Fatalf("seed %d: checkpoint bytes differ from the reference encoding (%d bytes)", seed, len(got))
		}
		want2 := ref.segHeader(2)
		for _, steps := range []int{60, 3} {
			for i := 0; i < steps; i++ {
				s.step()
			}
			want2 = commit(want2)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
		if got := readFile(t, fs, segName(2)); !bytes.Equal(got, want2) {
			t.Fatalf("seed %d: segment 2 differs from the reference encoding: %d bytes, want %d", seed, len(got), len(want2))
		}
	}
}
