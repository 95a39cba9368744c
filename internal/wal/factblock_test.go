package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"saga/internal/kg"
)

// decodeFrames decodes every fact block framed in data.
func decodeFrames(t *testing.T, data []byte) (muts []kg.Mutation, frames int) {
	t.Helper()
	if _, err := scanFrames("blocks", bytes.NewReader(data), func(p []byte) error {
		frames++
		var err error
		muts, err = decFacts(p, muts)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return muts, frames
}

// sameMutation reports whether a and b log one mutation: the same LSN,
// op and fact, with the object and provenance compared as stored rows.
func sameMutation(a, b kg.Mutation) bool {
	return a.Seq == b.Seq && a.Op == b.Op && a.T.Subject == b.T.Subject && a.T.Predicate == b.T.Predicate &&
		kg.RowOf(a.T.Object, a.T.Prov) == kg.RowOf(b.T.Object, b.T.Prov)
}

// roundTrip encodes facts as fact blocks from LSN first, decodes them and
// requires every fact back as the same stored row, with its op and, in
// the log (first != 0), its LSN.
func roundTrip(t *testing.T, first uint64, facts []kg.Mutation) (frames int) {
	t.Helper()
	got, frames := decodeFrames(t, appendFactBlocks(nil, first, facts, mutationFact))
	if len(got) != len(facts) {
		t.Fatalf("first LSN %d: decoded %d facts, want %d", first, len(got), len(facts))
	}
	for i, want := range facts {
		if first != 0 {
			want.Seq = first + uint64(i)
		} else {
			want.Seq = got[i].Seq
		}
		if !sameMutation(got[i], want) {
			t.Fatalf("first LSN %d, fact %d: decoded %+v, want %+v", first, i, got[i], want)
		}
	}
	return frames
}

// Every value kind and provenance shape comes back from a fact block as
// the same stored row (kg.RowOf, ==): the edge values of each kind under
// every provenance shape, in the log (down to an LSN at MaxUint64) and in
// a checkpoint, then random facts.
func TestFactBlockRoundTrip(t *testing.T) {
	cet := time.FixedZone("CET", 3600)
	at := time.Date(2025, 6, 1, 12, 0, 0, 0, cet)
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	objects := []kg.Value{
		kg.EntityValue(1), kg.EntityValue(math.MaxUint32),
		kg.StringValue(""), kg.StringValue("héllo\x00world"), kg.StringValue(strings.Repeat("x", 1<<20)),
		kg.IntValue(0), kg.IntValue(-1), kg.IntValue(math.MinInt64), kg.IntValue(math.MaxInt64),
		kg.FloatValue(0), kg.FloatValue(negZero), kg.FloatValue(math.NaN()), kg.FloatValue(payloadNaN),
		kg.FloatValue(math.Float64frombits(0xfff0_0000_0000_0001)), kg.FloatValue(math.Inf(-1)),
		kg.TimeValue(time.Unix(0, math.MinInt64)), kg.TimeValue(time.Unix(0, math.MaxInt64)), kg.TimeValue(at),
		kg.BoolValue(false), kg.BoolValue(true),
	}
	provs := []kg.Provenance{
		{},
		{Source: "odke:infobox", Confidence: 0.9, SourceQuality: 0.7},
		{Source: "odke:infobox", Confidence: 0.9, SourceQuality: 0.7}, // repeated
		{Source: "odke:infobox", Confidence: 0.9, SourceQuality: 0.7, ObservedAt: at},
		{Source: "odke:infobox", Confidence: 0.9, SourceQuality: 0.7, ObservedAt: at.UTC()}, // the same instant
		{Source: "odke:text", ObservedAt: time.Now()},                                       // monotonic reading, Local zone
		{Confidence: math.NaN()},
		{Confidence: payloadNaN, SourceQuality: math.Inf(1)},
		{Confidence: negZero}, // not the zero provenance
		{ObservedAt: time.Unix(0, 0)},
		{ObservedAt: time.Unix(0, math.MinInt64)},
		{},
	}
	var facts []kg.Mutation
	for i, o := range objects {
		for j, p := range provs {
			f := kg.Mutation{Op: kg.OpAssert, T: kg.Triple{Subject: 1, Predicate: 1, Object: o, Prov: p}}
			if (i+j)%2 == 1 {
				f.Op, f.T.Subject, f.T.Predicate = kg.OpRetract, math.MaxUint32, math.MaxUint32
			}
			facts = append(facts, f)
		}
	}
	for _, first := range []uint64{1, math.MaxUint64 - uint64(len(facts)) + 1, 0} {
		if frames := roundTrip(t, first, facts); frames < 2 {
			t.Fatalf("%d facts with 1 MiB strings framed as %d block(s); long strings must end a block", len(facts), frames)
		}
	}

	rng := rand.New(rand.NewSource(1))
	pool := provs[:6]
	for round := 0; round < 20; round++ {
		facts = facts[:0]
		for n := rng.Intn(3 * factBlockSize); len(facts) < n; {
			o := kg.Value{Kind: kg.ValueKind(1 + rng.Intn(6)), Num: rng.Int63() >> rng.Intn(64)}
			switch o.Kind {
			case kg.KindEntity:
				o = kg.EntityValue(kg.EntityID(rng.Uint32()))
			case kg.KindString:
				o = kg.StringValue(fmt.Sprint(rng.Int63()))
			case kg.KindFloat:
				o = kg.FloatValue(math.Float64frombits(rng.Uint64()))
			case kg.KindTime:
				o = kg.TimeValue(time.Unix(0, rng.Int63()-rng.Int63()))
			}
			facts = append(facts, kg.Mutation{Op: kg.MutationOp(1 + rng.Intn(2)), T: kg.Triple{
				Subject: kg.EntityID(rng.Uint32() >> rng.Intn(32)), Predicate: kg.PredicateID(rng.Intn(300)),
				Object: o, Prov: pool[rng.Intn(len(pool))],
			}})
		}
		roundTrip(t, 1+rng.Uint64()>>1, facts)
	}
}

// A block's count is bounded by its payload before anything is sized
// from it, and its LSNs may not run past MaxUint64.
func TestFactBlockRejectsUnboundedHeads(t *testing.T) {
	head := func(first, n uint64) []byte {
		p := binary.AppendUvarint([]byte{recFactBlock}, first)
		return append(binary.AppendUvarint(p, n), make([]byte, 64)...)
	}
	for _, p := range [][]byte{head(1, 1<<40), head(1, 17), head(math.MaxUint64, 2)} {
		if got, err := decFacts(p, nil); err == nil || cap(got) != 0 {
			t.Fatalf("head %x: decoded %d facts (capacity %d), err %v", p[:12], len(got), cap(got), err)
		}
	}
}

// A block whose frame is intact but whose mutations do not apply — its
// second mutation retracts a fact that is absent — fails Open, naming the
// segment and the block's offset: the block's first mutation is applied
// by then and cannot be rolled back, so there is no consistent prefix to
// return.
func TestBlockThatDoesNotApplyFailsOpen(t *testing.T) {
	fact := func(seq uint64, op kg.MutationOp, obj string) kg.Mutation {
		return kg.Mutation{Seq: seq, Op: op, T: kg.Triple{Subject: 1, Predicate: 1, Object: kg.StringValue(obj)}}
	}
	seg := appendFrame(nil, encSegHeader(nil, segHeader{version: walVersion, gen: 1}))
	seg = appendFrame(seg, encEntity(nil, &kg.Entity{ID: 1, Key: "e1"}))
	seg = appendFrame(seg, encPredicate(nil, &kg.Predicate{ID: 1, Name: "p1"}))
	seg = appendFrame(seg, refFactBlock(1, []kg.Mutation{fact(1, kg.OpAssert, "x")}))
	offset := len(seg)
	seg = appendFrame(seg, refFactBlock(2, []kg.Mutation{fact(2, kg.OpAssert, "y"), fact(3, kg.OpRetract, "absent"), fact(4, kg.OpAssert, "z")}))

	fs := NewFaultFS(71)
	writeFile(t, fs, segName(1), seg)
	m, _, err := Open(testDir, kg.NewGraph(), Options{FS: fs})
	if err == nil {
		_ = m.Close()
		t.Fatal("Open recovered a graph through a block that does not apply")
	}
	if m != nil {
		t.Fatal("Open returned a manager beside its error")
	}
	if msg := err.Error(); !strings.Contains(msg, segName(1)) || !strings.Contains(msg, fmt.Sprintf("offset %d", offset)) || !strings.Contains(msg, "LSN 3") {
		t.Fatalf("error %q does not name %s, offset %d and LSN 3", msg, segName(1), offset)
	}
}

// A block cut mid-frame ends recovery at the block before it, with a
// diagnostic: none of the cut block's mutations is applied, though all
// but its last byte are on disk.
func TestBlockCutMidFrameEndsAtPreviousBlock(t *testing.T) {
	fs := NewFaultFS(73)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	g.Feed(0)
	s := newScripted(t, g, 73)
	for i := 0; i < 100; i++ {
		s.step()
	}
	acked, err := m.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := g.Assert(kg.Triple{Subject: s.ents[0], Predicate: s.preds[0], Object: kg.StringValue(fmt.Sprintf("cut-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	size := int64(len(readFile(t, fs, segName(1))))
	if err := fs.Truncate(filepath.Join(testDir, segName(1)), size-1); err != nil {
		t.Fatal(err)
	}

	g2, m2, info := mustOpen(t, fs, Options{})
	defer m2.Close()
	if info.RecoveredLSN != acked || len(info.Diagnostics) == 0 || info.TruncatedBytes == 0 {
		t.Fatalf("recovered LSN %d (diagnostics %v, %d bytes truncated), want %d with a diagnostic",
			info.RecoveredLSN, info.Diagnostics, info.TruncatedBytes, acked)
	}
	sameTriples(t, replayPrefix(t, g, acked), g2)
}

// recordTypes counts the records of each type in framed bytes.
func recordTypes(t testing.TB, data []byte) map[byte]int {
	t.Helper()
	types := make(map[byte]int)
	if _, err := scanFrames("bytes", bytes.NewReader(data), func(p []byte) error {
		types[p[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

// writeFile creates the file name in fs's test directory holding data.
func writeFile(t testing.TB, fs FS, name string, data []byte) {
	t.Helper()
	if err := fs.MkdirAll(testDir); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(filepath.Join(testDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

// FuzzReplaySegment feeds recovery arbitrary bytes after a valid segment
// header, seeded with the records a manager wrote (dictionary entries,
// entity record updates and fact blocks), the same cut short mid-block,
// nothing, and an entity record whose alias count exceeds its payload.
// Open returns a graph or an error; it never panics, and sizes nothing
// from a count the payload has not bounded.
func FuzzReplaySegment(f *testing.F) {
	header := appendFrame(nil, refSegHeader(1, 0))
	fs := NewFaultFS(79)
	g, m, _ := mustOpen(f, fs, Options{Sync: SyncNever})
	s := newScripted(f, g, 79)
	for i := 0; i < 120; i++ {
		s.step()
		if i%40 == 39 {
			if _, err := m.Commit(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	seg := readFile(f, fs, segName(1))
	if !bytes.HasPrefix(seg, header) {
		f.Fatal("the manager's segment does not start with the expected header")
	}
	records := seg[len(header):]
	if types := recordTypes(f, records); types[recEntity] == 0 || types[recEntityUpdate] == 0 || types[recFactBlock] == 0 {
		f.Fatalf("the seed segment holds records %v", types)
	}
	f.Add(records)
	f.Add(records[:len(records)-5])
	f.Add([]byte{})
	hostile := binary.LittleEndian.AppendUint64(refStr(refStr(refStr([]byte{recEntity, 1}, "e1"), ""), ""), 0)
	f.Add(appendFrame(nil, binary.AppendUvarint(hostile, 1<<16))) // 65 536 aliases in no bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewFaultFS(1)
		writeFile(t, fs, segName(1), append(header[:len(header):len(header)], data...))
		if m, _, err := Open(testDir, kg.NewGraph(), Options{FS: fs}); err == nil {
			_ = m.Close()
		}
	})
}
