package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"saga/internal/kg"
)

// The writer of the fixed-width records that held facts before fact
// blocks: a mutation record per logged mutation (recMutation), and a
// checkpoint's facts and retracted keys in blocks (recTripleBlock,
// recKeyBlock). The manager only reads them; the tests write them to
// check that a directory in that format recovers.

// appendTripleKey encodes a fact's identity: u32 subject and predicate,
// then the object's ValueKey — kind byte, 8-byte payload and a
// u32-length-prefixed string.
func appendTripleKey(dst []byte, k kg.TripleKey) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k.Subject))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k.Predicate))
	dst = append(dst, byte(k.Object.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(k.Object.Num))
	return appendStr(dst, k.Object.Str)
}

// appendTripleBody encodes a fact's identity and its provenance: source,
// confidence and quality bits, and a flag byte followed, when set, by
// ObservedAt's UnixNano.
func appendTripleBody(dst []byte, t kg.Triple) []byte {
	dst = appendTripleKey(dst, t.IdentityKey())
	dst = appendStr(dst, t.Prov.Source)
	dst = appendF64(dst, t.Prov.Confidence)
	dst = appendF64(dst, t.Prov.SourceQuality)
	if t.Prov.ObservedAt.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.LittleEndian.AppendUint64(dst, uint64(t.Prov.ObservedAt.UnixNano()))
}

func encMutation(dst []byte, m kg.Mutation) []byte {
	dst = append(dst, recMutation)
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = append(dst, byte(m.Op))
	return appendTripleBody(dst, m.T)
}

func encTripleBlock(dst []byte, ts []kg.Triple) []byte {
	dst = append(dst, recTripleBlock)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = appendTripleBody(dst, t)
	}
	return dst
}

func encKeyBlock(dst []byte, ks []kg.TripleKey) []byte {
	dst = append(dst, recKeyBlock)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ks)))
	for _, k := range ks {
		dst = appendTripleKey(dst, k)
	}
	return dst
}

// fixedWidthFacts frames logged mutations as mutation records, one a
// frame.
func fixedWidthFacts(muts []kg.Mutation) []byte {
	var out []byte
	for _, mu := range muts {
		out = appendFrame(out, encMutation(nil, mu))
	}
	return out
}

// sameMutation reports whether a and b log one mutation: the same LSN,
// op and fact, with the object and provenance compared as stored rows.
func sameMutation(a, b kg.Mutation) bool {
	return a.Seq == b.Seq && a.Op == b.Op && a.T.Subject == b.T.Subject && a.T.Predicate == b.T.Predicate &&
		kg.RowOf(a.T.Object, a.T.Prov) == kg.RowOf(b.T.Object, b.T.Prov)
}

// A data directory written entirely in the fixed-width format — a
// full checkpoint of triple blocks, and a segment of dictionary deltas,
// entity record updates and one mutation record per assert or retract of
// every value kind — recovers to the state the history's prefix replays
// to, serves as-of reads across that segment, and takes a delta chained
// to its checkpoint, written, like everything else the manager writes
// from then on, as fact blocks.
func TestFixedWidthDirectoryRecovers(t *testing.T) {
	src := kg.NewGraphWithShards(4)
	s := newScripted(t, src, 61)
	ref := &refWriter{g: src, feed: src.Feed(0), pops: map[kg.EntityID]float64{}, fixedWidth: true}
	for i := 0; i < 300; i++ {
		s.step()
	}
	ref.commit(t, s.snapshotPops()) // the segment a checkpoint retired
	ckptWM := src.LastSeq()
	ckpt := ref.checkpoint(ckptWM)
	seg := ref.segHeader(2)
	for _, steps := range []int{40, 1, 120, 7} {
		for i := 0; i < steps; i++ {
			s.step()
		}
		seg = append(seg, ref.commit(t, s.snapshotPops())...)
	}
	wm := src.LastSeq()
	if types := countTypes(t, seg); types[recMutation] == 0 || types[recEntityUpdate] == 0 || types[recEntity] == 0 || types[recFactBlock] != 0 {
		t.Fatalf("fixed-width segment holds records %v", types)
	}

	fs := NewFaultFS(61)
	writeFile(t, fs, ckptName(ckptWM), ckpt)
	writeFile(t, fs, segName(2), seg)
	g, m, info := mustOpen(t, fs, Options{Sync: SyncEachCommit, RetainCheckpoints: 2})
	if info.CheckpointLSN != ckptWM || info.RecoveredLSN != wm || len(info.Diagnostics) != 0 {
		t.Fatalf("recovered through checkpoint %d to LSN %d (diagnostics %v), want %d and %d", info.CheckpointLSN, info.RecoveredLSN, info.Diagnostics, ckptWM, wm)
	}
	sameTriples(t, replayPrefix(t, src, wm), g)
	sameRecords(t, src, g)

	full, _ := src.Feed(0).Pull()
	asOf := ckptWM + (wm-ckptWM)/2
	base, suffix, err := m.SnapshotAt(asOf)
	if err != nil {
		t.Fatalf("SnapshotAt(%d): %v", asOf, err)
	}
	sameTriples(t, replayPrefix(t, src, ckptWM), base)
	if uint64(len(suffix)) != asOf-ckptWM {
		t.Fatalf("SnapshotAt(%d) read %d suffix mutations, want %d", asOf, len(suffix), asOf-ckptWM)
	}
	for i, mu := range suffix {
		if want := full[ckptWM+uint64(i)]; !sameMutation(mu, want) {
			t.Fatalf("suffix[%d] = %+v, want %+v", i, mu, want)
		}
	}

	// The next checkpoint is a delta over the fixed-width base, and the
	// manager's segments and checkpoint hold fact blocks only.
	s.g = g
	for i := 0; i < 30; i++ {
		if i%10 == 0 {
			if _, err := m.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		s.step()
	}
	wm2, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if base := m.files[wm2].base; base != ckptWM {
		t.Fatalf("checkpoint at %d has base %d, want the fixed-width checkpoint %d", wm2, base, ckptWM)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir(testDir)
	blocks := 0
	for _, n := range names {
		if gen, ok := parseName(n, segPrefix, segSuffix); (ok && gen > 2) || n == ckptName(wm2) {
			types := countTypes(t, readFile(t, fs, n))
			if types[recMutation]+types[recTripleBlock]+types[recKeyBlock] != 0 {
				t.Fatalf("%s holds records %v in the fixed-width format", n, types)
			}
			blocks += types[recFactBlock]
		}
	}
	if blocks == 0 {
		t.Fatal("the manager wrote no fact block")
	}
	g3, m3, _ := mustOpen(t, fs, Options{})
	defer m3.Close()
	sameTriples(t, g, g3)
	sameRecords(t, g, g3)
}

// countTypes counts the records of each type in framed bytes.
func countTypes(t *testing.T, data []byte) map[byte]int {
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
