package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"saga/internal/kg"
)

// decodeRecord decodes one payload with the decoder of its type.
func decodeRecord(p []byte) (any, error) {
	switch p[0] {
	case recSegmentHeader:
		return decSegHeader(p)
	case recEntity, recEntityUpdate:
		return decEntity(p)
	case recPredicate:
		return decPredicate(p)
	case recOntType:
		return decOntType(p)
	case recFactBlock:
		return decFacts(p, nil)
	case recCheckpointHeader:
		return decCkptHeader(p)
	case recCheckpointFooter:
		return decCkptFooter(p)
	}
	return nil, nil
}

// Every record that is not a fact block comes back as written, at the
// edges of each field: IDs at 1 and MaxUint32, counts and LSNs up to
// MaxUint64, empty, NUL and 1 MiB strings, a NaN-payload and a -0
// popularity (compared as bits), and no aliases or types as well as
// many.
func TestRecordsRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 1<<20)
	many := make([]string, 1000)
	for i := range many {
		many[i] = strings.Repeat("\x00", i%3)
	}
	entities := []kg.Entity{
		{ID: 1},
		{ID: math.MaxUint32, Key: "k\x00", Name: long, Description: "d", Popularity: math.Float64frombits(0x7ff8_0000_dead_beef),
			Aliases: many, Types: []kg.TypeID{1, math.MaxUint32, 0, 128}},
		{ID: 2, Key: long, Popularity: math.Copysign(0, -1), Aliases: []string{""}, Types: make([]kg.TypeID, 5000)},
	}
	for _, e := range entities {
		for _, p := range [][]byte{encEntity(nil, &e), encEntityUpdate(nil, &e)} {
			got, err := decEntity(p)
			if err != nil {
				t.Fatalf("entity %d (type %d): %v", e.ID, p[0], err)
			}
			if got.ID != e.ID || got.Key != e.Key || got.Name != e.Name || got.Description != e.Description ||
				math.Float64bits(got.Popularity) != math.Float64bits(e.Popularity) ||
				!slices.Equal(got.Aliases, e.Aliases) || !slices.Equal(got.Types, e.Types) {
				t.Fatalf("entity %d (type %d) decoded differently", e.ID, p[0])
			}
		}
	}
	for _, pr := range []kg.Predicate{
		{ID: 1},
		{ID: math.MaxUint32, Name: "p\x00q", ValueKind: kg.KindTime, Functional: true},
		{ID: 7, Name: long, ValueKind: kg.KindFloat},
	} {
		if got, err := decPredicate(encPredicate(nil, &pr)); err != nil || got != pr {
			t.Fatalf("predicate %d decoded as %+v, %v", pr.ID, got, err)
		}
	}
	for _, r := range []ontRec{{id: 1}, {id: math.MaxUint32, name: "t\x00", parent: math.MaxUint32 - 1}, {id: 3, name: long, parent: 1}} {
		if got, err := decOntType(encOntType(nil, r)); err != nil || got != r {
			t.Fatalf("ontology type %d decoded as %+v, %v", r.id, got, err)
		}
	}
	for _, h := range []segHeader{{version: walVersion}, {version: walVersion, gen: math.MaxUint64, firstLSN: math.MaxUint64}} {
		if got, err := decSegHeader(encSegHeader(nil, h)); err != nil || got != h {
			t.Fatalf("segment header %+v decoded as %+v, %v", h, got, err)
		}
	}
	const top = math.MaxUint64
	for _, h := range []ckptHeader{{}, {top, top, top, top, top, top, top}, {watermark: 1 << 40, base: 1 << 39, nDeleted: 1}} {
		if got, err := decCkptHeader(encCkptHeader(nil, h)); err != nil || got != h {
			t.Fatalf("checkpoint header %+v decoded as %+v, %v", h, got, err)
		}
	}
	for _, f := range []ckptFooter{{}, {top, top}} {
		if got, err := decCkptFooter(encCkptFooter(nil, f)); err != nil || got != f {
			t.Fatalf("checkpoint footer %+v decoded as %+v, %v", f, got, err)
		}
	}
}

// Hostile payloads fail to decode: an ID above MaxUint32 in each place an
// ID is read, and alias and type counts beyond the bytes left — refused
// as counts, before anything is sized from them.
func TestRecordsRejectHostileInput(t *testing.T) {
	const big = math.MaxUint32 + 1
	entity := func(id, nAliases, nTypes uint64, types ...uint64) []byte {
		p := binary.LittleEndian.AppendUint64(refStr(refStr(refStr(refUvarints([]byte{recEntity}, id), "k"), ""), ""), 0)
		return refUvarints(refUvarints(refUvarints(p, nAliases), nTypes), types...)
	}
	for _, c := range []struct {
		name, want string
		p          []byte
	}{
		{"entity ID", "out of range", entity(big, 0, 0)},
		{"type ID", "out of range", entity(1, 0, 1, big)},
		{"predicate ID", "out of range", append(refStr(refUvarints([]byte{recPredicate}, big), "p"), 0, 0)},
		{"ontology type ID", "out of range", refUvarints(refStr(refUvarints([]byte{recOntType}, big), "t"), 0)},
		{"ontology parent ID", "out of range", refUvarints(refStr(refUvarints([]byte{recOntType}, 1), "t"), big)},
		{"alias count", "count", append(entity(1, 3, 0), 0)},
		{"huge alias count", "count", entity(1, 1<<62, 0)},
		{"type count", "count", entity(1, 0, 3, 1, 2)},
		{"huge type count", "count", entity(1, 0, math.MaxUint64)},
	} {
		if _, err := decodeRecord(c.p); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v, want one about the %s", c.name, err, c.want)
		}
	}
	// A count the bytes left can hold decodes: three empty aliases.
	p := binary.LittleEndian.AppendUint64(refStr(refStr(refStr(refUvarints([]byte{recEntity}, 1), "k"), ""), ""), 0)
	if e, err := decEntity(append(refUvarints(p, 3), 0, 0, 0, 0)); err != nil || len(e.Aliases) != 3 {
		t.Fatalf("three empty aliases decoded as %q, %v", e.Aliases, err)
	}
}

// A record cut anywhere short of its end fails to decode, whatever its
// type: no record decodes to part of itself.
func TestTruncatedRecordsFail(t *testing.T) {
	muts := []kg.Mutation{
		{Seq: 7, Op: kg.OpAssert, T: kg.Triple{Subject: 1, Predicate: 2, Object: kg.EntityValue(3)}},
		{Seq: 8, Op: kg.OpRetract, T: kg.Triple{Subject: 4, Predicate: 5, Object: kg.StringValue("tail"), Prov: kg.Provenance{Source: "s", Confidence: 0.5}}},
	}
	e := kg.Entity{ID: 300, Key: "key", Name: "name", Description: "d", Popularity: 0.5, Aliases: []string{"a", ""}, Types: []kg.TypeID{1, 200}}
	for _, p := range [][]byte{
		firstPayload(appendFactBlocks(nil, 7, muts, mutationFact)),
		encEntity(nil, &e),
		encEntityUpdate(nil, &e),
		encPredicate(nil, &kg.Predicate{ID: 300, Name: "pred", Functional: true}),
		encOntType(nil, ontRec{id: 300, name: "type", parent: 200}),
		encSegHeader(nil, segHeader{version: walVersion, gen: 300, firstLSN: 1 << 20}),
		encCkptHeader(nil, ckptHeader{watermark: 1 << 20, nEntities: 300, nPreds: 2, nOntTypes: 3, nTriples: 4, base: 1 << 19, nDeleted: 5}),
		encCkptFooter(nil, ckptFooter{watermark: 1 << 20, nTriples: 300}),
	} {
		if _, err := decodeRecord(p); err != nil {
			t.Fatalf("record type %d: %v", p[0], err)
		}
		for cut := len(p) - 1; cut > 0; cut-- {
			if _, err := decodeRecord(p[:cut]); err == nil {
				t.Fatalf("record type %d cut at %d of %d bytes decoded cleanly", p[0], cut, len(p))
			}
		}
	}
}

// A directory in another format — the fixed-width format of version 1,
// or a segment of a version this build does not know — fails Open with an
// error naming the file and no manager, and every file is left as it was:
// an intact header is not a torn write, so there is nothing to repair.
func TestOtherFormatFailsOpenUntouched(t *testing.T) {
	le := binary.LittleEndian
	// Version 1 wrote fixed-width integers and u32-length strings: a
	// segment header of a u32 version and u64 generation and first LSN, an
	// entity record of a u32 ID, and a checkpoint header (type 6) of seven
	// u64 fields.
	v1Seg := func(gen, first uint64) []byte {
		seg := appendFrame(nil, le.AppendUint64(le.AppendUint64(le.AppendUint32([]byte{1}, 1), gen), first))
		ent := le.AppendUint32(le.AppendUint32([]byte{2}, 1), 2)           // ID, key length
		ent = le.AppendUint32(le.AppendUint32(append(ent, "e1"...), 0), 0) // key, no name, no description
		return appendFrame(seg, le.AppendUint32(le.AppendUint32(le.AppendUint64(ent, 0), 0), 0))
	}
	v1Ckpt := []byte{6}
	for _, v := range []uint64{5, 0, 0, 0, 0, 0, 0} {
		v1Ckpt = le.AppendUint64(v1Ckpt, v)
	}
	v1Ckpt = appendFrame(appendFrame(nil, v1Ckpt), le.AppendUint64(le.AppendUint64([]byte{8}, 5), 0))
	next := appendFrame(nil, refUvarints([]byte{1}, walVersion+1, 1, 0))

	for _, c := range []struct {
		name  string
		files map[string][]byte
		want  string // the file the error must name
	}{
		{"version-1 segment", map[string][]byte{segName(1): v1Seg(1, 0)}, segName(1)},
		{"segment of the next version", map[string][]byte{segName(1): next}, segName(1)},
		{"version-1 checkpoint", map[string][]byte{ckptName(5): v1Ckpt}, ckptName(5)},
		{"version-1 directory", map[string][]byte{
			ckptName(5): v1Ckpt, segName(2): v1Seg(2, 5), tmpPrefix + ckptName(9): {1, 2, 3},
		}, ckptName(5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := NewFaultFS(83)
			for name, data := range c.files {
				writeFile(t, fs, name, data)
			}
			m, _, err := Open(testDir, kg.NewGraph(), Options{FS: fs})
			switch {
			case m != nil:
				t.Errorf("Open returned a manager (error %v)", err)
			case err == nil:
				t.Error("Open returned no error")
			case !strings.Contains(err.Error(), c.want):
				t.Errorf("error %q does not name %s", err, c.want)
			}
			if names, _ := fs.ReadDir(testDir); len(names) != len(c.files) {
				t.Errorf("directory holds %v after Open, want the %d files it held", names, len(c.files))
			}
			for name, data := range c.files {
				if got := readFile(t, fs, name); !bytes.Equal(got, data) {
					t.Errorf("Open changed %s: %d bytes, want %d", name, len(got), len(data))
				}
			}
		})
	}
}
