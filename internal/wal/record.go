package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"

	"saga/internal/kg"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// On-disk framing: every record is
//
//	[4B LE payload length][4B LE CRC32C(payload)][payload]
//
// with CRC32C the Castagnoli polynomial (hardware-accelerated on amd64
// and arm64). The payload's first byte is the record type; all integers
// are fixed-width little-endian, strings are u32-length-prefixed UTF-8.
// A reader that hits a short header, short payload, or CRC mismatch has
// found a torn tail (or corruption): everything before the offending
// frame is valid, everything from its start offset on is discarded.
const (
	frameHeaderSize = 8
	// maxRecordSize bounds a single payload; a length prefix above it is
	// treated as corruption rather than trusted for allocation.
	maxRecordSize = 1 << 28

	walVersion = 1
)

// Record types (payload byte 0).
const (
	recSegmentHeader    = 1 // version, generation, firstLSN
	recEntity           = 2 // entity-dictionary delta
	recPredicate        = 3 // predicate-dictionary delta
	recOntType          = 4 // ontology-type delta
	recMutation         = 5 // one graph mutation (LSN, op, triple)
	recCheckpointHeader = 6 // watermark, base, expected record counts
	// 7 was a one-triple checkpoint record, written before triple blocks.
	recCheckpointFooter = 8 // watermark + triple count; validity marker
	recTripleBlock      = 9 // many checkpointed triples in one CRC frame
	// recEntityUpdate is an in-place entity record update (SetPopularity/
	// UpdateEntity): same payload as recEntity, but replay overwrites the
	// existing record (ReplaceEntity) where recEntity verifies-or-
	// registers and never modifies an existing ID.
	recEntityUpdate = 10
	recKeyBlock     = 11 // fact keys a checkpoint retracts from its base
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a frame-level integrity failure: the byte offset
// where the valid prefix of the file ends and why the next frame was
// rejected. Recovery truncates at Offset and reports the error as a
// diagnostic rather than failing.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt frame in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Records are framed in place: beginFrame reserves the header at the end
// of dst, the record's encoder appends the payload behind it, and
// endFrame back-fills length and CRC — no per-record payload temporary.
//
//	buf, at := beginFrame(buf)
//	buf = encMutation(buf, mu)
//	endFrame(buf, at)
func beginFrame(dst []byte) (_ []byte, at int) {
	return append(dst, make([]byte, frameHeaderSize)...), len(dst)
}

// endFrame completes the frame begun at offset at of buf; the payload is
// everything appended since.
func endFrame(buf []byte, at int) {
	payload := buf[at+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(payload, crcTable))
}

// scanFrames reads consecutive frames from r, invoking fn with each
// payload (valid only for the duration of the call). It returns the byte
// offset of the end of the last frame that was both intact and accepted
// by fn. A clean EOF at a frame boundary returns a nil error; a torn or
// corrupt frame returns a *CorruptError; an error from fn aborts the scan
// and is returned as-is. In both failure cases good is the start offset
// of the offending frame — truncating there discards it.
func scanFrames(path string, r io.Reader, fn func(payload []byte) error) (good int64, err error) {
	var header [frameHeaderSize]byte
	var buf []byte
	for {
		n, rerr := io.ReadFull(r, header[:])
		if rerr == io.EOF {
			return good, nil
		}
		if rerr != nil {
			return good, &CorruptError{Path: path, Offset: good, Reason: fmt.Sprintf("short frame header (%d bytes)", n)}
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordSize {
			return good, &CorruptError{Path: path, Offset: good, Reason: fmt.Sprintf("implausible payload length %d", length)}
		}
		// The buffer grows with the bytes that arrive, at most doubling,
		// not to the length the header claims: a corrupt length must not
		// allocate hundreds of megabytes ahead of a short payload.
		buf = buf[:0]
		for len(buf) < int(length) {
			step := min(int(length)-len(buf), max(len(buf), 64<<10))
			buf = slices.Grow(buf, step)
			n, rerr := io.ReadFull(r, buf[len(buf):len(buf)+step])
			buf = buf[:len(buf)+n]
			if rerr != nil {
				return good, &CorruptError{Path: path, Offset: good, Reason: fmt.Sprintf("short payload (%d of %d bytes)", len(buf), length)}
			}
		}
		if crc32.Checksum(buf, crcTable) != sum {
			return good, &CorruptError{Path: path, Offset: good, Reason: "CRC mismatch"}
		}
		if ferr := fn(buf); ferr != nil {
			return good, ferr
		}
		good += frameHeaderSize + int64(length)
	}
}

// --- primitive encoders -------------------------------------------------

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, floatBits(f))
}

// --- primitive decoder --------------------------------------------------

// dec is a cursor over one payload; the first decoding failure latches
// into err and every later read returns zero values, so record decoders
// can read field-by-field and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s at byte %d", what, d.off)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) f64() float64 { return floatFromBits(d.u64()) }

func (d *dec) str() string {
	n := d.u32()
	if d.err != nil || d.off+int(n) > len(d.b) || int(n) < 0 {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// done returns the latched error, or an error if trailing bytes remain —
// a record that decodes cleanly must consume its whole payload.
func (d *dec) done(what string) error {
	if d.err != nil {
		return fmt.Errorf("wal: decode %s: %w", what, d.err)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wal: decode %s: %d trailing bytes", what, len(d.b)-d.off)
	}
	return nil
}

// --- record codecs ------------------------------------------------------

type segHeader struct {
	version  uint32
	gen      uint64
	firstLSN uint64
}

func encSegHeader(dst []byte, h segHeader) []byte {
	dst = append(dst, recSegmentHeader)
	dst = binary.LittleEndian.AppendUint32(dst, h.version)
	dst = binary.LittleEndian.AppendUint64(dst, h.gen)
	return binary.LittleEndian.AppendUint64(dst, h.firstLSN)
}

func decSegHeader(p []byte) (segHeader, error) {
	d := &dec{b: p, off: 1}
	h := segHeader{version: d.u32(), gen: d.u64(), firstLSN: d.u64()}
	return h, d.done("segment header")
}

func encEntity(dst []byte, e *kg.Entity) []byte {
	dst = append(dst, recEntity)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.ID))
	dst = appendStr(dst, e.Key)
	dst = appendStr(dst, e.Name)
	dst = appendStr(dst, e.Description)
	dst = appendF64(dst, e.Popularity)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Aliases)))
	for _, a := range e.Aliases {
		dst = appendStr(dst, a)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Types)))
	for _, t := range e.Types {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	}
	return dst
}

func decEntity(p []byte) (kg.Entity, error) {
	d := &dec{b: p, off: 1}
	e := kg.Entity{
		ID:          kg.EntityID(d.u32()),
		Key:         d.str(),
		Name:        d.str(),
		Description: d.str(),
		Popularity:  d.f64(),
	}
	if n := d.u32(); n > 0 && d.err == nil {
		e.Aliases = make([]string, 0, min(int(n), 1024))
		for i := uint32(0); i < n && d.err == nil; i++ {
			e.Aliases = append(e.Aliases, d.str())
		}
	}
	if n := d.u32(); n > 0 && d.err == nil {
		e.Types = make([]kg.TypeID, 0, min(int(n), 1024))
		for i := uint32(0); i < n && d.err == nil; i++ {
			e.Types = append(e.Types, kg.TypeID(d.u32()))
		}
	}
	return e, d.done("entity")
}

// encEntityUpdate frames an entity record update: the recEntity payload
// under the recEntityUpdate type byte.
func encEntityUpdate(dst []byte, e *kg.Entity) []byte {
	start := len(dst)
	dst = encEntity(dst, e)
	dst[start] = recEntityUpdate
	return dst
}

func decEntityUpdate(p []byte) (kg.Entity, error) {
	return decEntity(p)
}

func encPredicate(dst []byte, p *kg.Predicate) []byte {
	dst = append(dst, recPredicate)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.ID))
	dst = appendStr(dst, p.Name)
	dst = append(dst, byte(p.ValueKind))
	if p.Functional {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decPredicate(p []byte) (kg.Predicate, error) {
	d := &dec{b: p, off: 1}
	pr := kg.Predicate{
		ID:        kg.PredicateID(d.u32()),
		Name:      d.str(),
		ValueKind: kg.ValueKind(d.u8()),
	}
	pr.Functional = d.u8() != 0
	return pr, d.done("predicate")
}

type ontRec struct {
	id     kg.TypeID
	name   string
	parent kg.TypeID
}

func encOntType(dst []byte, r ontRec) []byte {
	dst = append(dst, recOntType)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.id))
	dst = appendStr(dst, r.name)
	return binary.LittleEndian.AppendUint32(dst, uint32(r.parent))
}

func decOntType(p []byte) (ontRec, error) {
	d := &dec{b: p, off: 1}
	r := ontRec{id: kg.TypeID(d.u32()), name: d.str(), parent: kg.TypeID(d.u32())}
	return r, d.done("ontology type")
}

// appendTripleBody encodes subject, predicate, object identity, and
// provenance — the shared tail of mutation and checkpoint-triple records.
// The object is stored as its ValueKey, whose Value() round-trip preserves
// identity for every kind (float bit patterns including NaN payloads,
// times as UTC UnixNano — sub-year-1678 / post-2262 instants are outside
// the representable range, like everywhere else UnixNano is used).
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

// appendTripleKey encodes a fact's identity: subject, predicate and the
// object's ValueKey — the head of a triple body, and all of a key block's
// entry.
func appendTripleKey(dst []byte, k kg.TripleKey) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k.Subject))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k.Predicate))
	dst = append(dst, byte(k.Object.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(k.Object.Num))
	return appendStr(dst, k.Object.Str)
}

func (d *dec) tripleKey() kg.TripleKey {
	k := kg.TripleKey{
		Subject:   kg.EntityID(d.u32()),
		Predicate: kg.PredicateID(d.u32()),
	}
	k.Object.Kind = kg.ValueKind(d.u8())
	k.Object.Num = d.i64()
	k.Object.Str = d.str()
	return k
}

func (d *dec) tripleBody() kg.Triple {
	k := d.tripleKey()
	t := kg.Triple{Subject: k.Subject, Predicate: k.Predicate, Object: k.Object.Value()}
	t.Prov.Source = d.str()
	t.Prov.Confidence = d.f64()
	t.Prov.SourceQuality = d.f64()
	if d.u8() != 0 {
		t.Prov.ObservedAt = time.Unix(0, d.i64()).UTC()
	}
	return t
}

func encMutation(dst []byte, m kg.Mutation) []byte {
	dst = append(dst, recMutation)
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = append(dst, byte(m.Op))
	return appendTripleBody(dst, m.T)
}

func decMutation(p []byte) (kg.Mutation, error) {
	d := &dec{b: p, off: 1}
	m := kg.Mutation{Seq: d.u64(), Op: kg.MutationOp(d.u8())}
	m.T = d.tripleBody()
	if err := d.done("mutation"); err != nil {
		return kg.Mutation{}, err
	}
	if m.Op != kg.OpAssert && m.Op != kg.OpRetract {
		return kg.Mutation{}, fmt.Errorf("wal: decode mutation: unknown op %d", m.Op)
	}
	return m, nil
}

// encTripleBlock encodes a batch of checkpointed triples into one
// payload: type byte, u32 count, then the triple bodies back to back.
// Blocks amortize the per-frame cost (8-byte header, one CRC pass, one
// scanFrames round, one type dispatch) over many triples; per-frame
// decode dominated checkpoint recovery when every triple paid it alone.
func encTripleBlock(dst []byte, ts []kg.Triple) []byte {
	dst = append(dst, recTripleBlock)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = appendTripleBody(dst, t)
	}
	return dst
}

// decTripleBlock decodes a triple-block payload, invoking fn per triple.
// A decode failure mid-block aborts before delivering the partially
// decoded triple; an error from fn aborts the block as-is.
func decTripleBlock(p []byte, fn func(kg.Triple) error) error {
	d := &dec{b: p, off: 1}
	n := d.u32()
	for i := uint32(0); i < n; i++ {
		t := d.tripleBody()
		if d.err != nil {
			break
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return d.done("triple block")
}

// encKeyBlock encodes a batch of retracted fact keys into one payload:
// type byte, u32 count, then the keys back to back.
func encKeyBlock(dst []byte, ks []kg.TripleKey) []byte {
	dst = append(dst, recKeyBlock)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ks)))
	for _, k := range ks {
		dst = appendTripleKey(dst, k)
	}
	return dst
}

// decKeyBlock decodes a key-block payload, invoking fn per key, with the
// failure semantics of decTripleBlock.
func decKeyBlock(p []byte, fn func(kg.TripleKey) error) error {
	d := &dec{b: p, off: 1}
	n := d.u32()
	for i := uint32(0); i < n; i++ {
		k := d.tripleKey()
		if d.err != nil {
			break
		}
		if err := fn(k); err != nil {
			return err
		}
	}
	return d.done("key block")
}

// ckptHeader opens a checkpoint. A checkpoint at watermark W with base B
// holds the net change (B, W] over the checkpoint at B — the keys it
// retracts, the facts it adds, and the dictionary entries and entity
// records new or updated since; base 0 means a full checkpoint, which
// retracts nothing. The dictionary counts are totals at W.
type ckptHeader struct {
	watermark uint64
	nEntities uint64
	nPreds    uint64
	nOntTypes uint64
	nTriples  uint64 // facts added
	base      uint64
	nDeleted  uint64 // fact keys retracted
}

func encCkptHeader(dst []byte, h ckptHeader) []byte {
	dst = append(dst, recCheckpointHeader)
	dst = binary.LittleEndian.AppendUint64(dst, h.watermark)
	dst = binary.LittleEndian.AppendUint64(dst, h.nEntities)
	dst = binary.LittleEndian.AppendUint64(dst, h.nPreds)
	dst = binary.LittleEndian.AppendUint64(dst, h.nOntTypes)
	dst = binary.LittleEndian.AppendUint64(dst, h.nTriples)
	dst = binary.LittleEndian.AppendUint64(dst, h.base)
	return binary.LittleEndian.AppendUint64(dst, h.nDeleted)
}

// decCkptHeader also reads the header checkpoints carried before they
// were chained — the first five fields alone — as a full checkpoint.
func decCkptHeader(p []byte) (ckptHeader, error) {
	d := &dec{b: p, off: 1}
	h := ckptHeader{
		watermark: d.u64(),
		nEntities: d.u64(),
		nPreds:    d.u64(),
		nOntTypes: d.u64(),
		nTriples:  d.u64(),
	}
	if d.err == nil && d.off < len(d.b) {
		h.base, h.nDeleted = d.u64(), d.u64()
	}
	return h, d.done("checkpoint header")
}

type ckptFooter struct {
	watermark uint64
	nTriples  uint64
}

func encCkptFooter(dst []byte, f ckptFooter) []byte {
	dst = append(dst, recCheckpointFooter)
	dst = binary.LittleEndian.AppendUint64(dst, f.watermark)
	return binary.LittleEndian.AppendUint64(dst, f.nTriples)
}

func decCkptFooter(p []byte) (ckptFooter, error) {
	d := &dec{b: p, off: 1}
	f := ckptFooter{watermark: d.u64(), nTriples: d.u64()}
	return f, d.done("checkpoint footer")
}
