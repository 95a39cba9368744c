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
// and arm64). The payload's first byte is the record type. Facts are
// written as fact blocks, whose integers are varints (see appendFact);
// every other record holds fixed-width little-endian integers and
// u32-length-prefixed UTF-8 strings.
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

// Record types (payload byte 0). Types 5, 9 and 11 are read, never
// written: they held facts before fact blocks did, and a directory
// written then still recovers.
const (
	recSegmentHeader    = 1 // version, generation, firstLSN
	recEntity           = 2 // entity-dictionary delta
	recPredicate        = 3 // predicate-dictionary delta
	recOntType          = 4 // ontology-type delta
	recMutation         = 5 // one graph mutation (LSN, op, triple)
	recCheckpointHeader = 6 // watermark, base, expected record counts
	// 7 was a one-triple checkpoint record, written before triple blocks.
	recCheckpointFooter = 8 // watermark + triple count; validity marker
	recTripleBlock      = 9 // checkpointed triples
	// recEntityUpdate is an in-place entity record update (SetPopularity/
	// UpdateEntity): same payload as recEntity, but replay overwrites the
	// existing record (ReplaceEntity) where recEntity verifies-or-
	// registers and never modifies an existing ID.
	recEntityUpdate = 10
	recKeyBlock     = 11 // fact keys a checkpoint retracts from its base
	recFactBlock    = 12 // facts: logged mutations, or a checkpoint's changes
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
//	buf = encEntity(buf, e)
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

func (d *dec) fail(what string) { d.invalid("truncated " + what) }

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

func (d *dec) str() string { return d.bytes(uint64(d.u32())) }

// bytes reads the next n bytes as a string.
func (d *dec) bytes(n uint64) string {
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// varint reads a zigzag varint (binary.AppendVarint's encoding).
func (d *dec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// id reads a uvarint entity or predicate ID, which must fit 32 bits.
func (d *dec) id() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.invalid(fmt.Sprintf("ID %d out of range", v))
	}
	return uint32(v)
}

// invalid latches a malformed-content error; fail, a short read.
func (d *dec) invalid(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", what, d.off)
	}
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

// --- fact blocks ----------------------------------------------------------

// A fact block is the one written form of a fact: a commit frames its
// mutations as fact blocks, and a checkpoint its retracted keys and its
// added facts. Its payload is
//
//	[type][uvarint first LSN][uvarint count][count entries]
//
// where the entries' LSNs are first, first+1, and so on; a checkpoint
// writes 0 and its entries carry no LSN. A block decodes on its own: no
// state carries over from the blocks before it. The entry layout is
// appendFact's.
const (
	// factBlockSize is how many facts share one fact block, in the log
	// and in checkpoints. Large enough to amortize the frame header, CRC
	// pass and scan dispatch to noise; small enough that a torn tail or
	// corrupt frame loses little.
	factBlockSize = 512
	// factBlockBytes ends a block before factBlockSize facts once its
	// facts' strings reach it, so a block of long literals stays far
	// below maxRecordSize.
	factBlockBytes = 1 << 20

	// The entry header byte: the object kind in bits 0-2, factRetract
	// set for a retract, the provenance mode in bits 4-5; bits 6-7 are 0.
	factKindMask  = 0x07
	factRetract   = 0x08
	factProvShift = 4

	// Provenance modes. An entry repeats its predecessor's provenance in
	// the same block with provSame; the explicit modes write it out, with
	// or without ObservedAt.
	provZero       = 0
	provSame       = 1
	provExplicit   = 2
	provExplicitAt = 3

	// minFactSize is the fewest bytes an entry takes — header, subject,
	// predicate and a one-byte object — which bounds a block's count by
	// its payload length.
	minFactSize = 4
)

// appendFactBlocks frames facts as fact blocks of at most factBlockSize
// facts each, fewer where their strings reach factBlockBytes, and
// appends them to buf. fact gives a fact's op, identity and provenance
// (nil for none). facts[0] has LSN first and the rest follow it in LSN
// order; a checkpoint passes 0.
func appendFactBlocks[F any](buf []byte, first uint64, facts []F, fact func(*F) (kg.MutationOp, kg.TripleKey, *kg.Provenance)) []byte {
	for len(facts) > 0 {
		n := min(len(facts), factBlockSize)
		for i, size := 0, 0; i < n; i++ {
			_, k, p := fact(&facts[i])
			if size += len(k.Object.Str); p != nil {
				size += len(p.Source)
			}
			if size >= factBlockBytes {
				n = i + 1
				break
			}
		}
		var at int
		buf, at = beginFrame(buf)
		buf = append(buf, recFactBlock)
		buf = binary.AppendUvarint(buf, first)
		buf = binary.AppendUvarint(buf, uint64(n))
		var prev *kg.Provenance
		for i := range facts[:n] {
			op, k, p := fact(&facts[i])
			buf = appendFact(buf, op, k, p, prev)
			prev = p
		}
		endFrame(buf, at)
		facts = facts[n:]
		if first != 0 {
			first += uint64(n)
		}
	}
	return buf
}

// The fact accessors of the three kinds of list appendFactBlocks frames.
func mutationFact(m *kg.Mutation) (kg.MutationOp, kg.TripleKey, *kg.Provenance) {
	return m.Op, m.T.IdentityKey(), &m.T.Prov
}

func assertedFact(t *kg.Triple) (kg.MutationOp, kg.TripleKey, *kg.Provenance) {
	return kg.OpAssert, t.IdentityKey(), &t.Prov
}

func retractedFact(k *kg.TripleKey) (kg.MutationOp, kg.TripleKey, *kg.Provenance) {
	return kg.OpRetract, *k, nil
}

// appendFact appends one fact-block entry:
//
//	[header][uvarint subject][uvarint predicate][object][provenance]
//
// The object is a uvarint for an entity ID or a bool, a uvarint length
// and the bytes for a string, a zigzag varint for an int or a time (its
// UnixNano), and the 8 little-endian bytes of a float's bits, so NaN
// payloads and -0 survive. The provenance takes no bytes when it is zero
// or the same as prev's, the provenance of the entry before it in the
// block; otherwise it is the source as a uvarint length and bytes, the
// bits of the confidence and of the source quality (8 bytes each) and,
// in mode provExplicitAt, ObservedAt's UnixNano as a zigzag varint.
func appendFact(dst []byte, op kg.MutationOp, k kg.TripleKey, p, prev *kg.Provenance) []byte {
	mode := byte(provExplicitAt)
	switch {
	case p == nil || sameProv(p, &kg.Provenance{}):
		mode = provZero
	case prev != nil && sameProv(p, prev):
		mode = provSame
	case p.ObservedAt.IsZero():
		mode = provExplicit
	}
	h := byte(k.Object.Kind)&factKindMask | mode<<factProvShift
	if op == kg.OpRetract {
		h |= factRetract
	}
	dst = append(dst, h)
	dst = binary.AppendUvarint(dst, uint64(k.Subject))
	dst = binary.AppendUvarint(dst, uint64(k.Predicate))
	switch k.Object.Kind {
	case kg.KindString:
		dst = binary.AppendUvarint(dst, uint64(len(k.Object.Str)))
		dst = append(dst, k.Object.Str...)
	case kg.KindInt, kg.KindTime:
		dst = binary.AppendVarint(dst, k.Object.Num)
	case kg.KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(k.Object.Num))
	default: // entity, bool
		dst = binary.AppendUvarint(dst, uint64(k.Object.Num))
	}
	if mode >= provExplicit {
		dst = binary.AppendUvarint(dst, uint64(len(p.Source)))
		dst = append(dst, p.Source...)
		dst = appendF64(dst, p.Confidence)
		dst = appendF64(dst, p.SourceQuality)
		if mode == provExplicitAt {
			dst = binary.AppendVarint(dst, p.ObservedAt.UnixNano())
		}
	}
	return dst
}

// sameProv reports whether a and b are one provenance as the graph
// stores it (kg.RowOf): the floats compared as bits, ObservedAt as its
// UnixNano.
func sameProv(a, b *kg.Provenance) bool {
	return a.Source == b.Source &&
		floatBits(a.Confidence) == floatBits(b.Confidence) &&
		floatBits(a.SourceQuality) == floatBits(b.SourceQuality) &&
		a.ObservedAt.IsZero() == b.ObservedAt.IsZero() &&
		(a.ObservedAt.IsZero() || a.ObservedAt.UnixNano() == b.ObservedAt.UnixNano())
}

// factBlock decodes the rest of a fact-block payload, appending its
// facts to dst. It decodes the whole block or returns an error.
func (d *dec) factBlock(dst []kg.Mutation) []kg.Mutation {
	first, n := d.uvarint(), d.uvarint()
	switch {
	case d.err != nil:
		return dst
	case n > uint64(len(d.b)-d.off)/minFactSize:
		d.invalid(fmt.Sprintf("count %d in %d bytes", n, len(d.b)-d.off))
		return dst
	case n > 0 && first+n-1 < first:
		d.invalid(fmt.Sprintf("LSNs from %d overflow", first))
		return dst
	}
	dst = slices.Grow(dst, int(n))
	start := len(dst)
	for i := uint64(0); i < n && d.err == nil; i++ {
		m := kg.Mutation{Seq: first + i, Op: kg.OpAssert}
		h := d.u8()
		if h&factRetract != 0 {
			m.Op = kg.OpRetract
		}
		m.T.Subject, m.T.Predicate = kg.EntityID(d.id()), kg.PredicateID(d.id())
		k := kg.ValueKey{Kind: kg.ValueKind(h & factKindMask)}
		switch k.Kind {
		case kg.KindEntity:
			k.Num = int64(d.id())
		case kg.KindBool:
			k.Num = int64(d.uvarint())
		case kg.KindString:
			k.Str = d.bytes(d.uvarint())
		case kg.KindInt, kg.KindTime:
			k.Num = d.varint()
		case kg.KindFloat:
			k.Num = d.i64()
		default:
			d.invalid(fmt.Sprintf("object kind %d", k.Kind))
		}
		m.T.Object = k.Value()
		switch mode := h >> factProvShift; mode {
		case provZero:
		case provSame:
			if len(dst) == start {
				d.invalid("first entry repeats a provenance")
			} else {
				m.T.Prov = dst[len(dst)-1].T.Prov
			}
		case provExplicit, provExplicitAt:
			m.T.Prov.Source = d.bytes(d.uvarint())
			m.T.Prov.Confidence, m.T.Prov.SourceQuality = d.f64(), d.f64()
			if mode == provExplicitAt {
				m.T.Prov.ObservedAt = time.Unix(0, d.varint()).UTC()
			}
		default:
			d.invalid(fmt.Sprintf("entry header %#x", h))
		}
		dst = append(dst, m)
	}
	return dst
}

// decFacts decodes a record that carries facts and appends them to dst
// as mutations. Besides a fact block it reads the records that carried
// facts before fact blocks did: a log's mutation record, read as a block
// of one, and a checkpoint's triple block (asserts) and key block
// (retracts), whose entries carry no LSN. It decodes the whole record or
// returns an error.
func decFacts(p []byte, dst []kg.Mutation) ([]kg.Mutation, error) {
	d := &dec{b: p, off: 1}
	switch p[0] {
	case recFactBlock:
		dst = d.factBlock(dst)
	case recMutation:
		m := kg.Mutation{Seq: d.u64(), Op: kg.MutationOp(d.u8())}
		m.T = d.tripleBody()
		if m.Op != kg.OpAssert && m.Op != kg.OpRetract {
			d.invalid(fmt.Sprintf("op %d", m.Op))
		}
		dst = append(dst, m)
	case recTripleBlock:
		for n := d.u32(); n > 0 && d.err == nil; n-- {
			dst = append(dst, kg.Mutation{Op: kg.OpAssert, T: d.tripleBody()})
		}
	case recKeyBlock:
		for n := d.u32(); n > 0 && d.err == nil; n-- {
			k := d.tripleKey()
			dst = append(dst, kg.Mutation{Op: kg.OpRetract, T: kg.Triple{Subject: k.Subject, Predicate: k.Predicate, Object: k.Object.Value()}})
		}
	default:
		return dst, fmt.Errorf("wal: record type %d holds no facts", p[0])
	}
	return dst, d.done("fact record")
}

// tripleKey and tripleBody read the fact records written before fact
// blocks: a fact's identity — u32 subject and predicate, the object's
// kind byte, 8-byte payload and u32-length-prefixed string — then, in a
// body, the provenance: source, confidence and quality bits, and a flag
// byte followed, when set, by ObservedAt's UnixNano.
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
