package kg

import (
	"math"
	"time"
	"unique"
)

// FactRow is the stored form of a fact: what a (subject, predicate) fact
// list, a mutation-log entry and a graphengine.FactSet hold in place of a
// Triple, which is built from the row at the read edge. Every holder keys
// its rows by subject and predicate, so the row leaves them out. The
// object is its identity key laid out flat — kind, the 8-byte payload
// every kind but a string uses, and a string header only string literals
// fill — and the provenance is an interned handle. A row is 40 bytes on a
// 64-bit platform; the Triple it stands for is 128.
//
// Rows order by object key exactly as ValueKey.Compare orders the keys
// they carry, which is the canonical fact-list order.
type FactRow struct {
	num  int64                  // ValueKey.Num
	str  string                 // ValueKey.Str
	prov unique.Handle[provKey] // the zero handle is the zero Provenance
	kind ValueKind              // ValueKey.Kind
	// op is the mutation a log entry records. The rows of fact lists and
	// fact sets leave it zero; it sits in what would otherwise be padding
	// after kind, which is what keeps a log entry at 56 bytes.
	op MutationOp
}

// provKey is a Provenance in the form it is interned: the floats as their
// IEEE-754 bits (so NaN payloads and signed zeros survive, and two bit
// patterns are two keys) and the observation time rebuilt from its
// UnixNano as a UTC Time with no monotonic reading, whose representation
// is unique per instant — so == on keys is equality of provenances, and a
// read copies the time out instead of rebuilding it. The handles are
// weak: a provenance no row refers to any more is collected, so the
// distinct provenances of retracted extractions do not pile up.
type provKey struct {
	source        string
	conf, quality uint64
	at            time.Time
}

// RowOf returns the stored row of a fact with object obj and provenance
// p. ObservedAt is kept as its instant in UTC, without a monotonic clock
// reading — the form a graph recovered from the write-ahead log holds it
// in — so the live and the recovered copy of a fact are ==.
func RowOf(obj Value, p Provenance) FactRow { return rowOf(obj.MapKey(), p) }

func rowOf(k ValueKey, p Provenance) FactRow {
	r := FactRow{num: k.Num, str: k.Str, kind: k.Kind}
	pk := provKey{source: p.Source, conf: math.Float64bits(p.Confidence), quality: math.Float64bits(p.SourceQuality)}
	if !p.ObservedAt.IsZero() {
		pk.at = time.Unix(0, p.ObservedAt.UnixNano()).UTC()
	}
	if pk != (provKey{}) {
		r.prov = unique.Make(pk)
	}
	return r
}

// Key returns the row's object identity key.
func (r *FactRow) Key() ValueKey { return ValueKey{Kind: r.kind, Num: r.num, Str: r.str} }

// Triple returns the fact the row stores under subject subj and
// predicate pred: the object is the Value the row's key denotes (see
// ValueKey.Value).
func (r *FactRow) Triple(subj EntityID, pred PredicateID) (t Triple) {
	r.fill(&t, subj, pred)
	return t
}

// fill overwrites *t with the fact the row stores under (subj, pred). The
// graph's reads fill their destination — a visitor's one Triple, a
// result slot — in place: assembling a Triple from a separately built
// Value and Provenance and copying it on costs more than the rest of a
// read.
func (r *FactRow) fill(t *Triple, subj EntityID, pred PredicateID) {
	t.Subject, t.Predicate = subj, pred
	r.Key().fill(&t.Object)
	if r.prov == (unique.Handle[provKey]{}) {
		t.Prov = Provenance{}
		return
	}
	// Field by field: a composite literal is assembled on the stack and
	// copied over with wider loads than its stores, which stalls.
	pk := r.prov.Value()
	t.Prov.Source = pk.source
	t.Prov.Confidence = math.Float64frombits(pk.conf)
	t.Prov.SourceQuality = math.Float64frombits(pk.quality)
	t.Prov.ObservedAt = pk.at
}

// SearchRows returns where the row with object key k sits in rows sorted
// by object key, or where it would be inserted, and whether it is there.
func SearchRows(rows []FactRow, k ValueKey) (int, bool) {
	i, j := 0, len(rows)
	for i < j {
		h := int(uint(i+j) >> 1)
		if rows[h].Key().Compare(k) < 0 {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(rows) && rows[i].Key() == k
}
