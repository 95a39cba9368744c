package kg

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The row and the log entry are the per-fact cost of the graph: a fact
// costs one row in its fact list and, until the log is truncated, one log
// entry. A field added to either shows up here before it shows up in a
// heap profile.
func TestStoredSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(FactRow{}); got != 40 {
		t.Errorf("FactRow is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(logEntry{}); got != 56 {
		t.Errorf("log entry is %d bytes, want 56", got)
	}
	// A chunk must fill its allocation: measure what one costs, taking the
	// least of several rounds so an allocation elsewhere cannot inflate it.
	const n = 64
	chunks := make([][]logEntry, n)
	best := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range chunks {
			chunks[i] = make([]logEntry, 0, mutLogChunkCap)
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	runtime.KeepAlive(chunks)
	if used := uint64(unsafe.Sizeof(logEntry{})) * mutLogChunkCap; best != 4096 || used+8 != best {
		t.Errorf("a chunk of %d entries (%d bytes) takes a %d-byte allocation, want 4096 filled exactly", mutLogChunkCap, used, best)
	}
}

// A time the graph carries as UnixNano must survive the trip: outside
// 1677-2262 UnixNano wraps (1452-04-15 would read back as 2036-11-02), so
// such a time is refused — as an object or as an observation time — and
// nothing of a batch holding one is applied. The range's own ends are
// accepted.
func TestAssertRefusesTimesOutsideTheRange(t *testing.T) {
	g := NewGraph()
	s := mustEntity(t, g, "leonardo", "")
	dob := mustPredicate(t, g, "dateOfBirth")
	lo, hi := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	prov := Provenance{Source: "odke:infobox", ObservedAt: time.Now()}
	for _, tr := range []Triple{
		{Subject: s, Predicate: dob, Object: TimeValue(time.Date(1452, 4, 15, 0, 0, 0, 0, time.UTC))},
		{Subject: s, Predicate: dob, Object: TimeValue(hi.Add(time.Nanosecond))},
		{Subject: s, Predicate: dob, Object: TimeValue(lo.Add(-time.Nanosecond))},
		{Subject: s, Predicate: dob, Object: Value{Kind: KindTime}},
		{Subject: s, Predicate: dob, Object: IntValue(1), Prov: Provenance{ObservedAt: time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)}},
	} {
		if err := g.Assert(tr); err == nil || !strings.Contains(err.Error(), "outside the representable range") {
			t.Fatalf("Assert(%v, observed %v) = %v, want a range error", tr.Object.TS, tr.Prov.ObservedAt, err)
		}
		if _, err := g.AssertBatch([]Triple{{Subject: s, Predicate: dob, Object: IntValue(2)}, tr}); err == nil {
			t.Fatalf("AssertBatch took %v", tr.Object.TS)
		}
	}
	if g.NumTriples() != 0 || g.LastSeq() != 0 {
		t.Fatalf("refused asserts left %d facts at watermark %d", g.NumTriples(), g.LastSeq())
	}
	for _, ts := range []time.Time{lo, hi} {
		want := Triple{Subject: s, Predicate: dob, Object: TimeValue(ts), Prov: prov}
		if err := g.Assert(want); err != nil {
			t.Fatalf("Assert(%v): %v", ts, err)
		}
		if !g.HasFact(s, dob, TimeValue(ts)) {
			t.Fatalf("%v is not in the graph after its assert", ts)
		}
	}
	for _, tr := range g.Facts(s, dob) {
		if !tr.Object.TS.Equal(lo) && !tr.Object.TS.Equal(hi) {
			t.Fatalf("stored %v, asserted only the range's ends", tr.Object.TS)
		}
	}
}

// FuzzFactRow holds the stored row to the Triple it replaces: a fact
// goes into a row and comes back with the same identity key, and with its
// provenance as the write-ahead log returns it — the same Source, the same
// float bit patterns (NaN payloads and signed zeros included) and the same
// instant as a UTC Time without a monotonic reading, so == holds between
// the live and the recovered copy. The row order is ValueKey.Compare, and
// a row rebuilt from its own Triple is the same row.
func FuzzFactRow(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	nan := math.Float64bits(math.NaN())
	f.Add(uint8(0), int64(7), "", uint8(2), int64(7), "", "curated", uint64(0), uint64(0), int64(0), false)
	f.Add(uint8(3), int64(nan), "", uint8(3), int64(0x7ff8000000000001), "", "", nan, negZero, int64(1), true)
	f.Add(uint8(1), int64(0), "a|b\x00c", uint8(1), int64(0), "e:1", "odke:infobox", uint64(0x3fe0000000000000), negZero, int64(-1), true)
	f.Add(uint8(4), int64(math.MinInt64), "", uint8(4), int64(math.MaxInt64), "", "s", uint64(1), uint64(2), int64(math.MinInt64), true)
	f.Add(uint8(5), int64(1), "", uint8(0), int64(1), "", "", uint64(0), uint64(0), int64(0), true)
	f.Fuzz(func(t *testing.T, k1 uint8, n1 int64, s1 string, k2 uint8, n2 int64, s2 string,
		source string, conf, quality uint64, nanos int64, observed bool) {
		v1, v2 := fuzzValue(k1, n1, s1), fuzzValue(k2, n2, s2)
		p := Provenance{Source: source, Confidence: math.Float64frombits(conf), SourceQuality: math.Float64frombits(quality)}
		if observed {
			// A zone other than UTC, as time.Now() carries.
			p.ObservedAt = time.Unix(0, nanos).In(time.FixedZone("X", 5*3600+1800))
		}
		in := Triple{Subject: 3, Predicate: 5, Object: v1, Prov: p}
		row := RowOf(v1, p)
		var out Triple
		row.fill(&out, 3, 5)
		if out.IdentityKey() != in.IdentityKey() || row.Key() != v1.MapKey() {
			t.Fatalf("identity %v came back as %v", in.IdentityKey(), out.IdentityKey())
		}
		got := out.Prov
		if got.Source != p.Source || math.Float64bits(got.Confidence) != conf || math.Float64bits(got.SourceQuality) != quality {
			t.Fatalf("provenance %+v came back as %+v", p, got)
		}
		var wantAt time.Time
		if observed {
			wantAt = time.Unix(0, nanos).UTC()
		}
		if got.ObservedAt != wantAt {
			t.Fatalf("observed at %v came back as %#v, want %#v", p.ObservedAt, got.ObservedAt, wantAt)
		}
		if again := RowOf(out.Object, out.Prov); again != row {
			t.Fatalf("a row rebuilt from its own triple differs: %+v vs %+v", again, row)
		}

		r2 := RowOf(v2, Provenance{})
		rows := []FactRow{row, r2}
		if v1.MapKey().Compare(v2.MapKey()) > 0 {
			rows[0], rows[1] = r2, row
		}
		for _, v := range []Value{v1, v2} {
			i, found := SearchRows(rows, v.MapKey())
			if !found || rows[i].Key() != v.MapKey() {
				t.Fatalf("SearchRows(%v) = %d, %v over %v", v, i, found, rows)
			}
		}
	})
}

// fuzzValue builds a value of every kind from fuzz bytes, times in a
// zone other than UTC so the row has something to normalise.
func fuzzValue(kind uint8, num int64, str string) Value {
	switch kind % 6 {
	case 0:
		return EntityValue(EntityID(uint32(num)))
	case 1:
		return StringValue(str)
	case 2:
		return IntValue(num)
	case 3:
		return FloatValue(math.Float64frombits(uint64(num)))
	case 4:
		return Value{Kind: KindTime, TS: time.Unix(0, num).In(time.FixedZone("Y", -7*3600))}
	default:
		return BoolValue(num&1 == 1)
	}
}
