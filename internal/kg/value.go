package kg

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// ValueKind discriminates the kinds of objects a triple can point at.
// Open-domain KGs mix entity-valued facts (LeBron James -occupation->
// Basketball Player) with literal-valued facts (height, dates, external
// identifiers). The distinction matters downstream: §2 of the paper filters
// literal-valued "non-relevant" facts out of embedding training views.
type ValueKind uint8

const (
	// KindEntity is an object that references another entity in the graph.
	KindEntity ValueKind = iota + 1
	// KindString is a free-text literal.
	KindString
	// KindInt is an integer literal.
	KindInt
	// KindFloat is a floating-point literal.
	KindFloat
	// KindTime is a timestamp literal (dates of birth, release dates...).
	KindTime
	// KindBool is a boolean literal.
	KindBool
)

func (k ValueKind) String() string {
	switch k {
	case KindEntity:
		return "entity"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindTime:
		return "time"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is the object position of a triple: either an entity reference or a
// typed literal. The zero Value is invalid.
type Value struct {
	Kind ValueKind
	// Entity is set when Kind == KindEntity.
	Entity EntityID
	// Str is set when Kind == KindString.
	Str string
	// Num holds KindInt (as int64) and KindBool (0/1).
	Num int64
	// Flt is set when Kind == KindFloat.
	Flt float64
	// TS is set when Kind == KindTime.
	TS time.Time
}

// EntityValue returns a Value referencing an entity.
func EntityValue(id EntityID) Value { return Value{Kind: KindEntity, Entity: id} }

// StringValue returns a string-literal Value.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }

// IntValue returns an integer-literal Value.
func IntValue(n int64) Value { return Value{Kind: KindInt, Num: n} }

// FloatValue returns a float-literal Value.
func FloatValue(f float64) Value { return Value{Kind: KindFloat, Flt: f} }

// TimeValue returns a timestamp-literal Value. A time literal is carried
// as its UnixNano, so only instants from 1677-09-21T00:12:43.145224192Z
// to 2262-04-11T23:47:16.854775807Z can be stored (see TimeInRange); the
// graph refuses to assert any other.
func TimeValue(t time.Time) Value { return Value{Kind: KindTime, TS: t.UTC()} }

// TimeInRange reports whether t's UnixNano denotes t — whether the graph,
// its log and the write-ahead log, which all carry a time as UnixNano,
// can hold it. Outside the range UnixNano wraps around silently.
func TimeInRange(t time.Time) bool { return time.Unix(0, t.UnixNano()).Equal(t) }

// BoolValue returns a boolean-literal Value.
func BoolValue(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.Num = 1
	}
	return v
}

// IsEntity reports whether the value references an entity.
func (v Value) IsEntity() bool { return v.Kind == KindEntity }

// IsLiteral reports whether the value is any literal kind.
func (v Value) IsLiteral() bool { return v.Kind != KindEntity && v.Kind != 0 }

// Bool returns the boolean payload of a KindBool value.
func (v Value) Bool() bool { return v.Kind == KindBool && v.Num != 0 }

// Equal reports deep equality of two values. Time values compare with
// time.Time.Equal so location differences do not break equality.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindEntity:
		return v.Entity == o.Entity
	case KindString:
		return v.Str == o.Str
	case KindInt, KindBool:
		return v.Num == o.Num
	case KindFloat:
		return v.Flt == o.Flt
	case KindTime:
		return v.TS.Equal(o.TS)
	default:
		return false
	}
}

// ValueKey is the comparable identity of a Value: two Values denote the
// same object iff their ValueKeys are equal (with Value.Equal semantics,
// modulo the ±0.0 and NaN-payload caveats float bit patterns imply — the
// same caveats the string Key() encoding has always had). It is a plain
// struct so it can key Go maps with zero allocation, unlike the
// Sprintf-built string keys it replaces on the hot Assert/Retract/HasFact
// paths.
//
// Encoding: Kind discriminates; Num carries the payload for every
// non-string kind (entity ID, int, bool as 0/1, float as IEEE-754 bits,
// time as UnixNano); Str carries string literals. The zero ValueKey is
// the identity of the invalid zero Value.
type ValueKey struct {
	Kind ValueKind
	Num  int64
	Str  string
}

// MapKey returns the comparable identity key of the value.
func (v Value) MapKey() ValueKey {
	switch v.Kind {
	case KindEntity:
		return ValueKey{Kind: KindEntity, Num: int64(v.Entity)}
	case KindString:
		return ValueKey{Kind: KindString, Str: v.Str}
	case KindInt, KindBool:
		return ValueKey{Kind: v.Kind, Num: v.Num}
	case KindFloat:
		return ValueKey{Kind: KindFloat, Num: int64(math.Float64bits(v.Flt))}
	case KindTime:
		return ValueKey{Kind: KindTime, Num: v.TS.UnixNano()}
	default:
		return ValueKey{}
	}
}

// Value reconstructs the Value the key denotes. The round-trip
// v.MapKey().Value() preserves identity (MapKey(v) == MapKey of the
// result) for every kind: float bit patterns (including NaN payloads and
// signed zeros) survive via the IEEE-754 bits, times come back as the
// UTC instant of the stored UnixNano. The predicate-major index uses it
// to enumerate (object, subject) pairs without storing Values twice;
// reconstructed triples carry no provenance.
func (k ValueKey) Value() (v Value) {
	k.fill(&v)
	return v
}

// fill overwrites *v with the Value k denotes, in place (see
// FactRow.fill for why).
func (k ValueKey) fill(v *Value) {
	*v = Value{Kind: k.Kind}
	switch k.Kind {
	case KindEntity:
		v.Entity = EntityID(k.Num)
	case KindString:
		v.Str = k.Str
	case KindInt, KindBool:
		v.Num = k.Num
	case KindFloat:
		v.Flt = math.Float64frombits(uint64(k.Num))
	case KindTime:
		v.TS = time.Unix(0, k.Num).UTC()
	default:
		v.Kind = 0
	}
}

// Compare totally orders value keys (by kind, then numeric payload, then
// string payload), enabling deterministic sorts without materializing
// string keys. The order is arbitrary but stable.
func (k ValueKey) Compare(o ValueKey) int {
	if k.Kind != o.Kind {
		if k.Kind < o.Kind {
			return -1
		}
		return 1
	}
	if k.Num != o.Num {
		if k.Num < o.Num {
			return -1
		}
		return 1
	}
	if k.Str != o.Str {
		if k.Str < o.Str {
			return -1
		}
		return 1
	}
	return 0
}

// Key returns a string that uniquely identifies the value within its kind.
// It is retained for rendering and for callers that need a printable
// identity; index hot paths use the allocation-free MapKey instead.
func (v Value) Key() string {
	switch v.Kind {
	case KindEntity:
		return "e:" + strconv.FormatUint(uint64(v.Entity), 10)
	case KindString:
		return "s:" + v.Str
	case KindInt:
		return "i:" + strconv.FormatInt(v.Num, 10)
	case KindBool:
		return "b:" + strconv.FormatInt(v.Num, 10)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.Flt, 'g', -1, 64)
	case KindTime:
		return "t:" + strconv.FormatInt(v.TS.UnixNano(), 10)
	default:
		return "?"
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindEntity:
		return v.Entity.String()
	case KindString:
		return strconv.Quote(v.Str)
	case KindInt:
		return strconv.FormatInt(v.Num, 10)
	case KindBool:
		return strconv.FormatBool(v.Num != 0)
	case KindFloat:
		return strconv.FormatFloat(v.Flt, 'g', -1, 64)
	case KindTime:
		return v.TS.Format("2006-01-02")
	default:
		return "<invalid>"
	}
}
