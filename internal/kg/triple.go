package kg

import (
	"fmt"
	"strconv"
	"time"
)

// Provenance records where a fact came from and how much we trust it.
// The ODKE corroboration model (§4 of the paper) consumes these fields as
// features: extractor type and confidence, source quality, and recency.
type Provenance struct {
	// Source names the origin: a curated feed, an extractor id, a device
	// source ("contacts", "calendar"), etc.
	Source string
	// Confidence in [0,1] as reported by the producing system.
	Confidence float64
	// ObservedAt is when the fact was ingested or extracted.
	ObservedAt time.Time
	// SourceQuality in [0,1] is a prior on the source (page quality for web
	// extraction, feed trust for curated sources).
	SourceQuality float64
}

// Triple is a single fact: subject, predicate, object, with provenance.
// It is the form facts go into and come out of the graph in; the graph
// stores each one as a FactRow and builds Triples from rows on reads.
type Triple struct {
	Subject   EntityID
	Predicate PredicateID
	Object    Value
	Prov      Provenance
}

// TripleKey is the comparable (subject, predicate, object) identity of a
// triple, ignoring provenance. Two triples with equal TripleKeys assert
// the same fact. It is the graph's notion of fact identity and keys
// materialized-view indexes without the per-operation string build SPO()
// requires.
type TripleKey struct {
	Subject   EntityID
	Predicate PredicateID
	Object    ValueKey
}

// Compare totally orders triple keys by subject, predicate, then object
// key. The order is arbitrary but stable.
func (k TripleKey) Compare(o TripleKey) int {
	if k.Subject != o.Subject {
		if k.Subject < o.Subject {
			return -1
		}
		return 1
	}
	if k.Predicate != o.Predicate {
		if k.Predicate < o.Predicate {
			return -1
		}
		return 1
	}
	return k.Object.Compare(o.Object)
}

// IdentityKey returns the triple's comparable SPO identity.
func (t Triple) IdentityKey() TripleKey {
	return TripleKey{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object.MapKey()}
}

// SPO returns the (subject, predicate, object-key) identity of the triple
// as a printable string, ignoring provenance. Hot paths use IdentityKey;
// SPO remains for rendering and debugging.
func (t Triple) SPO() string {
	return strconv.FormatUint(uint64(t.Subject), 10) + "|" +
		strconv.FormatUint(uint64(t.Predicate), 10) + "|" + t.Object.Key()
}

func (t Triple) String() string {
	return fmt.Sprintf("(%s, %s, %s)", t.Subject, t.Predicate, t.Object)
}

// MutationOp is the kind of change recorded in the mutation log.
type MutationOp uint8

const (
	// OpAssert adds a fact.
	OpAssert MutationOp = iota + 1
	// OpRetract removes a fact.
	OpRetract
)

func (op MutationOp) String() string {
	switch op {
	case OpAssert:
		return "assert"
	case OpRetract:
		return "retract"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Mutation is one entry of the graph's mutation log, as a Changefeed
// hands it out (the log itself stores compact entries,
// see mutlog.go). The log gives downstream consumers (adjacency
// snapshots, derived rules, the WAL, subscriptions) a totally ordered
// change feed, which is how Saga's streaming construction path exposes
// updates.
type Mutation struct {
	// Seq is the 1-based sequence number of the mutation.
	Seq uint64
	Op  MutationOp
	T   Triple
}
