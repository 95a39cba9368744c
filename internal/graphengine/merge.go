package graphengine

import (
	"cmp"
	"slices"

	"saga/internal/kg"
)

// The one sorted merge behind every layered read: the Overlay
// ((base ∖ dels) ∪ adds, as-of and derived alike) and the incremental CSR
// rebuild (row ∪ adds ∖ dels) both enumerate a sorted base with a sorted
// delta folded in, so the result is in the same canonical order a
// from-scratch build of the same facts would have.

// cmpObject orders fact-list entries the way kg.Graph stores them: by
// object ValueKey.
func cmpObject(a, b kg.Triple) int { return a.Object.MapKey().Compare(b.Object.MapKey()) }

// cmpEntity orders posting entries the way kg.Graph stores them: by ID.
func cmpEntity(a, b kg.EntityID) int { return cmp.Compare(a, b) }

// mergeSorted appends (prev ∖ dels) ∪ adds to out in cmp order. All three
// inputs are sorted by cmp and duplicate-free. An element of adds equal
// to a surviving element of prev collapses into it (prev's copy is kept);
// equal to a deleted one, it takes its place. Entries of dels that match
// nothing in prev are ignored.
func mergeSorted[T any](out, prev, adds, dels []T, cmp func(a, b T) int) []T {
	for _, n := range prev {
		for len(adds) > 0 && cmp(adds[0], n) < 0 {
			out = append(out, adds[0])
			adds = adds[1:]
		}
		for len(dels) > 0 && cmp(dels[0], n) < 0 {
			dels = dels[1:]
		}
		deleted := len(dels) > 0 && cmp(dels[0], n) == 0
		if len(adds) > 0 && cmp(adds[0], n) == 0 {
			if deleted {
				n, deleted = adds[0], false
			}
			adds = adds[1:]
		}
		if !deleted {
			out = append(out, n)
		}
	}
	return append(out, adds...)
}

// upTo returns how many leading elements of sorted s are <= last.
func upTo[T any](s []T, last T, cmp func(a, b T) int) int {
	n, found := slices.BinarySearchFunc(s, last, cmp)
	if found {
		n++
	}
	return n
}

// layeredChunks streams (base ∖ dels) ∪ adds to fn in cmp order, as
// chunks. base runs the base layer's chunked read through the callback it
// is handed; each chunk it delivers is merged with the adds and dels that
// sort at or before the chunk's last element, and whatever adds remain
// trail the final base chunk (so a chunk can exceed the base's chunk size
// by the adds folded into it). The base read's guarantee carries over:
// the stream is strictly ascending, so nothing is delivered twice. With
// no delta the base streams straight through.
func layeredChunks[T any](adds, dels []T, cmp func(a, b T) int, base func(fn func([]T) bool), fn func([]T) bool) {
	if len(adds) == 0 && len(dels) == 0 {
		base(fn)
		return
	}
	var buf []T
	stopped := false
	base(func(chunk []T) bool {
		last := chunk[len(chunk)-1]
		a, d := upTo(adds, last, cmp), upTo(dels, last, cmp)
		buf = mergeSorted(buf[:0], chunk, adds[:a], dels[:d], cmp)
		adds, dels = adds[a:], dels[d:]
		stopped = len(buf) > 0 && !fn(buf)
		return !stopped
	})
	if !stopped && len(adds) > 0 {
		fn(adds)
	}
}
