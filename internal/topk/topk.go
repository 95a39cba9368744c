// Package topk selects the k best of a stream of items without sorting
// the stream: the kNN scans of internal/vecindex and the BM25 search of
// internal/websearch both rank through it.
package topk

import "slices"

// Heap keeps the k best items pushed so far under a caller-supplied total
// order. The kept items form a binary heap with the worst at the root, so
// an item enters only by beating the root, at O(log k). Which items
// survive depends on the order alone, never on the sequence they arrived
// in — provided the order is total (break ties on an identifier).
type Heap[T any] struct {
	k     int
	items []T
	worse func(a, b T) bool
}

// New returns a heap of the best k of at most n items; worse(a, b)
// reports whether a ranks after b.
func New[T any](k, n int, worse func(a, b T) bool) Heap[T] {
	if n < k {
		k = n
	}
	return Heap[T]{k: k, items: make([]T, 0, k), worse: worse}
}

// Full reports whether k items are held; only then is there a Worst.
func (h *Heap[T]) Full() bool { return len(h.items) == h.k }

// Worst returns the worst item held. The heap must be full.
func (h *Heap[T]) Worst() T { return h.items[0] }

// Admits reports whether x would be kept.
func (h *Heap[T]) Admits(x T) bool { return !h.Full() || h.worse(h.items[0], x) }

// Push adds x, which Admits has accepted, evicting the worst if full.
func (h *Heap[T]) Push(x T) {
	if h.Full() {
		h.items[0] = x
		h.siftDown(0)
		return
	}
	h.items = append(h.items, x)
	if h.Full() { // the k-th item: order the heap, once
		for i := h.k/2 - 1; i >= 0; i-- {
			h.siftDown(i)
		}
	}
}

func (h *Heap[T]) siftDown(i int) {
	it := h.items
	for {
		c := 2*i + 1
		if c >= len(it) {
			return
		}
		if c+1 < len(it) && h.worse(it[c+1], it[c]) {
			c++
		}
		if !h.worse(it[c], it[i]) {
			return
		}
		it[i], it[c] = it[c], it[i]
		i = c
	}
}

// Sorted empties the heap into a best-first slice.
func (h *Heap[T]) Sorted() []T {
	it := h.items
	h.items = nil
	slices.SortFunc(it, func(a, b T) int {
		switch {
		case h.worse(b, a):
			return -1
		case h.worse(a, b):
			return 1
		}
		return 0
	})
	return it
}
