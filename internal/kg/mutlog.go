package kg

import (
	"slices"
	"sort"
)

// mutLogChunkCap is the capacity of one log chunk: 64 Mutations fill a
// 9 728-byte allocation exactly, small enough that an idle shard of a tiny
// graph wastes little and large enough that a chunk header per 64 entries
// is noise.
const mutLogChunkCap = 64

// mutLog is one shard's slice of the mutation feed, strictly ascending in
// Seq, held as fixed-capacity chunks. Appending never copies an entry
// already logged (a grown []Mutation re-copied every 152-byte entry about
// five times over on its way up), and truncation drops whole chunks
// instead of copying the surviving tail. No chunk is empty; every chunk
// but the last is full to its capacity.
type mutLog struct {
	chunks [][]Mutation
}

// append logs m, whose Seq must exceed every entry's so far.
func (l *mutLog) append(m Mutation) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		l.chunks = append(l.chunks, make([]Mutation, 0, mutLogChunkCap))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], m)
}

// seek returns the position of the first entry with Seq > seq: the chunk
// holding it and its offset inside, or (len(l.chunks), 0) when no entry
// is past seq. Every later entry — the rest of that chunk and all chunks
// after it — is past seq too.
func (l *mutLog) seek(seq uint64) (chunk, off int) {
	// The first chunk whose last entry is past seq holds the boundary.
	chunk = sort.Search(len(l.chunks), func(i int) bool {
		c := l.chunks[i]
		return c[len(c)-1].Seq > seq
	})
	if chunk == len(l.chunks) {
		return chunk, 0
	}
	c := l.chunks[chunk]
	return chunk, sort.Search(len(c), func(i int) bool { return c[i].Seq > seq })
}

// dropThrough discards every entry with Seq <= seq and returns how many
// that was: whole chunks are released, and the chunk the cut lands in is
// trimmed at its head (the dropped slots are zeroed so the triples they
// held stop being reachable through the kept tail's backing array).
func (l *mutLog) dropThrough(seq uint64) int {
	chunk, off := l.seek(seq)
	dropped := off
	for _, c := range l.chunks[:chunk] {
		dropped += len(c)
	}
	if off > 0 {
		c := l.chunks[chunk]
		clear(c[:off])
		l.chunks[chunk] = c[off:]
	}
	l.chunks = slices.Delete(l.chunks, 0, chunk)
	return dropped
}
