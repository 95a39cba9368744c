package kg

import (
	"slices"
	"sort"
)

// logEntry is one mutation as the log stores it: 56 bytes on a 64-bit
// platform, against the 144 of the Mutation built from it at the read
// edge. The row's op field holds the mutation's op.
type logEntry struct {
	seq  uint64
	subj EntityID
	pred PredicateID
	row  FactRow
}

// fill overwrites *m with the mutation e records.
func (e *logEntry) fill(m *Mutation) {
	m.Seq, m.Op = e.seq, e.row.op
	e.row.fill(&m.T, e.subj, e.pred)
}

// mutLogChunkCap is the capacity of one log chunk: 73 entries of 56 bytes
// plus the 8-byte header the Go allocator puts in front of a pointerful
// object over 512 bytes fill the 4 096-byte size class exactly — small
// enough that an idle shard of a tiny graph wastes little, large enough
// that a chunk header per 73 entries is noise.
const mutLogChunkCap = 73

// mutLog is one shard's slice of the mutation feed, strictly ascending in
// seq, held as fixed-capacity chunks. Appending never copies an entry
// already logged (a grown slice re-copies every entry about five times
// over on its way up), and truncation drops whole chunks instead of
// copying the surviving tail. No chunk is empty; every chunk but the last
// is full to its capacity.
type mutLog struct {
	chunks [][]logEntry
}

// append logs e, whose seq must exceed every entry's so far.
func (l *mutLog) append(e logEntry) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		l.chunks = append(l.chunks, make([]logEntry, 0, mutLogChunkCap))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], e)
}

// seek returns the position of the first entry with seq > seq: the chunk
// holding it and its offset inside, or (len(l.chunks), 0) when no entry
// is past seq. Every later entry — the rest of that chunk and all chunks
// after it — is past seq too.
func (l *mutLog) seek(seq uint64) (chunk, off int) {
	// The first chunk whose last entry is past seq holds the boundary.
	chunk = sort.Search(len(l.chunks), func(i int) bool {
		c := l.chunks[i]
		return c[len(c)-1].seq > seq
	})
	if chunk == len(l.chunks) {
		return chunk, 0
	}
	c := l.chunks[chunk]
	return chunk, sort.Search(len(c), func(i int) bool { return c[i].seq > seq })
}

// dropThrough discards every entry with seq <= seq and returns how many
// that was: whole chunks are released, and the chunk the cut lands in is
// trimmed at its head (the dropped slots are zeroed so the strings and
// provenance handles they held stop being reachable through the kept
// tail's backing array).
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
