package kg

import (
	"hash/maphash"
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

// key returns the identity of the fact e records.
func (e *logEntry) key() TripleKey {
	return TripleKey{Subject: e.subj, Predicate: e.pred, Object: e.row.Key()}
}

// compare orders e and o by the identity of the facts they record.
func (e *logEntry) compare(o *logEntry) int { return e.key().Compare(o.key()) }

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

// NetChange is the net effect of a window of the mutation log on the
// fact set: what a record of the state at the window's start needs
// applied — Retracted removed, then Asserted added — to become the state
// at its end. Both lists are in identity order.
type NetChange struct {
	// Retracted holds the identity of every fact present at the window's
	// start that the window retracted. A fact retracted and re-asserted
	// in the window is in both lists: a retract's log entry carries the
	// caller's provenance, not the stored one, so whether the provenance
	// changed is unknown.
	Retracted []TripleKey
	// Asserted holds every fact present at the window's end that the
	// window asserted, with its stored provenance.
	Asserted []Triple
	// Facts is the number of facts at the window's end.
	Facts int
}

// NetChangeSince folds the log window (base, wm] into its net change,
// where wm is the watermark of the all-shard cut the fold runs under. ok
// is false when the window is no longer in memory (LogFloor() > base).
//
// A fact's log entries alternate assert and retract — an assert is
// logged only if it added the fact, a retract only if it removed one — so
// the first entry of a fact in the window says whether it was present at
// base (a retract) or not (an assert), and the last whether it is present
// at wm. The fold groups the stored entries by a hash of their fact and
// builds Triples and keys only for the net change: sorting machine words
// instead of comparing facts keeps the cut held for a fraction of what a
// comparison sort of the window takes.
func (g *Graph) NetChangeSince(base uint64) (ch NetChange, wm uint64, ok bool) {
	g.rlockAll()
	defer g.runlockAll()
	wm = g.seq.Load()
	if g.logFloor.Load() > base {
		return NetChange{}, wm, false
	}
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		ch.Facts += sh.triples
		c, off := sh.log.seek(base)
		for _, chunk := range sh.log.chunks[c:] {
			n += len(chunk)
		}
		n -= off
	}
	// Each entry as one word: the upper half of its fact's hash over its
	// position in win. Positions follow shard order, and a fact lives in
	// one shard, whose entries are in seq order, so a stable sort of the
	// words on their upper halves groups each fact's entries in seq order.
	win := make([]*logEntry, 0, n)
	words := make([]uint64, 0, n)
	for i := range g.shards {
		sh := &g.shards[i]
		c, off := sh.log.seek(base)
		for ; c < len(sh.log.chunks); c, off = c+1, 0 {
			chunk := sh.log.chunks[c]
			for j := off; j < len(chunk); j++ {
				e := &chunk[j]
				words = append(words, maphash.Comparable(netSeed, e.key())&^0xffffffff|uint64(len(win)))
				win = append(win, e)
			}
		}
	}
	words = radixSortHigh(words)

	// Fold each fact's entries. Facts whose hashes collide share a group;
	// a stable sort by identity splits it.
	entry := func(w uint64) *logEntry { return win[uint32(w)] }
	byIdentity := func(x, y uint64) int { return entry(x).compare(entry(y)) }
	var dels, adds []*logEntry
	for lo := 0; lo < len(words); {
		hi := lo + 1
		for hi < len(words) && words[hi]>>32 == words[lo]>>32 {
			hi++
		}
		group := words[lo:hi]
		slices.SortStableFunc(group, byIdentity)
		for i := 0; i < len(group); {
			first, j := entry(group[i]), i+1
			for j < len(group) && entry(group[j]).key() == first.key() {
				j++
			}
			if first.row.op == OpRetract {
				dels = append(dels, first)
			}
			if last := entry(group[j-1]); last.row.op == OpAssert {
				adds = append(adds, last)
			}
			i = j
		}
		lo = hi
	}
	slices.SortFunc(dels, (*logEntry).compare)
	slices.SortFunc(adds, (*logEntry).compare)
	ch.Retracted = make([]TripleKey, len(dels))
	for i, e := range dels {
		ch.Retracted[i] = e.key()
	}
	ch.Asserted = make([]Triple, len(adds))
	for i, e := range adds {
		e.row.fill(&ch.Asserted[i], e.subj, e.pred)
	}
	return ch, wm, true
}

// netSeed seeds the fact hash NetChangeSince groups by.
var netSeed = maphash.MakeSeed()

// radixSortHigh sorts words on their upper 32 bits, 16 bits a pass,
// keeping words with equal upper halves in their order, and returns the
// sorted slice (words or the scratch it allocates).
func radixSortHigh(words []uint64) []uint64 {
	tmp := make([]uint64, len(words))
	counts := make([]int, 1<<16)
	for shift := 32; shift < 64; shift += 16 {
		clear(counts)
		for _, w := range words {
			counts[w>>shift&0xffff]++
		}
		at := 0
		for b, c := range counts {
			counts[b] = at
			at += c
		}
		for _, w := range words {
			b := w >> shift & 0xffff
			tmp[counts[b]] = w
			counts[b]++
		}
		words, tmp = tmp, words
	}
	return words
}
