package server

import (
	"strings"
	"sync"
	"sync/atomic"

	"saga/internal/kg"
	"saga/saga"
)

// entityMemo holds each entity's rendered JSON members
// `"key":…,"name":…`, so that naming an entity in an answer — a /query
// or /subscribe binding, a /related or /annotate entry — appends bytes
// escaped once per record instead of once per row.
//
// An entry keeps the record it was rendered from and is used only while
// that record is the one the dictionary returns: kg publishes a new
// record on every record update (SetPopularity, UpdateEntity,
// ReplaceEntity), so a renamed entity misses and is rendered again. A
// hit takes no lock: the slot table is published through an atomic
// pointer, and a slot is stored after its entry and bytes are written.
// Fills serialize on mu, which also guards the table's growth and the
// byte chunks; two renders racing to fill one slot only render twice.
//
// The bytes sit in append-only chunks: a strings.Builder grown to the
// chunk's size up front never moves its buffer, so a string cut from it
// stays valid while later renders are appended after it, and a full
// chunk is left to the strings cut from it.
//
// A memo belongs to one Server, never to the package: its entries keep
// their records, and so the dictionary of the graph served, alive. The
// zero value is ready to use; a nil memo renders every time.
type entityMemo struct {
	slots atomic.Pointer[[]atomic.Pointer[memoEntry]] // EntityID -> entry

	mu   sync.Mutex      // serializes fills
	buf  strings.Builder // the chunk being filled
	used int             // bytes in the chunks before buf's
}

// memoEntry is one entity's members, rendered from rec.
type memoEntry struct {
	rec     *kg.Entity
	members string
}

// Chunk bounds: a chunk is sized to what the memo already holds, within
// these limits, and a render longer than a quarter of the largest chunk
// is not kept.
const minMemoChunk, maxMemoChunk = 256, 16 << 10

// appendMembers appends `"key":K,"name":N` for id's current record and
// reports whether the dictionary knows id; if it does not, dst is
// returned as it was.
func (m *entityMemo) appendMembers(dst []byte, g *saga.Graph, id kg.EntityID) ([]byte, bool) {
	rec := g.Entity(id)
	if rec == nil {
		return dst, false
	}
	if e := m.entry(id); e != nil && e.rec == rec {
		return append(dst, e.members...), true
	}
	start := len(dst)
	dst = appendJSONString(append(dst, `"key":`...), rec.Key)
	dst = appendJSONString(append(dst, `,"name":`...), rec.Name)
	m.fill(id, rec, dst[start:])
	return dst, true
}

// entry returns id's entry, nil if it has none.
func (m *entityMemo) entry(id kg.EntityID) *memoEntry {
	if m == nil {
		return nil
	}
	if s := m.slots.Load(); s != nil && int(id) < len(*s) {
		return (*s)[id].Load()
	}
	return nil
}

// fill stores members, rendered from rec, as id's entry.
func (m *entityMemo) fill(id kg.EntityID, rec *kg.Entity, members []byte) {
	if m == nil || len(members) > maxMemoChunk/4 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.table(id)
	if old := s[id].Load(); old != nil && old.rec == rec {
		return // a racing render filled it
	}
	s[id].Store(&memoEntry{rec: rec, members: m.intern(members)})
}

// table returns the slot table, first replacing it by a larger copy if
// it has no slot for id. Callers hold mu.
func (m *entityMemo) table(id kg.EntityID) []atomic.Pointer[memoEntry] {
	var s []atomic.Pointer[memoEntry]
	if p := m.slots.Load(); p != nil {
		s = *p
	}
	if int(id) < len(s) {
		return s
	}
	grown := make([]atomic.Pointer[memoEntry], max(2*len(s), int(id)+1, 64))
	for i := range s {
		grown[i].Store(s[i].Load())
	}
	m.slots.Store(&grown)
	return grown
}

// intern returns a copy of b in the chunks. Callers hold mu.
func (m *entityMemo) intern(b []byte) string {
	if m.buf.Cap()-m.buf.Len() < len(b) {
		m.used += m.buf.Len()
		m.buf = strings.Builder{}
		m.buf.Grow(min(max(m.used, minMemoChunk), maxMemoChunk))
	}
	start := m.buf.Len()
	m.buf.Write(b)
	return m.buf.String()[start:]
}
