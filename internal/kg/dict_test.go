package kg

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// dictKeys are the keys FuzzDictionary registers: repeats come from the
// small set, escapable bytes, invalid UTF-8 and a 4 KB key from its
// tail.
var dictKeys = []string{
	"Q1", "Q2", "Q3", "person7", `a"b`, `back\slash`, "<tag>&", "line\nbreak",
	"\x00ctl", "bad\xffutf8", "sep ", strings.Repeat("k", 4<<10+1),
}

// dictName returns the name op byte b asks for: empty, short or long
// (up to 15 KB), with escapable bytes mixed in.
func dictName(b byte) string {
	switch b % 4 {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf("Name %d <&>", b)
	case 2:
		return strings.Repeat(string(rune('a'+b%26)), int(b)*3)
	default:
		return strings.Repeat("\"x\\", int(b)*20) // up to 15 KB
	}
}

// FuzzDictionary drives the entity and predicate dictionaries with
// byte-coded writes and checks every read against a plain model after
// each: records by ID, key and name, ReadDict's lookups, the Entities
// and Predicates streams, the dirty set, and every key and name string
// a read handed out before, which must still hold the same bytes.
func FuzzDictionary(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 0, 1, 1, 3, 5, 2, 1, 9})
	f.Add([]byte{0, 4, 7, 0, 5, 200, 0, 11, 255, 3, 1, 3, 4, 1, 6, 5, 2, 2, 7, 6, 0})
	f.Add(func() []byte { // enough fresh entities to fill several record chunks
		var b []byte
		for i := byte(0); i < 120; i++ {
			b = append(b, 0, 128+i, i, 1, i%11, 0, i%7, i, 1+4*(i%60))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1200 {
			return
		}
		g := NewGraph()
		type rec struct {
			key, name string
			pop       float64
		}
		ents := []rec{{}}     // by EntityID; 0 unused
		preds := []string{""} // by PredicateID; 0 unused
		dirty := map[EntityID]bool{}
		type handed struct{ got, want string }
		var out []handed // strings read out earlier, with a copy of their bytes
		hand := func(s string) {
			if len(out) < 4096 {
				out = append(out, handed{s, strings.Clone(s)})
			}
		}
		arg := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0
		}

		for i := 0; i < len(ops); i += 3 {
			op, a, b := ops[i], arg(i+1), arg(i+2)
			id := EntityID(int(a) % (len(ents) + 1)) // an unknown ID now and then
			switch op % 7 {
			case 0:
				key := dictKeys[int(a)%len(dictKeys)]
				if a >= 128 {
					key = fmt.Sprintf("fresh%d-%d", i, a)
				}
				got, err := g.AddEntity(Entity{Key: key, Name: dictName(b)})
				want := EntityID(len(ents))
				if i := slices.IndexFunc(ents, func(r rec) bool { return r.key == key }); i > 0 {
					want = EntityID(i)
				} else {
					ents = append(ents, rec{key: key, name: dictName(b)})
				}
				if err != nil || got != want {
					t.Fatalf("AddEntity(%q) = %v, %v; want %v", key, got, err, want)
				}
			case 1:
				name := fmt.Sprintf("p%d", a%9)
				got, err := g.AddPredicate(Predicate{Name: name})
				want := PredicateID(len(preds))
				if i := slices.Index(preds, name); i > 0 {
					want = PredicateID(i)
				} else {
					preds = append(preds, name)
				}
				if err != nil || got != want {
					t.Fatalf("AddPredicate(%q) = %v, %v; want %v", name, got, err, want)
				}
			case 2:
				g.SetPopularity(id, float64(b)/255)
				if id > 0 && int(id) < len(ents) {
					ents[id].pop = float64(b) / 255
					dirty[id] = true
				}
			case 3:
				ok := g.UpdateEntity(id, func(e *Entity) { e.Name = dictName(b); e.Key = "rekeyed" })
				if known := id > 0 && int(id) < len(ents); ok != known {
					t.Fatalf("UpdateEntity(%v) = %v; want %v", id, ok, known)
				}
				if ok {
					ents[id].name = dictName(b)
					dirty[id] = true
				}
			case 4:
				key := "wrong"
				if int(id) < len(ents) && b%4 != 0 {
					key = strings.Clone(ents[id].key)
				}
				err := g.ReplaceEntity(Entity{ID: id, Key: key, Name: dictName(b), Popularity: 0.5})
				if ok := id > 0 && int(id) < len(ents) && key == ents[id].key; (err == nil) != ok {
					t.Fatalf("ReplaceEntity(%v, %q) = %v; want ok %v", id, key, err, ok)
				} else if ok {
					ents[id].name, ents[id].pop = dictName(b), 0.5
				}
			case 5:
				if _, err := g.AddEntity(Entity{Name: "no key"}); err == nil {
					t.Fatal("AddEntity with an empty key succeeded")
				}
			case 6:
				var want []EntityID
				for id := range dirty {
					want = append(want, id)
				}
				slices.Sort(want)
				if got := g.TakeDirtyEntities(); !slices.Equal(got, want) {
					t.Fatalf("TakeDirtyEntities = %v; want %v", got, want)
				}
				clear(dirty)
			}

			// Every read agrees with the model.
			if g.NumEntities() != len(ents)-1 || g.NumPredicates() != len(preds)-1 {
				t.Fatalf("NumEntities %d, NumPredicates %d; want %d, %d",
					g.NumEntities(), g.NumPredicates(), len(ents)-1, len(preds)-1)
			}
			for _, bad := range []EntityID{NoEntity, EntityID(len(ents)), EntityID(len(ents) + 7)} {
				if e := g.Entity(bad); e != nil {
					t.Fatalf("Entity(%v) = %+v for an unregistered ID", bad, e)
				}
			}
			if p := g.Predicate(PredicateID(len(preds))); p != nil || g.Predicate(NoPredicate) != nil {
				t.Fatalf("Predicate of an unregistered ID = %+v", p)
			}
			check := func(what string, e *Entity, id EntityID) {
				m := ents[id]
				if e == nil || e.ID != id || e.Key != m.key || e.Name != m.name || e.Popularity != m.pop {
					t.Fatalf("%s(%v) = %+v; want %+v", what, id, e, m)
				}
				if id == EntityID(len(ents)-1) { // the newest, so the handed strings span every chunk
					hand(e.Key)
					hand(e.Name)
				}
			}
			for id := EntityID(1); int(id) < len(ents); id++ {
				check("Entity", g.Entity(id), id)
				e, ok := g.EntityByKey(ents[id].key)
				if !ok {
					t.Fatalf("EntityByKey(%q) not found", ents[id].key)
				}
				check("EntityByKey", e, id)
			}
			if _, ok := g.EntityByKey("never"); ok {
				t.Fatal(`EntityByKey("never") found a record`)
			}
			next := EntityID(1)
			g.Entities(func(e *Entity) bool {
				check("Entities", e, next)
				next++
				return true
			})
			if int(next) != len(ents) {
				t.Fatalf("Entities streamed %d records; want %d", next-1, len(ents)-1)
			}
			g.ReadDict(func(d DictReader) {
				for id := EntityID(1); int(id) < len(ents); id++ {
					if got, ok := d.EntityID([]byte(ents[id].key)); !ok || got != id {
						t.Fatalf("ReadDict EntityID(%q) = %v, %v; want %v", ents[id].key, got, ok, id)
					}
				}
				for id := PredicateID(1); int(id) < len(preds); id++ {
					if got, ok := d.PredicateID([]byte(preds[id])); !ok || got != id {
						t.Fatalf("ReadDict PredicateID(%q) = %v, %v; want %v", preds[id], got, ok, id)
					}
				}
			})
			for id := PredicateID(1); int(id) < len(preds); id++ {
				p, ok := g.PredicateByName(preds[id])
				if q := g.Predicate(id); q == nil || q.ID != id || q.Name != preds[id] || !ok || p != q {
					t.Fatalf("Predicate(%v) = %+v, PredicateByName = %+v; want %q", id, q, p, preds[id])
				}
			}
			nextP := PredicateID(1)
			g.Predicates(func(p *Predicate) bool {
				if p.ID != nextP || p.Name != preds[nextP] {
					t.Fatalf("Predicates streamed %+v at %v", p, nextP)
				}
				nextP++
				return true
			})
			if int(nextP) != len(preds) {
				t.Fatalf("Predicates streamed %d records; want %d", nextP-1, len(preds)-1)
			}
			for _, h := range out {
				if h.got != h.want {
					t.Fatalf("a string read out earlier changed: now %q, was %q", h.got, h.want)
				}
			}
		}
	})
}

// TestDictionaryConcurrentReadersAndWriters races two writers, each
// registering entities and rewriting its own records, against readers
// that read by ID, by key and by stream: every ID below a length a
// reader saw published has its whole record, and a record is always a
// consistent version. Run it with -race.
func TestDictionaryConcurrentReadersAndWriters(t *testing.T) {
	const perWriter = 3000
	g := NewGraph()
	p := mustPredicate(t, g, "p")
	consistent := func(e *Entity, id EntityID) error {
		if e == nil {
			return fmt.Errorf("entity %v: nil record below the published length", id)
		}
		if e.ID != id || !strings.HasPrefix(e.Name, "name of "+e.Key) || e.Popularity < 0 {
			return fmt.Errorf("entity %v: torn record %+v", id, e)
		}
		return nil
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range perWriter {
				key := fmt.Sprintf("w%d-%d", w, i)
				id, err := g.AddEntity(Entity{Key: key, Name: "name of " + key})
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 1:
					g.SetPopularity(id, float64(i))
				case 2:
					g.UpdateEntity(id, func(e *Entity) { e.Name += " (renamed)" })
				}
				if i%97 == 0 {
					if _, err := g.AddPredicate(Predicate{Name: key}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// The newest entity, published a moment ago, is whole.
				n := EntityID(g.NumEntities())
				if n == 0 {
					continue
				}
				if err := consistent(g.Entity(n), n); err != nil {
					t.Error(err)
					return
				}
				if i%64 != 0 {
					continue
				}
				for id := max(1, n-64); id <= n; id++ {
					e := g.Entity(id)
					if err := consistent(e, id); err != nil {
						t.Error(err)
						return
					}
					if byKey, ok := g.EntityByKey(e.Key); !ok || byKey.ID != id {
						t.Errorf("EntityByKey(%q) = %+v, %v; want ID %v", e.Key, byKey, ok, id)
						return
					}
				}
				if err := g.Assert(Triple{Subject: n, Predicate: p, Object: EntityValue(n)}); err != nil {
					t.Errorf("Assert about the newest entity: %v", err)
					return
				}
				next := EntityID(1)
				g.Entities(func(e *Entity) bool {
					if err := consistent(e, next); err != nil {
						t.Error(err)
						return false
					}
					next++
					return next <= n+8
				})
				if next <= n {
					t.Errorf("Entities streamed %d records after %d were published", next-1, n)
					return
				}
				g.Predicates(func(q *Predicate) bool { return q != nil && q.Name != "" })
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if got := g.NumEntities(); got != 2*perWriter {
		t.Fatalf("NumEntities = %d; want %d", got, 2*perWriter)
	}
}

// BenchmarkEntityLookupParallel reads entity records by ID from every
// processor at once (run it at -cpu 1,2): a lookup takes no lock, so the
// readers share no written cache line.
func BenchmarkEntityLookupParallel(b *testing.B) {
	const n = 20000
	g := NewGraph()
	for i := range n {
		key := fmt.Sprintf("person%d", i)
		if _, err := g.AddEntity(Entity{Key: key, Name: "Name of " + key}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		id := uint32(1)
		for pb.Next() {
			id = id*1664525 + 1013904223 // a scattered walk over the IDs
			if g.Entity(EntityID(1+id%n)) == nil {
				b.Error("unknown entity")
				return
			}
		}
	})
}
