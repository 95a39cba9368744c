package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saga/internal/embedserve"
	"saga/internal/kg"
	"saga/saga"
)

// memoStrings are the keys and names FuzzEntityRenderMemo registers and
// renames to: strings that need escaping, invalid UTF-8, U+2028, the
// empty string, and two whose renders are longer than the memo keeps.
var memoStrings = []string{
	"plain", `q"uote\back`, "<a&b>", "\xff\xfebad", "line sep", "",
	"tab\tnew\nline\x01", "é漢字", strings.Repeat("x", maxMemoChunk/4), strings.Repeat("<", maxMemoChunk/8),
}

// memoRenders renders every entity of g, and one the dictionary does
// not know, as /query rows, a /related answer and an /annotate answer,
// naming them through names (nil: afresh).
func memoRenders(g *saga.Graph, names *entityMemo) []byte {
	ids := make([]kg.EntityID, 0, g.NumEntities()+1)
	for id := 1; id <= g.NumEntities(); id++ {
		ids = append(ids, kg.EntityID(id))
	}
	ids = append(ids, kg.EntityID(1<<20))
	enc := newRowEncoder(g, []string{"e", "x"})
	enc.names = names
	out := []byte{}
	rel := make([]embedserve.ScoredEntity, 0, len(ids))
	anns := make([]saga.Annotation, 0, len(ids))
	for i, id := range ids {
		out = enc.appendRow(out, []kg.Value{kg.EntityValue(id), kg.IntValue(int64(i))})
		rel = append(rel, embedserve.ScoredEntity{ID: id, Score: float64(i)})
		anns = append(anns, saga.Annotation{Start: i, End: i + 1, Surface: "s", Entity: id, Score: 0.5})
	}
	j := &jsonBuf{b: out, names: names}
	appendRelated(j, g, rel)
	appendAnnotations(j, g, anns)
	return j.b
}

// FuzzEntityRenderMemo drives a dictionary with byte-coded adds,
// renames, record replacements and popularity updates, rendering /query
// rows, /related and /annotate through one server's memo after every
// op: each render must equal a fresh, memo-free render of the current
// records. Each op is three bytes: kind, then two picks (an entity and a
// string, or two strings).
func FuzzEntityRenderMemo(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 1, 0, 4, 2, 1, 5, 3, 0, 9, 0, 8, 9, 1, 2, 8, 0, 6, 7})
	f.Add([]byte{0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5, 0, 1, 6, 0, 1, 7, 1, 0, 0, 1, 1, 1, 2, 6, 6})
	f.Add([]byte{0, 0, 0, 3, 0, 1, 3, 0, 2, 1, 0, 3, 2, 0, 0, 1, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			return
		}
		g := kg.NewGraph()
		var srv Server
		for n := 0; len(ops) >= 3; n++ {
			kind, a, b := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			pick := func() kg.EntityID { return kg.EntityID(1 + a%max(g.NumEntities(), 1)) }
			s := memoStrings[b%len(memoStrings)]
			switch kind % 4 {
			case 0:
				key := memoStrings[a%len(memoStrings)] + strconv.Itoa(n)
				if _, err := g.AddEntity(kg.Entity{Key: key, Name: s}); err != nil {
					t.Fatal(err)
				}
			case 1:
				g.UpdateEntity(pick(), func(e *kg.Entity) { e.Name = s })
			case 2:
				if old := g.Entity(pick()); old != nil {
					if err := g.ReplaceEntity(kg.Entity{ID: old.ID, Key: old.Key, Name: s + "'", Popularity: float64(b)}); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				g.SetPopularity(pick(), float64(b))
			}
			if got, want := memoRenders(g, &srv.names), memoRenders(g, nil); !bytes.Equal(got, want) {
				t.Fatalf("op %d: memo render\n%s\nfresh render\n%s", n, got, want)
			}
		}
	})
}

// One goroutine renames entities while two render them through one
// server's memo: once a rename has returned, no render may show the
// name it replaced. Run it with -race: a slot published before its
// entry and bytes are written is a race the detector reports.
func TestEntityMemoRenameRacesRenders(t *testing.T) {
	const nEnts, renames = 64, 4000
	g := kg.NewGraph()
	ids := make([]kg.EntityID, nEnts)
	renamed := make([]atomic.Int64, nEnts) // the last rename that returned
	for i := range ids {
		id, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("e%d", i), Name: fmt.Sprintf("<e%d> v0", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var srv Server
	var stop atomic.Bool
	var wg, ready sync.WaitGroup
	for range 2 {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			enc := newRowEncoder(g, []string{"e"})
			enc.names = &srv.names
			var row []byte
			for pass := 0; !stop.Load(); pass++ {
				for i, id := range ids {
					floor := renamed[i].Load()
					row = enc.appendRow(row[:0], []kg.Value{kg.EntityValue(id)})
					// {"e":{"key":"eI","name":"<eI> vN"}}
					s := string(row)
					v, err := int64(-1), error(nil)
					if at := strings.LastIndex(s, " v") + 2; at >= 2 && at <= len(s)-3 {
						v, err = strconv.ParseInt(s[at:len(s)-3], 10, 64)
					}
					if err != nil || v < floor {
						t.Errorf("entity %d rendered %s after rename %d returned", i, s, floor)
						stop.Store(true)
					}
				}
				if pass == 0 {
					ready.Done()
				}
			}
		}()
	}
	ready.Wait() // both renderers have filled the memo once
	for k := 1; k <= renames; k++ {
		i := k % nEnts
		g.UpdateEntity(ids[i], func(e *kg.Entity) { e.Name = fmt.Sprintf("<e%d> v%d", i, k) })
		renamed[i].Store(int64(k))
	}
	stop.Store(true)
	wg.Wait()
}

// The memo belongs to its server: after a server over one graph has
// named its entities and a second server over a smaller graph has taken
// its place, the first graph and the records its memo held become
// unreachable. A memo shared by the package would keep the records the
// second server's renders did not overwrite.
func TestEntityMemoReleasesItsGraph(t *testing.T) {
	released := make(chan string, 2)
	for round := range 2 {
		g := kg.NewGraph()
		team, err := g.AddEntity(kg.Entity{Key: "team", Name: "Team"})
		if err != nil {
			t.Fatal(err)
		}
		member, err := g.AddPredicate(kg.Predicate{Name: "memberOf"})
		if err != nil {
			t.Fatal(err)
		}
		var last kg.EntityID
		for i := range 40 - 20*round {
			p, err := g.AddEntity(kg.Entity{Key: fmt.Sprintf("p%d", i), Name: fmt.Sprintf("Person %d", i)})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Assert(kg.Triple{Subject: p, Predicate: member, Object: kg.EntityValue(team)}); err != nil {
				t.Fatal(err)
			}
			last = p
		}
		g.UpdateEntity(last, func(e *kg.Entity) { e.Name = "Renamed" })
		srv := &Server{Platform: saga.New(g)}
		h := srv.Handler()
		body := `{"clauses":[{"subject":{"var":"p"},"predicate":"memberOf","object":{"var":"t"}}]}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"name":"Renamed"`) {
			t.Fatalf("round %d: %d %s", round, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		srv.respond(rec, func(j *jsonBuf) { appendRelated(j, g, []embedserve.ScoredEntity{{ID: team, Score: 1}}) })
		if srv.names.entry(team) == nil || srv.names.entry(last) == nil {
			t.Fatalf("round %d: renders not memoized", round)
		}
		if round == 0 {
			runtime.AddCleanup(g, func(what string) { released <- what }, "graph")
			runtime.AddCleanup(g.Entity(last), func(what string) { released <- what }, "record")
		}
	}
	seen := 0
	for try := 0; seen < 2 && try < 100; try++ {
		runtime.GC()
		select {
		case <-released:
			seen++
		case <-time.After(20 * time.Millisecond):
		}
	}
	if seen < 2 {
		t.Fatalf("%d of the first graph and its memoized record released after 100 collections", seen)
	}
}
