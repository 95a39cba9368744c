package wal

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"saga/internal/kg"
)

const testDir = "/w"

func mustOpen(t testing.TB, fs FS, opts Options) (*kg.Graph, *Manager, *RecoveryInfo) {
	t.Helper()
	opts.FS = fs
	g := kg.NewGraphWithShards(4)
	m, info, err := Open(testDir, g, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return g, m, info
}

// scripted drives a deterministic mixed workload (dictionary growth,
// asserts across every value kind including NaN floats and zero
// observation times, retracts) so a seed fully determines the mutation
// history. Graph-level errors are fatal: the script only references IDs
// it registered.
type scripted struct {
	t     testing.TB
	g     *kg.Graph
	rng   *rand.Rand
	ents  []kg.EntityID
	preds []kg.PredicateID
	types []kg.TypeID
	live  []kg.Triple
	// pop shadows every entity's current popularity. Updates are strictly
	// monotone per entity, so a crash-recovered record can be bounded:
	// at least the value at the last acknowledged commit, at most the
	// final value written.
	pop map[kg.EntityID]float64
	n   int
}

func newScripted(t testing.TB, g *kg.Graph, seed int64) *scripted {
	return &scripted{t: t, g: g, rng: rand.New(rand.NewSource(seed)), pop: make(map[kg.EntityID]float64)}
}

// snapshotPops copies the per-entity popularity shadow, for capturing
// the acknowledged state at a durability boundary.
func (s *scripted) snapshotPops() map[kg.EntityID]float64 {
	out := make(map[kg.EntityID]float64, len(s.pop))
	for id, p := range s.pop {
		out[id] = p
	}
	return out
}

var scriptEpoch = time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)

func (s *scripted) addEntity() {
	e := kg.Entity{
		Key:        fmt.Sprintf("e%04d", len(s.ents)),
		Name:       fmt.Sprintf("Entity %d", len(s.ents)),
		Popularity: float64(len(s.ents)%7) / 7,
	}
	if len(s.ents)%3 == 0 {
		e.Aliases = []string{fmt.Sprintf("alias-%d", len(s.ents)), ""}
		e.Description = "a scripted entity"
	}
	if len(s.types) > 0 {
		e.Types = []kg.TypeID{s.types[s.rng.Intn(len(s.types))]}
	}
	id, err := s.g.AddEntity(e)
	if err != nil {
		s.t.Fatalf("AddEntity: %v", err)
	}
	s.ents = append(s.ents, id)
	s.pop[id] = e.Popularity
}

func (s *scripted) addPredicate() {
	p := kg.Predicate{
		Name:       fmt.Sprintf("p%03d", len(s.preds)),
		Functional: len(s.preds)%2 == 0,
	}
	id, err := s.g.AddPredicate(p)
	if err != nil {
		s.t.Fatalf("AddPredicate: %v", err)
	}
	s.preds = append(s.preds, id)
}

func (s *scripted) addType() {
	parent := kg.NoType
	if len(s.types) > 0 && s.rng.Intn(2) == 0 {
		parent = s.types[s.rng.Intn(len(s.types))]
	}
	id, err := s.g.Ontology().AddType(fmt.Sprintf("t%03d", len(s.types)), parent)
	if err != nil {
		s.t.Fatalf("AddType: %v", err)
	}
	s.types = append(s.types, id)
}

func (s *scripted) object() kg.Value {
	switch s.rng.Intn(6) {
	case 0:
		return kg.EntityValue(s.ents[s.rng.Intn(len(s.ents))])
	case 1:
		if s.rng.Intn(8) == 0 {
			return kg.StringValue("")
		}
		return kg.StringValue(fmt.Sprintf("str-%d", s.rng.Intn(1000)))
	case 2:
		return kg.IntValue(s.rng.Int63() - (1 << 62))
	case 3:
		if s.rng.Intn(8) == 0 {
			return kg.FloatValue(math.NaN())
		}
		return kg.FloatValue(s.rng.NormFloat64())
	case 4:
		return kg.TimeValue(scriptEpoch.Add(time.Duration(s.rng.Intn(1<<20)) * time.Second))
	default:
		return kg.BoolValue(s.rng.Intn(2) == 0)
	}
}

// step advances the workload by one operation.
func (s *scripted) step() {
	s.n++
	switch {
	case len(s.ents) < 4 || s.rng.Intn(12) == 0:
		s.addEntity()
	case len(s.preds) < 2 || s.rng.Intn(25) == 0:
		s.addPredicate()
	case s.rng.Intn(30) == 0:
		s.addType()
	case s.rng.Intn(10) == 0:
		// In-place record update, monotone so recovery can be bounded.
		id := s.ents[s.rng.Intn(len(s.ents))]
		next := s.pop[id] + float64(1+s.rng.Intn(3))
		if !s.g.UpdateEntity(id, func(e *kg.Entity) { e.Popularity = next }) {
			s.t.Fatalf("UpdateEntity(%d) failed", id)
		}
		s.pop[id] = next
	case len(s.live) > 4 && s.rng.Intn(6) == 0:
		i := s.rng.Intn(len(s.live))
		tr := s.live[i]
		if !s.g.Retract(tr) {
			s.t.Fatalf("scripted retract of live triple failed: %v", tr)
		}
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
	default:
		tr := kg.Triple{
			Subject:   s.ents[s.rng.Intn(len(s.ents))],
			Predicate: s.preds[s.rng.Intn(len(s.preds))],
			Object:    s.object(),
			Prov: kg.Provenance{
				Source:        fmt.Sprintf("src-%d", s.rng.Intn(4)),
				Confidence:    float64(s.rng.Intn(100)) / 100,
				SourceQuality: float64(s.rng.Intn(100)) / 100,
			},
		}
		if s.rng.Intn(4) != 0 { // leave ~25% with a zero ObservedAt
			tr.Prov.ObservedAt = scriptEpoch.Add(time.Duration(s.n) * time.Minute)
		}
		added, err := s.g.AssertNew(tr)
		if err != nil {
			s.t.Fatalf("scripted assert: %v", err)
		}
		if added {
			s.live = append(s.live, tr)
		}
	}
}

// retractMost retracts three in four of the live facts at once.
func (s *scripted) retractMost() {
	n := len(s.live) * 3 / 4
	for _, tr := range s.live[:n] {
		if !s.g.Retract(tr) {
			s.t.Fatalf("scripted retract of live triple failed: %v", tr)
		}
	}
	s.live = append(s.live[:0], s.live[n:]...)
}

// sameTriples requires got to hold exactly want's triples, provenance
// included.
func sameTriples(t testing.TB, want, got *kg.Graph) {
	t.Helper()
	a, b := want.AllTriples(), got.AllTriples()
	if len(a) != len(b) {
		t.Fatalf("triple count: want %d, got %d", len(a), len(b))
	}
	for i := range a {
		if a[i].IdentityKey() != b[i].IdentityKey() {
			t.Fatalf("triple %d identity: want %v, got %v", i, a[i], b[i])
		}
		pa, pb := a[i].Prov, b[i].Prov
		if pa.Source != pb.Source || pa.Confidence != pb.Confidence ||
			pa.SourceQuality != pb.SourceQuality || !pa.ObservedAt.Equal(pb.ObservedAt) {
			t.Fatalf("triple %d provenance: want %+v, got %+v", i, pa, pb)
		}
	}
}

// sameDicts requires got's dictionaries and ontology to exactly match
// want's, record for record.
func sameDicts(t testing.TB, want, got *kg.Graph) {
	t.Helper()
	if want.NumEntities() != got.NumEntities() {
		t.Fatalf("entity count: want %d, got %d", want.NumEntities(), got.NumEntities())
	}
	if want.NumPredicates() != got.NumPredicates() {
		t.Fatalf("predicate count: want %d, got %d", want.NumPredicates(), got.NumPredicates())
	}
	if want.Ontology().Len() != got.Ontology().Len() {
		t.Fatalf("ontology size: want %d, got %d", want.Ontology().Len(), got.Ontology().Len())
	}
	for i := 1; i <= want.NumEntities(); i++ {
		a, b := want.Entity(kg.EntityID(i)), got.Entity(kg.EntityID(i))
		if a.Key != b.Key || a.Name != b.Name || a.Description != b.Description ||
			a.Popularity != b.Popularity || len(a.Aliases) != len(b.Aliases) || len(a.Types) != len(b.Types) {
			t.Fatalf("entity %d: want %+v, got %+v", i, a, b)
		}
	}
	for i := 1; i <= want.NumPredicates(); i++ {
		a, b := want.Predicate(kg.PredicateID(i)), got.Predicate(kg.PredicateID(i))
		if *a != *b {
			t.Fatalf("predicate %d: want %+v, got %+v", i, a, b)
		}
	}
	for i := 1; i <= want.Ontology().Len(); i++ {
		id := kg.TypeID(i)
		if want.Ontology().Name(id) != got.Ontology().Name(id) || want.Ontology().Parent(id) != got.Ontology().Parent(id) {
			t.Fatalf("ontology type %d differs", i)
		}
	}
}

// copyDicts registers src's ontology and dictionaries into dst in ID
// order (ImportGraph without the triples) for reference-prefix replay.
func copyDicts(t testing.TB, dst, src *kg.Graph) {
	t.Helper()
	for id := kg.TypeID(1); int(id) <= src.Ontology().Len(); id++ {
		if _, err := dst.Ontology().AddType(src.Ontology().Name(id), src.Ontology().Parent(id)); err != nil {
			t.Fatalf("copy ontology: %v", err)
		}
	}
	for i := 1; i <= src.NumEntities(); i++ {
		if _, err := dst.AddEntity(*src.Entity(kg.EntityID(i))); err != nil {
			t.Fatalf("copy entity: %v", err)
		}
	}
	for i := 1; i <= src.NumPredicates(); i++ {
		if _, err := dst.AddPredicate(*src.Predicate(kg.PredicateID(i))); err != nil {
			t.Fatalf("copy predicate: %v", err)
		}
	}
}

// replayPrefix rebuilds the state after the first wm mutations of src's
// full history (src must have been run with KeepGraphLog).
func replayPrefix(t testing.TB, src *kg.Graph, wm uint64) *kg.Graph {
	t.Helper()
	if src.LogFloor() != 0 {
		t.Fatalf("reference graph log was truncated (floor %d); scenario must keep it", src.LogFloor())
	}
	ref := kg.NewGraphWithShards(2)
	copyDicts(t, ref, src)
	muts, complete := src.Feed(0).Pull()
	if !complete {
		t.Fatal("reference graph feed incomplete despite zero floor")
	}
	for _, mu := range muts {
		if mu.Seq > wm {
			break
		}
		switch mu.Op {
		case kg.OpAssert:
			if added, err := ref.AssertNew(mu.T); err != nil || !added {
				t.Fatalf("reference replay LSN %d: added=%v err=%v", mu.Seq, added, err)
			}
		case kg.OpRetract:
			if !ref.Retract(mu.T) {
				t.Fatalf("reference replay LSN %d: retract failed", mu.Seq)
			}
		}
	}
	return ref
}

// --- tests --------------------------------------------------------------

func TestOpenEmptyDir(t *testing.T) {
	fs := NewFaultFS(1)
	g, m, info := mustOpen(t, fs, Options{})
	if info.RecoveredLSN != 0 || info.CheckpointLSN != 0 || len(info.Diagnostics) != 0 {
		t.Fatalf("empty recovery reported %+v", info)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if g.LastSeq() != 0 {
		t.Fatalf("graph watermark %d after empty open", g.LastSeq())
	}
}

func TestOpenRequiresEmptyGraph(t *testing.T) {
	g := kg.NewGraph()
	if _, err := g.AddEntity(kg.Entity{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(testDir, g, Options{FS: NewFaultFS(1)}); err == nil {
		t.Fatal("Open accepted a non-empty graph")
	}
}

func TestRoundTripCleanClose(t *testing.T) {
	fs := NewFaultFS(7)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit, KeepGraphLog: true})
	s := newScripted(t, g, 7)
	for i := 0; i < 300; i++ {
		s.step()
		if i%11 == 0 {
			if _, err := m.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := m.DurableLSN(); d != g.LastSeq() {
		t.Fatalf("durable %d != watermark %d after Close", d, g.LastSeq())
	}

	g2, m2, info := mustOpen(t, fs, Options{Sync: SyncEachCommit, KeepGraphLog: true})
	if info.RecoveredLSN != g.LastSeq() {
		t.Fatalf("recovered LSN %d, want %d (diagnostics: %v)", info.RecoveredLSN, g.LastSeq(), info.Diagnostics)
	}
	sameTriples(t, g, g2)
	sameDicts(t, g, g2)

	// LSNs continue where the first incarnation stopped.
	before := g2.LastSeq()
	if err := g2.Assert(kg.Triple{Subject: 1, Predicate: 1, Object: kg.StringValue("after-recovery")}); err != nil {
		t.Fatal(err)
	}
	if got := g2.LastSeq(); got != before+1 {
		t.Fatalf("watermark did not continue after recovery: %d -> %d", before, got)
	}
	if _, err := m2.Commit(); err != nil {
		t.Fatalf("post-recovery Commit: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("post-recovery Close: %v", err)
	}

	g3, m3, info3 := mustOpen(t, fs, Options{})
	if info3.RecoveredLSN != g2.LastSeq() {
		t.Fatalf("second recovery LSN %d, want %d", info3.RecoveredLSN, g2.LastSeq())
	}
	sameTriples(t, g2, g3)
	_ = m3.Close()
}

func TestCheckpointRotatesAndCompacts(t *testing.T) {
	fs := NewFaultFS(3)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	s := newScripted(t, g, 3)
	for i := 0; i < 150; i++ {
		s.step()
		if i%13 == 0 {
			if _, err := m.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wm, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if wm != g.LastSeq() {
		t.Fatalf("checkpoint watermark %d, want %d", wm, g.LastSeq())
	}
	if floor := g.LogFloor(); floor != wm {
		t.Fatalf("graph log floor %d after checkpoint, want %d", floor, wm)
	}
	names, err := fs.ReadDir(testDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs, ckpts, others int
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, segPrefix):
			segs++
		case strings.HasPrefix(n, ckptPrefix):
			ckpts++
		default:
			others++
		}
	}
	if segs != 1 || ckpts != 1 || others != 0 {
		t.Fatalf("after checkpoint dir holds %v (want 1 segment, 1 checkpoint)", names)
	}

	// Post-checkpoint mutations land in the fresh segment and replay on
	// top of the checkpoint.
	for i := 0; i < 40; i++ {
		s.step()
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	g2, m2, info := mustOpen(t, fs, Options{})
	if info.CheckpointLSN != wm {
		t.Fatalf("recovery used checkpoint %d, want %d", info.CheckpointLSN, wm)
	}
	if info.RecoveredLSN != g.LastSeq() {
		t.Fatalf("recovered LSN %d, want %d", info.RecoveredLSN, g.LastSeq())
	}
	if info.MutationsReplayed == 0 {
		t.Fatal("expected a non-empty log suffix replay")
	}
	sameTriples(t, g, g2)
	sameDicts(t, g, g2)
	_ = m2.Close()
}

func TestAutoCheckpoint(t *testing.T) {
	fs := NewFaultFS(5)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit, CheckpointEvery: 50})
	s := newScripted(t, g, 5)
	for i := 0; i < 200; i++ {
		s.step()
		if i%9 == 0 {
			if _, err := m.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.CheckpointLSN() == 0 {
		t.Fatal("CheckpointEvery=50 never took an automatic checkpoint")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	g2, m2, _ := mustOpen(t, fs, Options{})
	sameTriples(t, g, g2)
	_ = m2.Close()
}

func TestSyncToWatermarkBarrier(t *testing.T) {
	fs := NewFaultFS(11)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncNever})
	s := newScripted(t, g, 11)
	for i := 0; i < 60; i++ {
		s.step()
	}
	wm := g.LastSeq()
	if d := m.DurableLSN(); d != 0 {
		t.Fatalf("SyncNever acknowledged %d before any barrier", d)
	}
	if err := m.SyncToWatermark(wm); err != nil {
		t.Fatalf("SyncToWatermark: %v", err)
	}
	if d := m.DurableLSN(); d < wm {
		t.Fatalf("durable %d after barrier to %d", d, wm)
	}
	if err := m.SyncToWatermark(wm + 100); err == nil {
		t.Fatal("barrier beyond the graph watermark must fail")
	}
	_ = m.Close()
}

// TestTornTailTruncated hand-corrupts the live segment's tail and checks
// recovery lands on the longest valid prefix with a diagnostic.
func TestTornTailTruncated(t *testing.T) {
	fs := NewFaultFS(13)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit, KeepGraphLog: true})
	s := newScripted(t, g, 13)
	var ackedMid uint64
	for i := 0; i < 120; i++ {
		s.step()
		if i%10 == 0 {
			lsn, err := m.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if i == 60 {
				ackedMid = lsn
			}
		}
	}
	// Make sure the log ends in a mutation record, so chopping the tail
	// provably costs at least one LSN.
	if _, err := g.AssertNew(kg.Triple{Subject: s.ents[0], Predicate: s.preds[0], Object: kg.IntValue(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop bytes off the (only) segment's tail, landing mid-frame.
	names, _ := fs.ReadDir(testDir)
	var seg string
	for _, n := range names {
		if strings.HasPrefix(n, segPrefix) {
			seg = filepath.Join(testDir, n)
		}
	}
	r, err := fs.OpenRead(seg)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if err := fs.Truncate(seg, int64(len(data)-3)); err != nil {
		t.Fatal(err)
	}

	g2, m2, info := mustOpen(t, fs, Options{})
	if len(info.Diagnostics) == 0 || info.TruncatedBytes == 0 {
		t.Fatalf("torn tail recovered silently: %+v", info)
	}
	wm := info.RecoveredLSN
	if wm >= g.LastSeq() || wm < ackedMid {
		t.Fatalf("recovered LSN %d outside (%d, %d)", wm, ackedMid, g.LastSeq())
	}
	sameTriples(t, replayPrefix(t, g, wm), g2)
	_ = m2.Close()

	// A second recovery after the truncation repair is clean.
	g3, m3, info3 := mustOpen(t, fs, Options{})
	for _, d := range info3.Diagnostics {
		if strings.Contains(d, "truncated") || strings.Contains(d, "corrupt") {
			t.Fatalf("repair did not stick: %v", info3.Diagnostics)
		}
	}
	if g3.LastSeq() != wm {
		t.Fatalf("second recovery LSN %d, want %d", g3.LastSeq(), wm)
	}
	_ = m3.Close()
}

// TestCorruptCheckpointIsFatal: a checkpoint is published only after a
// full fsync, so a CRC failure inside one is real data corruption (the
// covering log segments are gone) and must surface as an error rather
// than an emptier graph.
func TestCorruptCheckpointIsFatal(t *testing.T) {
	fs := NewFaultFS(17)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	s := newScripted(t, g, 17)
	for i := 0; i < 80; i++ {
		s.step()
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir(testDir)
	for _, n := range names {
		if !strings.HasPrefix(n, ckptPrefix) {
			continue
		}
		p := filepath.Join(testDir, n)
		r, _ := fs.OpenRead(p)
		data, _ := io.ReadAll(r)
		r.Close()
		data[len(data)/2] ^= 0xff
		f, err := fs.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	g2 := kg.NewGraph()
	if _, _, err := Open(testDir, g2, Options{FS: fs}); err == nil {
		t.Fatal("Open recovered from a corrupt checkpoint without error")
	}
}

func TestImportGraph(t *testing.T) {
	src := kg.NewGraphWithShards(4)
	s := newScripted(t, src, 23)
	for i := 0; i < 200; i++ {
		s.step()
	}
	dst := kg.NewGraphWithShards(8)
	if err := ImportGraph(dst, src); err != nil {
		t.Fatalf("ImportGraph: %v", err)
	}
	sameTriples(t, src, dst)
	sameDicts(t, src, dst)
	if err := ImportGraph(dst, src); err == nil {
		t.Fatal("ImportGraph accepted a non-empty destination")
	}
}

// TestCheckpointRestart64K is the acceptance scenario: a checkpointed
// 64K-triple graph restarts through the merge-append fast path plus an
// empty replay, without re-running ingestion.
func TestCheckpointRestart64K(t *testing.T) {
	if testing.Short() {
		t.Skip("64K restore skipped in -short")
	}
	const nTriples = 64 << 10
	src := kg.NewGraphWithShards(16)
	pred, err := src.AddPredicate(kg.Predicate{Name: "links"})
	if err != nil {
		t.Fatal(err)
	}
	const pool = 4096
	ids := make([]kg.EntityID, pool)
	for i := range ids {
		id, err := src.AddEntity(kg.Entity{Key: fmt.Sprintf("n%05d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	rng := rand.New(rand.NewSource(64))
	batch := make([]kg.Triple, 0, nTriples)
	for len(batch) < nTriples {
		batch = append(batch, kg.Triple{
			Subject:   ids[rng.Intn(pool)],
			Predicate: pred,
			Object:    kg.IntValue(int64(len(batch))),
		})
	}
	if _, err := src.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}

	fs := NewFaultFS(64)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncNever})
	if err := ImportGraph(g, src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	g2, m2, info := mustOpen(t, fs, Options{})
	if g2.NumTriples() != nTriples {
		t.Fatalf("restored %d triples, want %d", g2.NumTriples(), nTriples)
	}
	if info.MutationsReplayed != 0 {
		t.Fatalf("restart replayed %d mutations; the checkpoint should cover everything", info.MutationsReplayed)
	}
	if info.CheckpointLSN != g.LastSeq() || g2.LastSeq() != g.LastSeq() {
		t.Fatalf("watermarks diverged: checkpoint %d, recovered %d, source %d",
			info.CheckpointLSN, g2.LastSeq(), g.LastSeq())
	}
	_ = m2.Close()
}
