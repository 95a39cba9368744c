package wal

import (
	"testing"
	"time"

	"saga/internal/kg"
)

// crashAndRecover commits, crashes the file system at that point and
// recovers a fresh graph from the image, keeping its replayed log.
func crashAndRecover(t *testing.T, fs *FaultFS, m *Manager) *kg.Graph {
	t.Helper()
	if _, err := m.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	g2, m2, info := mustOpen(t, fs.Crash(), Options{Sync: SyncEachCommit})
	g2.Feed(0)
	t.Cleanup(func() { _ = m2.Close() })
	if len(info.Diagnostics) != 0 {
		t.Fatalf("recovery diagnostics: %v", info.Diagnostics)
	}
	return g2
}

// A fact reads the same before and after a crash — as a whole Triple,
// with ==. ODKE stamps its extractions with time.Now(), which carries the
// Local zone and a monotonic clock reading, and a caller may hand in a
// time value in any zone; the log keeps the UTC instant, so the live graph
// must hand back that instant too, or one fact is two values across a
// restart.
// loggedMutations returns every mutation g's log holds from the first
// on, read through a changefeed.
func loggedMutations(t *testing.T, g *kg.Graph) []kg.Mutation {
	t.Helper()
	f := g.Feed(0)
	defer f.Close()
	muts, ok := f.Pull()
	if !ok {
		t.Fatal("the log no longer holds the first mutation")
	}
	return muts
}

func TestRecoveredFactsEqualLiveFacts(t *testing.T) {
	fs := NewFaultFS(11)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	s, err := g.AddEntity(kg.Entity{Key: "person0", Name: "Ada"})
	if err != nil {
		t.Fatal(err)
	}
	o, err := g.AddEntity(kg.Entity{Key: "occ0", Name: "Mathematician"})
	if err != nil {
		t.Fatal(err)
	}
	dob, _ := g.AddPredicate(kg.Predicate{Name: "dateOfBirth", ValueKind: kg.KindTime})
	occ, _ := g.AddPredicate(kg.Predicate{Name: "occupation", ValueKind: kg.KindEntity})
	nick, _ := g.AddPredicate(kg.Predicate{Name: "nickname", ValueKind: kg.KindString})
	zone := time.FixedZone("CET", 3600)
	odke := kg.Provenance{Source: "odke:infobox", Confidence: 0.9, SourceQuality: 0.7, ObservedAt: time.Now()}
	for _, tr := range []kg.Triple{
		{Subject: s, Predicate: occ, Object: kg.EntityValue(o), Prov: odke},
		{Subject: s, Predicate: dob, Object: kg.Value{Kind: kg.KindTime, TS: time.Date(1815, 12, 10, 9, 30, 0, 0, zone)},
			Prov: kg.Provenance{Source: "odke:text", Confidence: 0.6, ObservedAt: time.Now().In(zone)}},
		{Subject: s, Predicate: nick, Object: kg.StringValue("Enchantress of Numbers")}, // no provenance at all
	} {
		if err := g.Assert(tr); err != nil {
			t.Fatalf("Assert: %v", err)
		}
	}
	// A retract is logged with the caller's provenance: that copy must
	// match across the crash too.
	if !g.Retract(kg.Triple{Subject: s, Predicate: nick, Object: kg.StringValue("Enchantress of Numbers"), Prov: odke}) {
		t.Fatal("Retract found nothing")
	}
	live, logged := g.AllTriples(), loggedMutations(t, g)

	g2 := crashAndRecover(t, fs, m)
	recovered := g2.AllTriples()
	if len(recovered) != len(live) {
		t.Fatalf("recovered %d facts, live graph holds %d", len(recovered), len(live))
	}
	for i := range live {
		if live[i] != recovered[i] {
			t.Errorf("fact %d: live %#v\nrecovered %#v", i, live[i], recovered[i])
		}
	}
	replayed := loggedMutations(t, g2)
	if len(replayed) != len(logged) {
		t.Fatalf("recovery replayed %d mutations, the live log holds %d", len(replayed), len(logged))
	}
	for i := range logged {
		if logged[i] != replayed[i] {
			t.Errorf("mutation %d: live log %#v\nrecovered %#v", i, logged[i], replayed[i])
		}
	}
}

// A date the graph cannot carry must not be stored in one form and
// recovered in another: 1452-04-15 as UnixNano wraps to 2036-11-02. The
// assert is refused; had it been taken, the recovered graph would have to
// hold the same date.
func TestOutOfRangeDateIsRefusedNotCorrupted(t *testing.T) {
	fs := NewFaultFS(12)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	s, err := g.AddEntity(kg.Entity{Key: "person0", Name: "Leonardo"})
	if err != nil {
		t.Fatal(err)
	}
	dob, _ := g.AddPredicate(kg.Predicate{Name: "dateOfBirth", ValueKind: kg.KindTime})
	born := time.Date(1452, 4, 15, 0, 0, 0, 0, time.UTC)
	err = g.Assert(kg.Triple{Subject: s, Predicate: dob, Object: kg.TimeValue(born)})
	g2 := crashAndRecover(t, fs, m)
	if err != nil {
		if n := g2.NumTriples(); n != 0 {
			t.Fatalf("the refused assert left %d facts in the recovered graph", n)
		}
		return
	}
	for _, tr := range g2.Facts(s, dob) {
		if !tr.Object.TS.Equal(born) {
			t.Fatalf("asserted date of birth %s, recovered %s", born.Format(time.RFC3339), tr.Object.TS.Format(time.RFC3339))
		}
	}
	t.Fatal("the graph took a date it cannot carry as UnixNano")
}
