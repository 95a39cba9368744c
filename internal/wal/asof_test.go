package wal

import (
	"errors"
	"strings"
	"testing"

	"saga/internal/kg"
)

// ckptEvery drives a scripted workload for steps operations, taking a
// checkpoint every every steps, and returns the checkpoint watermarks.
func ckptEvery(t *testing.T, s *scripted, m *Manager, steps, every int) []uint64 {
	t.Helper()
	var wms []uint64
	for i := 0; i < steps; i++ {
		s.step()
		if i%every == every-1 {
			wm, err := m.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint at step %d: %v", i, err)
			}
			wms = append(wms, wm)
		}
	}
	return wms
}

// chainFiles counts the checkpoint files the chains of the checkpoints
// at wms name, reading each header from disk.
func chainFiles(t *testing.T, fs FS, wms ...uint64) int {
	t.Helper()
	seen := make(map[uint64]bool)
	for _, w := range wms {
		for !seen[w] {
			seen[w] = true
			h, err := readCkptHeader(fs, testDir, w)
			if err != nil {
				t.Fatalf("%s: %v", ckptName(w), err)
			}
			if h.base != 0 {
				w = h.base
			}
		}
	}
	return len(seen)
}

// TestSnapshotAtReconstructs checks SnapshotAt's contract across the
// retention window: the base graph is exactly the replayed prefix up to
// the chosen checkpoint, and the suffix read back from the on-disk
// segments is record-for-record the graph's own mutation history over
// (checkpoint, asOf].
func TestSnapshotAtReconstructs(t *testing.T) {
	fs := NewFaultFS(21)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit, KeepGraphLog: true, RetainCheckpoints: 3})
	s := newScripted(t, g, 21)
	wms := ckptEvery(t, s, m, 240, 60)
	for i := 0; i < 25; i++ { // live tail past the last checkpoint
		s.step()
	}
	if len(wms) != 4 {
		t.Fatalf("took %d checkpoints, want 4", len(wms))
	}
	retained := wms[1:] // RetainCheckpoints=3 drops the oldest

	full, complete := g.Feed(0).Pull()
	if !complete {
		t.Fatal("KeepGraphLog graph reported a truncated log")
	}

	probes := []uint64{retained[0], retained[1], retained[1] + 7, retained[2], g.LastSeq()}
	for _, asOf := range probes {
		base, suffix, err := m.SnapshotAt(asOf)
		if err != nil {
			t.Fatalf("SnapshotAt(%d): %v", asOf, err)
		}
		baseWM := asOf - uint64(len(suffix))

		// The base must sit on a retained checkpoint watermark.
		found := false
		for _, w := range retained {
			if w == baseWM {
				found = true
			}
		}
		if !found {
			t.Fatalf("SnapshotAt(%d) based on watermark %d, not a retained checkpoint %v", asOf, baseWM, retained)
		}
		sameTriples(t, replayPrefix(t, g, baseWM), base)

		// The on-disk suffix must match the in-memory history exactly.
		for j, mu := range suffix {
			want := full[int(baseWM)+j]
			if mu.Seq != want.Seq || mu.Op != want.Op || mu.T.IdentityKey() != want.T.IdentityKey() {
				t.Fatalf("SnapshotAt(%d) suffix[%d] = {%d %v %v}, want {%d %v %v}",
					asOf, j, mu.Seq, mu.Op, mu.T, want.Seq, want.Op, want.T)
			}
		}
		if len(suffix) > 0 && suffix[len(suffix)-1].Seq != asOf {
			t.Fatalf("SnapshotAt(%d) suffix ends at %d", asOf, suffix[len(suffix)-1].Seq)
		}
	}

	// Repeated reads at the same watermark share the cached base.
	b1, _, err := m.SnapshotAt(retained[0] + 3)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := m.SnapshotAt(retained[0] + 5)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("as-of reads off the same checkpoint did not share the cached base")
	}
	_ = m.Close()
}

// TestSnapshotAtBounds pins the two failure edges: watermarks below the
// oldest retained checkpoint return ErrOutsideRetention, watermarks
// beyond the graph's are a plain error.
func TestSnapshotAtBounds(t *testing.T) {
	fs := NewFaultFS(23)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit}) // default retention: newest only
	s := newScripted(t, g, 23)
	wms := ckptEvery(t, s, m, 120, 40)
	if n := m.RetainedCheckpoints(); n != 1 {
		t.Fatalf("default retention kept %d checkpoints, want 1", n)
	}
	if _, _, err := m.SnapshotAt(wms[0]); !errors.Is(err, ErrOutsideRetention) {
		t.Fatalf("SnapshotAt(%d) below retention: %v, want ErrOutsideRetention", wms[0], err)
	}
	if _, _, err := m.SnapshotAt(g.LastSeq() + 10); err == nil || errors.Is(err, ErrOutsideRetention) {
		t.Fatalf("SnapshotAt beyond the watermark: %v", err)
	}
	// The newest checkpoint itself (and everything after) stays readable.
	if _, _, err := m.SnapshotAt(wms[len(wms)-1]); err != nil {
		t.Fatalf("SnapshotAt at the retained checkpoint: %v", err)
	}
	_ = m.Close()
}

// TestRetentionSurvivesReopen checks the on-disk side of retention:
// RetainCheckpoints keeps exactly N checkpoint files plus the segments
// needed to serve them, and a reopened manager rebuilds its retention
// index from the directory and serves the same as-of reads.
func TestRetentionSurvivesReopen(t *testing.T) {
	fs := NewFaultFS(29)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit, KeepGraphLog: true, RetainCheckpoints: 2})
	s := newScripted(t, g, 29)
	wms := ckptEvery(t, s, m, 200, 40)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := fs.ReadDir(testDir)
	if err != nil {
		t.Fatal(err)
	}
	var ckptFiles int
	for _, n := range names {
		if strings.HasPrefix(n, ckptPrefix) {
			ckptFiles++
		}
	}
	if want := chainFiles(t, fs, wms[len(wms)-2:]...); ckptFiles != want {
		t.Fatalf("disk holds %d checkpoints, want the 2 retained and their chains' %d files (files: %v)", ckptFiles, want, names)
	}

	g2, m2, info := mustOpen(t, fs, Options{Sync: SyncEachCommit, RetainCheckpoints: 2})
	if info.RecoveredLSN != g.LastSeq() {
		t.Fatalf("recovered LSN %d, want %d", info.RecoveredLSN, g.LastSeq())
	}
	if n := m2.RetainedCheckpoints(); n != 2 {
		t.Fatalf("reopened manager indexes %d checkpoints, want 2", n)
	}
	sameTriples(t, g, g2)

	oldest := wms[len(wms)-2]
	asOf := oldest + 11
	base, suffix, err := m2.SnapshotAt(asOf)
	if err != nil {
		t.Fatalf("SnapshotAt(%d) after reopen: %v", asOf, err)
	}
	if got := asOf - uint64(len(suffix)); got != oldest {
		t.Fatalf("reopened as-of based on %d, want oldest retained checkpoint %d", got, oldest)
	}
	sameTriples(t, replayPrefix(t, g, oldest), base)

	// Reconstruct the full asOf state from base + suffix and compare
	// against a prefix replay of the original history.
	ref := kg.NewGraphWithShards(2)
	copyDicts(t, ref, g)
	baseMuts, _ := g.Feed(0).Pull()
	for _, mu := range append(baseMuts[:oldest:oldest], suffix...) {
		switch mu.Op {
		case kg.OpAssert:
			if added, err := ref.AssertNew(mu.T); err != nil || !added {
				t.Fatalf("replay LSN %d: added=%v err=%v", mu.Seq, added, err)
			}
		case kg.OpRetract:
			if !ref.Retract(mu.T) {
				t.Fatalf("replay LSN %d: retract failed", mu.Seq)
			}
		}
	}
	sameTriples(t, replayPrefix(t, g, asOf), ref)

	if _, _, err := m2.SnapshotAt(wms[0]); !errors.Is(err, ErrOutsideRetention) {
		t.Fatalf("SnapshotAt(%d) after reopen: %v, want ErrOutsideRetention", wms[0], err)
	}
	_ = m2.Close()
}
