package wal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"saga/internal/kg"
)

// sameRecords requires got's entity records to equal want's field for
// field, aliases and types included.
func sameRecords(t testing.TB, want, got *kg.Graph) {
	t.Helper()
	sameDicts(t, want, got)
	for i := 1; i <= want.NumEntities(); i++ {
		a, b := want.Entity(kg.EntityID(i)), got.Entity(kg.EntityID(i))
		if a.Key != b.Key || a.Name != b.Name || a.Description != b.Description || a.Popularity != b.Popularity ||
			!slices.Equal(a.Aliases, b.Aliases) || !slices.Equal(a.Types, b.Types) {
			t.Fatalf("entity %d: want %+v, got %+v", i, a, b)
		}
	}
}

// recoverCopy opens a copy of fs's durable image into a fresh graph.
func recoverCopy(t *testing.T, fs *FaultFS) (*kg.Graph, *RecoveryInfo) {
	t.Helper()
	g, m, info := mustOpen(t, fs.Crash(), Options{})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return g, info
}

// TestCheckpointChainEqualsReplay is the delta contract (Berkholz,
// Keppeler and Schweikardt's for dynamic evaluation: after any update
// sequence the maintained state equals the from-scratch state). For
// seeded histories of asserts, retracts, entity updates and new
// dictionary entries, at every checkpoint three states equal the
// reference replay of the history's prefix — triples, dictionaries and
// entity records: a recovery through the checkpoint's chain, a recovery
// from a full checkpoint at the same watermark (a twin run of the same
// history whose log is truncated before each checkpoint, which forces a
// full one), and the base SnapshotAt reads on. The schedule forces both
// paths: deltas over a large base, then a retraction burst the chain rule
// compacts to full, then a delta over that.
func TestCheckpointChainEqualsReplay(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fs, twinFS := NewFaultFS(seed), NewFaultFS(seed)
			g, m, _ := mustOpen(t, fs, Options{Sync: SyncNever, RetainCheckpoints: 100})
			g.Feed(0)
			twin, tm, _ := mustOpen(t, twinFS, Options{Sync: SyncNever})
			s, ts := newScripted(t, g, seed), newScripted(t, twin, seed)
			steps := func(n int) {
				for i := 0; i < n; i++ {
					s.step()
					ts.step()
				}
			}
			var kinds string
			checkpoint := func() {
				t.Helper()
				wm, err := m.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if m.files[wm].base == 0 {
					kinds += "F"
				} else {
					kinds += "D"
				}
				if _, err := tm.Commit(); err != nil {
					t.Fatal(err)
				}
				twin.TruncateLog(twin.LastSeq())
				if twm, err := tm.Checkpoint(); err != nil || twm != wm || tm.files[wm].base != 0 {
					t.Fatalf("twin checkpoint at %d (err %v, %+v), want a full one at %d", twm, err, tm.files[twm], wm)
				}

				ref := replayPrefix(t, g, wm)
				chained, info := recoverCopy(t, fs)
				if info.CheckpointLSN != wm || info.MutationsReplayed != 0 {
					t.Fatalf("recovered through checkpoint %d replaying %d mutations, want %d and none", info.CheckpointLSN, info.MutationsReplayed, wm)
				}
				full, _ := recoverCopy(t, twinFS)
				base, suffix, err := m.SnapshotAt(wm)
				if err != nil || len(suffix) != 0 {
					t.Fatalf("SnapshotAt(%d): %d suffix mutations, err %v", wm, len(suffix), err)
				}
				for _, got := range []*kg.Graph{chained, full, base} {
					sameTriples(t, ref, got)
					sameRecords(t, g, got)
				}
			}

			steps(200)
			checkpoint()
			for i := 0; i < 3; i++ {
				steps(40)
				checkpoint()
			}
			s.retractMost()
			ts.retractMost()
			steps(20)
			checkpoint()
			steps(40)
			checkpoint()
			if kinds != "FDDDFD" {
				t.Fatalf("checkpoints taken %q, want FDDDFD", kinds)
			}
			_ = m.Close()
			_ = tm.Close()
		})
	}
}

// A record update logged before a restart, and replayed from the log by
// recovery, must reach the next delta: the segment holding it is deleted
// once that delta is taken.
func TestDeltaCarriesReplayedRecordUpdates(t *testing.T) {
	fs := NewFaultFS(41)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	s := newScripted(t, g, 41)
	for i := 0; i < 200; i++ {
		s.step()
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !g.UpdateEntity(s.ents[0], func(e *kg.Entity) { e.Popularity = 99 }) {
		t.Fatal("UpdateEntity failed")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	g2, m2, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	if err := g2.Assert(kg.Triple{Subject: s.ents[1], Predicate: s.preds[0], Object: kg.StringValue("after restart")}); err != nil {
		t.Fatal(err)
	}
	wm, err := m2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m2.files[wm].base == 0 {
		t.Fatal("the checkpoint after the restart is a full one; the test needs a delta")
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	g3, m3, _ := mustOpen(t, fs, Options{})
	defer m3.Close()
	if pop := g3.Entity(s.ents[0]).Popularity; pop != 99 {
		t.Fatalf("recovered popularity %v, want the update replayed before the delta (99)", pop)
	}
	sameTriples(t, g2, g3)
	sameRecords(t, g2, g3)
}

// A record update and a new entity logged after the newest checkpoint,
// with no fact changed since, survive restarts whose checkpoints write no
// file: the segment that holds them is kept until a checkpoint carries
// them.
func TestUnchangedWatermarkKeepsReplayedRecords(t *testing.T) {
	for name, change := range map[string]func(*kg.Graph, *scripted) error{
		"record update": func(g *kg.Graph, s *scripted) error {
			if !g.UpdateEntity(s.ents[0], func(e *kg.Entity) { e.Popularity = 99 }) {
				return fmt.Errorf("UpdateEntity failed")
			}
			return nil
		},
		"new entity": func(g *kg.Graph, _ *scripted) error {
			_, err := g.AddEntity(kg.Entity{Key: "late", Name: "no facts"})
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs := NewFaultFS(53)
			g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
			s := newScripted(t, g, 53)
			for i := 0; i < 200; i++ {
				s.step()
			}
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := change(g, s); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			for session := 0; session < 3; session++ { // read-only sessions, each checkpointing at shutdown
				g2, m2, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
				sameRecords(t, g, g2)
				before := fs.BytesAccepted()
				if _, err := m2.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if fs.BytesAccepted() != before {
					t.Fatalf("session %d: checkpoint at an unchanged watermark wrote %d bytes", session, fs.BytesAccepted()-before)
				}
				if err := m2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// A checkpoint at a watermark that has not moved writes nothing — after
// a reopen too, where it still retires the segment the last incarnation
// left.
func TestCheckpointAtUnchangedWatermarkWritesNothing(t *testing.T) {
	fs := NewFaultFS(43)
	g, m, _ := mustOpen(t, fs, Options{Sync: SyncEachCommit})
	s := newScripted(t, g, 43)
	for i := 0; i < 100; i++ {
		s.step()
	}
	for round := 0; round < 2; round++ { // after a full checkpoint, then after a delta
		wm, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		before := fs.BytesAccepted()
		again, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if again != wm || fs.BytesAccepted() != before {
			t.Fatalf("round %d: second checkpoint at %d wrote %d bytes, want none at %d", round, again, fs.BytesAccepted()-before, wm)
		}
		for i := 0; i < 30; i++ {
			s.step()
		}
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	_, m2, _ := mustOpen(t, fs, Options{})
	defer m2.Close()
	before := fs.BytesAccepted()
	if _, err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fs.BytesAccepted() != before {
		t.Fatalf("checkpoint after a reopen with nothing new wrote %d bytes", fs.BytesAccepted()-before)
	}
	names, _ := fs.ReadDir(testDir)
	if segs := len(slices.DeleteFunc(names, func(n string) bool { _, ok := parseName(n, segPrefix, segSuffix); return !ok })); segs != 1 {
		t.Fatalf("directory holds %d segments after the checkpoint, want the active one only", segs)
	}
}

// FuzzLoadCheckpoint feeds the checkpoint loader arbitrary bytes as a
// full checkpoint and as a delta over a valid full one, seeded with a
// valid base and delta pair. The loader returns an error or a graph; it
// never panics, and sizes nothing from a count it has not checked.
func FuzzLoadCheckpoint(f *testing.F) {
	fs := NewFaultFS(47)
	g, m, _ := mustOpen(f, fs, Options{Sync: SyncNever})
	s := newScripted(f, g, 47)
	checkpoint := func() uint64 {
		for i := 0; i < 60; i++ {
			s.step()
		}
		wm, err := m.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		return wm
	}
	baseWM, deltaWM := checkpoint(), checkpoint()
	if m.files[deltaWM].base != baseWM {
		f.Fatalf("checkpoint at %d has base %d, want %d", deltaWM, m.files[deltaWM].base, baseWM)
	}
	read := func(wm uint64) []byte {
		r, err := fs.OpenRead(filepath.Join(testDir, ckptName(wm)))
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		_, _ = b.ReadFrom(r)
		return b.Bytes()
	}
	baseFile, deltaFile := read(baseWM), read(deltaWM)
	f.Add(baseFile, false)
	f.Add(deltaFile, true)
	f.Add(deltaFile[:len(deltaFile)/2], true)
	f.Add([]byte{}, false)

	const wm = 1 << 40 // above any valid base, so the delta's base stays below it
	f.Fuzz(func(t *testing.T, data []byte, asDelta bool) {
		fs := NewFaultFS(1)
		if err := fs.MkdirAll(testDir); err != nil {
			t.Fatal(err)
		}
		put := func(w uint64, b []byte) {
			out, err := fs.Create(filepath.Join(testDir, ckptName(w)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := out.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		// The fuzzed file is loaded at the watermark its own header
		// names, if it names one, so mutations reach past that check.
		w := uint64(wm)
		if h, err := decCkptHeader(firstPayload(data)); err == nil {
			w = h.watermark
		}
		put(w, data)
		if asDelta && w != baseWM {
			put(baseWM, baseFile)
		}
		_ = loadChain(fs, testDir, w, kg.NewGraph())
	})
}

// firstPayload returns the payload of data's first frame, or nil.
func firstPayload(data []byte) []byte {
	var p []byte
	_, _ = scanFrames("fuzz", bytes.NewReader(data), func(b []byte) error {
		p = b
		return errStopScan
	})
	if len(p) == 0 {
		return []byte{0}
	}
	return p
}
