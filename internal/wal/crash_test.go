package wal

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"saga/internal/kg"
)

// The crash matrix: run a scripted workload against a fault-armed
// FaultFS, kill the writer at an arbitrary point (every Nth byte offset,
// or the Nth fsync), collapse the filesystem to its post-reset image,
// recover, and require — for every kill point —
//
//  1. no panic, and Open succeeds;
//  2. the recovered watermark W satisfies acked <= W <= applied, where
//     acked is the writer's DurableLSN at the kill (no fsync-acknowledged
//     mutation is ever lost);
//  3. the recovered state equals a from-scratch replay of the first W
//     mutations of the writer's history (watermark consistency: a prefix,
//     exactly);
//  4. recovered entity records honor acknowledged in-place updates: the
//     script's popularity updates are monotone per entity, so every
//     recovered record must sit between the value at the last
//     acknowledged commit and the final value the writer applied;
//  5. the recovered incarnation can keep writing, checkpoint, close, and
//     reopen cleanly (the repaired log stays contiguous).
//
// Seeds come from WAL_CRASH_SEEDS (comma-separated) so scripts/crashtest.sh
// can widen the sweep; WAL_CRASH_POINTS controls kill-point density.

func crashSeeds(t *testing.T) []int64 {
	env := os.Getenv("WAL_CRASH_SEEDS")
	if env == "" {
		env = "1,2,3"
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("WAL_CRASH_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

func crashPoints() int {
	if env := os.Getenv("WAL_CRASH_POINTS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return 40
}

const scenarioSteps = 400

// The checkpoint schedule: a full checkpoint over the first 150 steps,
// two deltas chained to it, then — after a burst retracting most facts —
// a checkpoint the chain rule compacts to a full one. Kill points land
// inside delta writes and recoveries run through a chain.
var scenarioCheckpoints = map[int]bool{149: true, 199: true, 249: true, 349: true}

const scenarioBurst = 300

// runScenario drives the scripted workload for one seed over fs until it
// completes or the first injected failure, returning the writer graph
// (with its full mutation history), the fsync-acknowledged watermark at
// the moment of death, and the kind of every checkpoint taken in order
// ("F" full, "D" delta).
func runScenario(t *testing.T, seed int64, fs *FaultFS) (g *kg.Graph, acked, applied uint64, ackedPops, finalPops map[kg.EntityID]float64, kinds string) {
	t.Helper()
	g = kg.NewGraphWithShards(4)
	g.Feed(0)
	m, _, err := Open(testDir, g, Options{FS: fs, Sync: SyncEachCommit})
	if err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("Open failed with a non-injected error: %v", err)
		}
		return g, 0, g.LastSeq(), nil, nil, ""
	}
	s := newScripted(t, g, seed)
	broken := false
	for i := 0; i < scenarioSteps; i++ {
		s.step()
		if i == scenarioBurst {
			s.retractMost()
		}
		var err error
		synced := false
		switch {
		case scenarioCheckpoints[i]:
			_, err = m.Checkpoint()
			synced = err == nil
			if synced && m.files[m.ckptLSN].base != 0 {
				kinds += "D"
			} else if synced {
				kinds += "F"
			}
		case i%7 == 6:
			_, err = m.Commit()
			synced = err == nil
		}
		if synced {
			ackedPops = s.snapshotPops()
		}
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("step %d failed with a non-injected error: %v", i, err)
			}
			broken = true
			break
		}
	}
	if !broken {
		switch err := m.Close(); {
		case err == nil:
			ackedPops = s.snapshotPops()
		case !errors.Is(err, ErrInjected):
			t.Fatalf("Close failed with a non-injected error: %v", err)
		}
	}
	return g, m.DurableLSN(), g.LastSeq(), ackedPops, s.snapshotPops(), kinds
}

// checkRecovery reopens the crashed image and enforces the matrix
// invariants, then runs the continuation leg.
func checkRecovery(t *testing.T, label string, writer *kg.Graph, acked, applied uint64, ackedPops, finalPops map[kg.EntityID]float64, crashed *FaultFS) {
	t.Helper()
	g2 := kg.NewGraphWithShards(4)
	g2.Feed(0)
	m2, info, err := Open(testDir, g2, Options{FS: crashed, Sync: SyncEachCommit})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v (info %+v)", label, err, info)
	}
	wm := info.RecoveredLSN
	if wm != g2.LastSeq() {
		t.Fatalf("%s: info says LSN %d but graph watermark is %d", label, wm, g2.LastSeq())
	}
	if wm < acked {
		t.Fatalf("%s: recovered LSN %d lost fsync-acknowledged mutations (acked %d); diagnostics: %v",
			label, wm, acked, info.Diagnostics)
	}
	if wm > applied {
		t.Fatalf("%s: recovered LSN %d beyond anything applied (%d)", label, wm, applied)
	}
	sameTriples(t, replayPrefix(t, writer, wm), g2)

	// Entity-record durability: popularity updates are monotone in the
	// script, so a recovered record must never run ahead of what the
	// writer applied, nor behind what a successful commit acknowledged.
	for id, final := range finalPops {
		e := g2.Entity(id)
		if e == nil {
			continue // the record never reached the durable log
		}
		if e.Popularity > final {
			t.Fatalf("%s: entity %d recovered popularity %v beyond anything written (%v)",
				label, id, e.Popularity, final)
		}
		if floor, ok := ackedPops[id]; ok && e.Popularity < floor {
			t.Fatalf("%s: entity %d recovered popularity %v lost acknowledged update (floor %v)",
				label, id, e.Popularity, floor)
		}
	}

	// Continuation leg: the recovered incarnation must be fully writable
	// and its own shutdown/reopen must round-trip.
	id, err := g2.AddEntity(kg.Entity{Key: "post-crash", Name: "survivor"})
	if err != nil {
		t.Fatalf("%s: post-recovery AddEntity: %v", label, err)
	}
	pred, err := g2.AddPredicate(kg.Predicate{Name: "post-crash-pred"})
	if err != nil {
		t.Fatalf("%s: post-recovery AddPredicate: %v", label, err)
	}
	for i := 0; i < 5; i++ {
		if err := g2.Assert(kg.Triple{Subject: id, Predicate: pred, Object: kg.IntValue(int64(i))}); err != nil {
			t.Fatalf("%s: post-recovery Assert: %v", label, err)
		}
	}
	if _, err := m2.Commit(); err != nil {
		t.Fatalf("%s: post-recovery Commit: %v", label, err)
	}
	if _, err := m2.Checkpoint(); err != nil {
		t.Fatalf("%s: post-recovery Checkpoint: %v", label, err)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("%s: post-recovery Close: %v", label, err)
	}

	g3 := kg.NewGraphWithShards(4)
	m3, info3, err := Open(testDir, g3, Options{FS: crashed})
	if err != nil {
		t.Fatalf("%s: reopen after continuation: %v", label, err)
	}
	if g3.LastSeq() != g2.LastSeq() {
		t.Fatalf("%s: continuation lost LSNs: %d vs %d (diagnostics %v)",
			label, g3.LastSeq(), g2.LastSeq(), info3.Diagnostics)
	}
	sameTriples(t, g2, g3)
	_ = m3.Close()
}

func TestCrashMatrixWriteKills(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// Probe: full run, no faults, to learn the byte budget.
			probe := NewFaultFS(seed)
			_, _, _, _, _, kinds := runScenario(t, seed, probe)
			total := probe.BytesAccepted()
			if total == 0 {
				t.Fatal("probe run wrote nothing")
			}
			if !strings.Contains(kinds, "DD") || !strings.Contains(kinds, "DF") {
				t.Fatalf("probe run took checkpoints %q: want two chained deltas and a compaction to full", kinds)
			}
			points := crashPoints()
			stride := total / int64(points)
			if stride < 1 {
				stride = 1
			}
			for off := int64(0); off <= total; off += stride {
				fs := NewFaultFS(seed)
				fs.SetWriteBudget(off)
				writer, acked, applied, ackedPops, finalPops, _ := runScenario(t, seed, fs)
				checkRecovery(t, fmt.Sprintf("seed=%d kill@%d/%d", seed, off, total),
					writer, acked, applied, ackedPops, finalPops, fs.Crash())
			}
		})
	}
}

func TestCrashMatrixSyncFailures(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// Every sync count up to the cap: sync #n fails and the
			// process dies with it. The cap reaches through the second
			// delta of the schedule.
			const maxSyncs = 56
			for n := 0; n < maxSyncs; n++ {
				fs := NewFaultFS(seed)
				fs.SetSyncBudget(n)
				writer, acked, applied, ackedPops, finalPops, _ := runScenario(t, seed, fs)
				checkRecovery(t, fmt.Sprintf("seed=%d sync-fail@%d", seed, n),
					writer, acked, applied, ackedPops, finalPops, fs.Crash())
			}
		})
	}
}
