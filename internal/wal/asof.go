package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"saga/internal/kg"
)

// ErrOutsideRetention is returned by SnapshotAt for watermarks below the
// oldest retained checkpoint: the files needed to reconstruct that
// state have been deleted. Raise Options.RetainCheckpoints to keep more
// history.
var ErrOutsideRetention = errors.New("wal: watermark outside checkpoint retention")

// asofBaseCacheSize bounds how many checkpoint base graphs SnapshotAt
// keeps loaded. As-of reads cluster on recent watermarks, which share
// the newest one or two checkpoints.
const asofBaseCacheSize = 4

// SnapshotAt reconstructs the ingredients of a point-in-time read at
// watermark asOf: an immutable base graph restored from the newest
// retained checkpoint at or below asOf, plus the ordered mutation
// suffix (checkpoint watermark, asOf] collected from the retained log
// segments. The pair is what a graphengine read overlay joins against —
// the suffix is never applied to the base, so bases are shared across
// calls through an internal cache and must not be mutated.
//
// Pending graph mutations are committed first so the log covers asOf.
// asOf above the graph's watermark is an error; asOf below the oldest
// retained checkpoint returns ErrOutsideRetention.
func (m *Manager) SnapshotAt(asOf uint64) (base *kg.Graph, suffix []kg.Mutation, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return nil, nil, err
	}
	if m.feed.Cursor() < asOf {
		if err := m.commitLocked(); err != nil {
			return nil, nil, err
		}
	}
	if m.feed.Cursor() < asOf {
		return nil, nil, fmt.Errorf("wal: as-of watermark %d beyond graph watermark %d", asOf, m.feed.Cursor())
	}

	// Newest retained checkpoint at or below asOf. With no checkpoint at
	// all the full log is still on disk and the base is the empty graph;
	// with checkpoints but none <= asOf, the segments below the oldest
	// one are gone.
	baseWM, haveCkpt := uint64(0), false
	for _, w := range m.ckpts {
		if w > asOf {
			break
		}
		baseWM, haveCkpt = w, true
	}
	if !haveCkpt && len(m.ckpts) > 0 {
		return nil, nil, fmt.Errorf("%w: as-of %d predates oldest retained checkpoint %d", ErrOutsideRetention, asOf, m.ckpts[0])
	}

	base, err = m.loadBaseLocked(baseWM, haveCkpt)
	if err != nil {
		return nil, nil, err
	}
	suffix, err = m.collectSuffixLocked(baseWM, asOf)
	if err != nil {
		return nil, nil, err
	}
	return base, suffix, nil
}

// loadBaseLocked returns the (cached) immutable base graph for the
// checkpoint at watermark wm, restored through its chain — the empty
// graph when haveCkpt is false.
func (m *Manager) loadBaseLocked(wm uint64, haveCkpt bool) (*kg.Graph, error) {
	if g, ok := m.asofBases[wm]; ok {
		return g, nil
	}
	g := kg.NewGraph()
	if haveCkpt {
		if err := loadChain(m.fs, m.dir, wm, g); err != nil {
			return nil, fmt.Errorf("wal: load as-of base %s: %w", ckptName(wm), err)
		}
	}
	if m.asofBases == nil {
		m.asofBases = make(map[uint64]*kg.Graph)
	}
	for k := range m.asofBases {
		if len(m.asofBases) < asofBaseCacheSize {
			break
		}
		if k != wm {
			delete(m.asofBases, k)
		}
	}
	m.asofBases[wm] = g
	return g, nil
}

// errStopScan aborts a segment scan early once the collector has
// everything it needs; it is success, not corruption.
var errStopScan = errors.New("wal: stop scan")

// collectSuffixLocked reads the mutation records with sequence numbers
// in (from, to] from the on-disk segments, in LSN order. Segments
// re-ship overlapping prefixes after recovery, so duplicates are
// skipped; a gap means the history is not reconstructible and is an
// error (retention should have prevented the read).
func (m *Manager) collectSuffixLocked(from, to uint64) ([]kg.Mutation, error) {
	if from >= to {
		return nil, nil
	}
	gens := make([]uint64, 0, len(m.segFirst))
	for g := range m.segFirst {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })

	muts := make([]kg.Mutation, 0, to-from)
	last := from
	for i, gen := range gens {
		// A segment's content spans (firstLSN, successor firstLSN]; skip
		// those entirely at or below the collection start.
		if i+1 < len(gens) && m.segFirst[gens[i+1]] <= from {
			continue
		}
		if m.segFirst[gen] >= to {
			break
		}
		done, err := m.scanSegmentMutations(gen, &muts, &last, to)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	if last != to {
		return nil, fmt.Errorf("wal: as-of suffix (%d, %d] incomplete: log continues at %d", from, to, last+1)
	}
	return muts, nil
}

// scanSegmentMutations appends segment gen's mutation records in
// (*last, to] to *muts, advancing *last. done reports that to was
// reached. Non-mutation records (dictionary deltas, entity updates) are
// skipped: as-of queries resolve IDs against the live dictionaries,
// which are append-only, and render records from live state.
func (m *Manager) scanSegmentMutations(gen uint64, muts *[]kg.Mutation, last *uint64, to uint64) (done bool, err error) {
	name := segName(gen)
	rc, err := m.fs.OpenRead(filepath.Join(m.dir, name))
	if err != nil {
		return false, fmt.Errorf("wal: open segment %s for as-of read: %w", name, err)
	}
	defer rc.Close()
	var block []kg.Mutation
	_, serr := scanFrames(name, rc, func(p []byte) error {
		if len(p) == 0 || (p[0] != recFactBlock && p[0] != recMutation) {
			return nil
		}
		var err error
		if block, err = decFacts(p, block[:0]); err != nil {
			return fmt.Errorf("wal: as-of read %s: %w", name, err)
		}
		for _, mu := range block {
			switch {
			case mu.Seq <= *last:
				continue // overlap with a previous segment's re-shipped prefix
			case mu.Seq > to:
				return errStopScan
			case mu.Seq != *last+1:
				return fmt.Errorf("wal: as-of read %s: LSN gap %d -> %d", name, *last, mu.Seq)
			}
			*muts = append(*muts, mu)
			*last = mu.Seq
		}
		return nil
	})
	switch {
	case serr == nil:
		return false, nil
	case errors.Is(serr, errStopScan):
		return true, nil
	default:
		var corrupt *CorruptError
		if errors.As(serr, &corrupt) {
			// A torn active-segment tail past `to` is benign; one before
			// it would leave the suffix short, which the caller detects.
			return false, nil
		}
		return false, serr
	}
}

// readSegFirstLSN reads a segment's header firstLSN without replaying
// it, for rebuilding the segment index on Open.
func readSegFirstLSN(fs FS, path string) (uint64, error) {
	p, err := readFirstRecord(fs, path)
	if err != nil {
		return 0, err
	}
	if p[0] != recSegmentHeader {
		return 0, fmt.Errorf("wal: %s: first record is not a segment header", path)
	}
	h, err := decSegHeader(p)
	return h.firstLSN, err
}

// readFirstRecord returns a copy of the payload of the first record of
// the file at path, reading no further than its frame.
func readFirstRecord(fs FS, path string) ([]byte, error) {
	rc, err := fs.OpenRead(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	var first []byte
	_, serr := scanFrames(path, io.LimitReader(rc, 1<<16), func(p []byte) error {
		first = append([]byte(nil), p...)
		return errStopScan
	})
	switch {
	case errors.Is(serr, errStopScan):
		return first, nil
	case serr != nil:
		return nil, serr
	}
	return nil, fmt.Errorf("wal: %s: empty file", path)
}
