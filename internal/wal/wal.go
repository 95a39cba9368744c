// Package wal gives the in-memory knowledge graph (internal/kg) crash
// durability: an append-only, CRC32C-framed write-ahead log fed from the
// graph's mutation log, watermark-consistent checkpoints, and
// Open-style recovery.
//
// # Model
//
// The graph's global mutation watermark is the LSN space: mutation seq N
// in kg.Graph is LSN N in the log, so "the first W mutations" means the
// same thing in memory and on disk. A Manager attached to a graph drains
// MutationsSince into the current log segment on every Commit, writing
// entity/predicate/ontology dictionary deltas ahead of the mutations
// that reference them. Checkpoints serialize the whole graph under the
// all-shard cut (AllTriplesSnapshot) in identity order — exactly the
// order AssertBatch's merge-append restore path detects in O(n) — then
// truncate the log: older segments and checkpoints are deleted, and the
// graph's own in-memory mutation log is compacted via TruncateLog.
//
// # Durability contract
//
// One of two fsync policies decides which prefix survives a crash:
//
//   - SyncEachCommit: every Commit fsyncs before returning; DurableLSN
//     tracks the last committed LSN. Nothing acknowledged is ever lost.
//   - SyncNever: fsync only at checkpoint/close; the durable watermark is
//     the newest checkpoint (plus whatever the OS happened to write back).
//
// Under either policy the recovery guarantee is the same shape: Open restores a
// watermark-consistent prefix of the mutation history — the state after
// exactly the first W mutations for the recovered watermark W — with
// W >= DurableLSN as of the crash. Torn or corrupt log tails are
// truncated and reported as diagnostics in RecoveryInfo, never a panic.
// SyncToWatermark is the explicit barrier: after it returns nil, every
// mutation at or below the given watermark is on disk regardless of
// policy.
//
// Entity record updates (SetPopularity/UpdateEntity) carry no LSN but
// are drained from the graph's dirty-entity set on every Commit and
// logged as record-update entries, so like dictionary registrations
// they are durable as of the first Commit after the update (and always
// as of a checkpoint). Replay applies them in written order, so
// last-write-wins reproduces the crash-time record state.
//
// # As-of reads and retention
//
// The manager is also the platform's time-travel substrate. With
// Options.RetainCheckpoints = N > 1, a checkpoint no longer deletes all
// superseded files: the newest N checkpoints survive, along with every
// log segment needed to replay forward from the oldest retained one.
// SnapshotAt(asOf) picks the newest retained checkpoint at or below
// asOf, loads it into a fresh immutable base graph (cached — bases are
// shared across reads), and collects the mutation suffix
// (checkpoint, asOf] from the retained segments. The pair feeds a
// graphengine read overlay that answers queries pinned at watermark
// asOf without touching live state. Watermarks below the oldest
// retained checkpoint are gone — SnapshotAt reports them as outside
// retention. The graph's in-memory mutation log is still truncated at
// the newest checkpoint (as-of reads replay from disk, not memory).
package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"saga/internal/kg"
)

// SyncPolicy selects when the log is fsynced (see the package doc's
// durability contract).
type SyncPolicy int

const (
	// SyncEachCommit fsyncs inside every Commit (the default).
	SyncEachCommit SyncPolicy = iota
	// SyncNever fsyncs only at checkpoints and Close.
	SyncNever
)

// Options configure Open.
type Options struct {
	// FS is the filesystem; nil selects the real one (OSFS).
	FS FS
	// Sync is the fsync policy.
	Sync SyncPolicy
	// CheckpointEvery triggers an automatic checkpoint once that many
	// mutations have been committed past the previous checkpoint.
	// 0 disables automatic checkpoints (Checkpoint stays available).
	CheckpointEvery uint64
	// KeepGraphLog disables the TruncateLog call after a checkpoint,
	// preserving the graph's full in-memory mutation log. Consumers that
	// want a Feed(0) pull to stay complete (tests, shadow replicas) set
	// this; servers leave it off so the log stays bounded.
	KeepGraphLog bool
	// RetainCheckpoints keeps the newest N checkpoints on disk (plus the
	// log segments needed to replay between them and the live tail)
	// instead of eagerly deleting everything a new checkpoint
	// supersedes. Retained history is what SnapshotAt serves as-of reads
	// from: any watermark at or above the oldest retained checkpoint
	// stays readable. 0 and 1 both mean "newest only" — the eager
	// behavior.
	RetainCheckpoints int
}

func (o Options) fs() FS {
	if o.FS == nil {
		return OSFS{}
	}
	return o.FS
}

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// CheckpointLSN is the watermark of the checkpoint loaded (0 = none).
	CheckpointLSN uint64
	// RecoveredLSN is the graph watermark after log replay.
	RecoveredLSN uint64
	// SegmentsReplayed counts log segments scanned.
	SegmentsReplayed int
	// MutationsReplayed counts mutations applied from the log suffix.
	MutationsReplayed int
	// TruncatedBytes counts log bytes discarded as torn or corrupt.
	TruncatedBytes int64
	// Diagnostics describes every anomaly handled during recovery (torn
	// tails, dropped segments, leftover temp files). Recovery succeeding
	// with diagnostics means a consistent prefix was restored.
	Diagnostics []string
}

// ErrClosed is returned by operations on a closed Manager.
var ErrClosed = errors.New("wal: manager closed")

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	tmpPrefix  = "tmp-"
)

func segName(gen uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, gen, segSuffix) }
func ckptName(wm uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, wm, ckptSuffix) }
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var v uint64
	if _, err := fmt.Sscanf(mid, "%016x", &v); err != nil || len(mid) != 16 {
		return 0, false
	}
	return v, true
}

// Manager couples a kg.Graph to a WAL directory. All methods are safe
// for concurrent use; Commit/Checkpoint/Close serialize on one mutex.
// After any write or sync error the manager latches into a failed state
// (the segment's tail is in an unknown condition) and every subsequent
// operation returns the latched error; the graph itself keeps working,
// only durability is lost.
type Manager struct {
	fs   FS
	dir  string
	g    *kg.Graph
	opts Options

	durable atomic.Uint64 // highest fsync-acknowledged LSN

	mu      sync.Mutex
	seg     File
	segPath string
	gen     uint64
	// feed is the manager's changefeed over the graph's mutation log; its
	// cursor is the highest LSN written (not necessarily synced) to the
	// log. An incomplete pull latches the manager: only checkpointLocked
	// truncates the graph log, after resetting the feed, so the floor
	// passing the cursor means an external TruncateLog silently dropped
	// unlogged mutations.
	feed    *kg.Changefeed
	ckptLSN uint64 // watermark of the newest durable checkpoint
	// ckpts tracks the watermarks of the checkpoints currently on disk,
	// ascending; segFirst maps each on-disk segment generation to its
	// header firstLSN (the last LSN before the segment's first record).
	// Both drive retention deletion and as-of suffix collection.
	ckpts    []uint64
	segFirst map[uint64]uint64
	// asofBases caches checkpoint base graphs loaded for SnapshotAt,
	// keyed by checkpoint watermark. Bases are immutable once loaded.
	asofBases map[uint64]*kg.Graph
	// dictionary cursors: highest entity/predicate/ontology-type ID
	// already shipped to the log.
	entCur, predCur, ontCur int
	failed                  error
	closed                  bool
	// commitMuts and commitBuf are commitLocked's drain and framing
	// buffers, reused across commits so a steady stream of small batches
	// allocates nothing per record (see retainCommitBuffers).
	commitMuts []kg.Mutation
	commitBuf  []byte
}

// Open attaches durability to g, recovering any prior state found in
// dir. g must be empty (no entities, no mutations): recovery rebuilds
// the dictionaries, ontology, triples, and watermark into it, and an
// empty dir yields an empty recovery. On success the returned manager
// owns a fresh active segment and g's watermark equals
// RecoveryInfo.RecoveredLSN.
func Open(dir string, g *kg.Graph, opts Options) (*Manager, *RecoveryInfo, error) {
	if g.LastSeq() != 0 || g.NumEntities() != 0 || g.NumPredicates() != 0 || g.Ontology().Len() != 0 {
		return nil, nil, errors.New("wal: Open requires an empty graph (use ImportGraph to seed one through a manager)")
	}
	fs := opts.fs()
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	info := &RecoveryInfo{}
	maxGen, err := recoverState(fs, dir, g, info)
	if err != nil {
		return nil, info, err
	}
	m := &Manager{
		fs:       fs,
		dir:      dir,
		g:        g,
		opts:     opts,
		gen:      maxGen, // openSegment bumps to maxGen+1
		feed:     g.Feed(g.LastSeq()),
		ckptLSN:  info.CheckpointLSN,
		segFirst: make(map[uint64]uint64),
		entCur:   g.NumEntities(),
		predCur:  g.NumPredicates(),
		ontCur:   g.Ontology().Len(),
	}
	m.durable.Store(g.LastSeq())
	// Index the surviving files: retention deletion and as-of suffix
	// collection need each checkpoint's watermark and each segment's
	// firstLSN without re-reading the directory per decision.
	if names, derr := fs.ReadDir(dir); derr == nil {
		for _, n := range names {
			if w, ok := parseName(n, ckptPrefix, ckptSuffix); ok {
				m.ckpts = append(m.ckpts, w)
			} else if gen, ok := parseName(n, segPrefix, segSuffix); ok {
				if first, herr := readSegFirstLSN(fs, filepath.Join(dir, n)); herr == nil {
					m.segFirst[gen] = first
				}
			}
		}
		sort.Slice(m.ckpts, func(i, j int) bool { return m.ckpts[i] < m.ckpts[j] })
	}
	if err := m.openSegmentLocked(); err != nil {
		return nil, info, err
	}
	return m, info, nil
}

// openSegmentLocked creates the next log segment (gen+1), writes its
// header, and makes its directory entry durable.
func (m *Manager) openSegmentLocked() error {
	m.gen++
	name := segName(m.gen)
	path := filepath.Join(m.dir, name)
	f, err := m.fs.Create(path)
	if err != nil {
		return m.latch(fmt.Errorf("wal: create segment %s: %w", name, err))
	}
	first := m.feed.Cursor()
	hdr, at := beginFrame(nil)
	hdr = encSegHeader(hdr, segHeader{version: walVersion, gen: m.gen, firstLSN: first})
	endFrame(hdr, at)
	if _, err := f.Write(hdr); err != nil {
		return m.latch(fmt.Errorf("wal: write segment header: %w", err))
	}
	if err := f.Sync(); err != nil {
		return m.latch(fmt.Errorf("wal: sync segment header: %w", err))
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		return m.latch(fmt.Errorf("wal: sync dir after segment create: %w", err))
	}
	m.seg, m.segPath = f, path
	m.segFirst[m.gen] = first
	return nil
}

func (m *Manager) latch(err error) error {
	if m.failed == nil {
		m.failed = err
	}
	return err
}

// Err returns the write or fsync error the manager has latched, or nil
// while the log is healthy. Once it is non-nil nothing further reaches
// disk: a server should stop acknowledging (and applying) writes.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

func (m *Manager) checkLocked() error {
	if m.closed {
		return ErrClosed
	}
	return m.failed
}

// Commit drains every graph mutation not yet in the log (plus the
// dictionary deltas they depend on) into the active segment, fsyncing
// per the sync policy, and returns the new applied LSN. With
// CheckpointEvery set it may also take a checkpoint.
func (m *Manager) Commit() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return m.feed.Cursor(), err
	}
	if err := m.commitLocked(); err != nil {
		return m.feed.Cursor(), err
	}
	if m.opts.Sync == SyncEachCommit {
		if err := m.syncLocked(); err != nil {
			return m.feed.Cursor(), err
		}
	}
	if m.opts.CheckpointEvery > 0 && m.feed.Cursor()-m.ckptLSN >= m.opts.CheckpointEvery {
		if err := m.checkpointLocked(); err != nil {
			return m.feed.Cursor(), err
		}
	}
	return m.feed.Cursor(), nil
}

// commitLocked writes dictionary deltas, entity record updates, and
// pending mutations to the segment. Mutations are pulled FIRST,
// dictionary deltas read after: a mutation passes graph validation only
// after its entities/predicates are registered (the dictionary lengths
// are published before the mutation is applied), so dictionary counts
// read after the pull are guaranteed to cover every ID any pulled
// mutation references. The records are then written dictionary-first so
// replay registers before it asserts.
//
// The feed's cursor advances with the pull; a write failure afterwards
// latches the manager, so the cursor never silently skips records that
// were not persisted.
//
// Every record is framed in place in one buffer the manager keeps across
// commits, and the whole commit goes out in one Write.
func (m *Manager) commitLocked() error {
	muts, complete := m.feed.PullAppend(m.commitMuts[:0])
	if !complete {
		// Cannot happen through this manager (only checkpointLocked
		// truncates, after resetting the feed); an external TruncateLog
		// call would silently lose mutations, so fail loudly.
		return m.latch(fmt.Errorf("wal: graph log truncated past applied LSN %d (floor %d)", m.feed.Cursor(), m.g.LogFloor()))
	}
	buf := m.encodeDictDeltasLocked(m.commitBuf[:0])
	var at int
	// Record updates for already-shipped entities ride every commit;
	// entities at or past the (just-advanced) cursor were shipped above
	// with their current record, so an update entry would be redundant.
	for _, id := range m.g.TakeDirtyEntities() {
		if int(id) > m.entCur {
			continue
		}
		if e := m.g.Entity(id); e != nil {
			buf, at = beginFrame(buf)
			buf = encEntityUpdate(buf, e)
			endFrame(buf, at)
		}
	}
	for i := range muts {
		buf, at = beginFrame(buf)
		buf = encMutation(buf, muts[i])
		endFrame(buf, at)
	}
	var err error
	if len(buf) > 0 {
		_, err = m.seg.Write(buf)
	}
	m.retainCommitBuffers(muts, buf)
	if err != nil {
		return m.latch(fmt.Errorf("wal: append: %w", err))
	}
	return nil
}

// Commit buffers above these sizes are released instead of kept: a bulk
// load's one huge commit must not pin tens of megabytes for the life of
// the manager.
const (
	maxRetainedCommitMuts  = 1 << 13 // ~1.2 MB of kg.Mutation
	maxRetainedCommitBytes = 1 << 20
)

// retainCommitBuffers keeps the drain and framing buffers for the next
// commit. The drained mutations are zeroed so the buffer does not keep
// their strings reachable in between.
func (m *Manager) retainCommitBuffers(muts []kg.Mutation, buf []byte) {
	m.commitMuts, m.commitBuf = nil, nil
	if cap(muts) <= maxRetainedCommitMuts {
		clear(muts)
		m.commitMuts = muts[:0]
	}
	if cap(buf) <= maxRetainedCommitBytes {
		m.commitBuf = buf[:0]
	}
}

// encodeDictDeltasLocked appends framed records for every dictionary
// entry past the cursors, advancing them.
func (m *Manager) encodeDictDeltasLocked(buf []byte) []byte {
	var at int
	ont := m.g.Ontology()
	for n := ont.Len(); m.ontCur < n; m.ontCur++ {
		id := kg.TypeID(m.ontCur + 1)
		buf, at = beginFrame(buf)
		buf = encOntType(buf, ontRec{id: id, name: ont.Name(id), parent: ont.Parent(id)})
		endFrame(buf, at)
	}
	for n := m.g.NumEntities(); m.entCur < n; m.entCur++ {
		buf, at = beginFrame(buf)
		buf = encEntity(buf, m.g.Entity(kg.EntityID(m.entCur+1)))
		endFrame(buf, at)
	}
	for n := m.g.NumPredicates(); m.predCur < n; m.predCur++ {
		buf, at = beginFrame(buf)
		buf = encPredicate(buf, m.g.Predicate(kg.PredicateID(m.predCur+1)))
		endFrame(buf, at)
	}
	return buf
}

func (m *Manager) syncLocked() error {
	if err := m.seg.Sync(); err != nil {
		return m.latch(fmt.Errorf("wal: fsync: %w", err))
	}
	if d, a := m.durable.Load(), m.feed.Cursor(); a > d {
		m.durable.Store(a)
	}
	return nil
}

// Sync commits pending mutations and fsyncs the segment, making every
// mutation up to the returned LSN durable.
func (m *Manager) Sync() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return m.durable.Load(), err
	}
	if err := m.commitLocked(); err != nil {
		return m.durable.Load(), err
	}
	if err := m.syncLocked(); err != nil {
		return m.durable.Load(), err
	}
	return m.durable.Load(), nil
}

// SyncToWatermark is the durability barrier: it returns nil only once
// every mutation with LSN <= w is fsync-durable, committing and syncing
// as needed. w above the graph's current watermark is an error.
func (m *Manager) SyncToWatermark(w uint64) error {
	if m.durable.Load() >= w {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.durable.Load() >= w {
		return nil
	}
	if err := m.checkLocked(); err != nil {
		return err
	}
	if err := m.commitLocked(); err != nil {
		return err
	}
	if m.feed.Cursor() < w {
		return fmt.Errorf("wal: SyncToWatermark(%d) beyond graph watermark %d", w, m.feed.Cursor())
	}
	return m.syncLocked()
}

// DurableLSN returns the highest fsync-acknowledged LSN: every mutation
// at or below it survives any crash.
func (m *Manager) DurableLSN() uint64 { return m.durable.Load() }

// AppliedLSN returns the highest LSN written (not necessarily synced) to
// the log — the manager's changefeed cursor.
func (m *Manager) AppliedLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.feed.Cursor()
}

// RetainedCheckpoints returns how many checkpoints are currently on
// disk (at most Options.RetainCheckpoints after the next checkpoint).
func (m *Manager) RetainedCheckpoints() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ckpts)
}

// CheckpointLSN returns the watermark of the newest durable checkpoint.
func (m *Manager) CheckpointLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ckptLSN
}

// Checkpoint serializes the full graph state under one consistent cut,
// makes it durable, rotates the log, deletes superseded files, and
// compacts the graph's in-memory mutation log (unless KeepGraphLog).
// Returns the checkpoint watermark.
func (m *Manager) Checkpoint() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return m.ckptLSN, err
	}
	if err := m.checkpointLocked(); err != nil {
		return m.ckptLSN, err
	}
	return m.ckptLSN, nil
}

// ckptTripleBlockSize is how many triples share one checkpoint frame.
// Large enough to amortize the frame header, CRC pass, and scan dispatch
// to noise; small enough that a torn tail or corrupt frame loses little.
const ckptTripleBlockSize = 512

func (m *Manager) checkpointLocked() error {
	// Drain pending mutations first so the old segment is complete up to
	// some LSN <= wm; everything the snapshot covers beyond that is in
	// the checkpoint itself.
	if err := m.commitLocked(); err != nil {
		return err
	}
	ts, wm := m.g.AllTriplesSnapshot()
	// Dictionary state is read after the snapshot: registrations are not
	// watermarked, and extras beyond wm are harmless on restore (replay
	// dict records dedup by key/name).
	ont := m.g.Ontology()
	nOnt, nEnt, nPred := ont.Len(), m.g.NumEntities(), m.g.NumPredicates()

	name := ckptName(wm)
	tmp := filepath.Join(m.dir, tmpPrefix+name)
	f, err := m.fs.Create(tmp)
	if err != nil {
		return m.latch(fmt.Errorf("wal: create checkpoint: %w", err))
	}
	buf, at := beginFrame(nil)
	buf = encCkptHeader(buf, ckptHeader{
		watermark: wm,
		nEntities: uint64(nEnt),
		nPreds:    uint64(nPred),
		nOntTypes: uint64(nOnt),
		nTriples:  uint64(len(ts)),
	})
	endFrame(buf, at)
	for id := kg.TypeID(1); int(id) <= nOnt; id++ {
		buf, at = beginFrame(buf)
		buf = encOntType(buf, ontRec{id: id, name: ont.Name(id), parent: ont.Parent(id)})
		endFrame(buf, at)
	}
	for id := kg.EntityID(1); int(id) <= nEnt; id++ {
		buf, at = beginFrame(buf)
		buf = encEntity(buf, m.g.Entity(id))
		endFrame(buf, at)
	}
	for id := kg.PredicateID(1); int(id) <= nPred; id++ {
		buf, at = beginFrame(buf)
		buf = encPredicate(buf, m.g.Predicate(id))
		endFrame(buf, at)
	}
	// Triples are framed in blocks (many triples per CRC frame) so
	// recovery amortizes the per-frame scan-and-dispatch cost, and
	// flushed in chunks so checkpointing a large graph does not hold the
	// whole serialized image in memory alongside the triples.
	const chunk = 1 << 20
	for start := 0; start < len(ts); start += ckptTripleBlockSize {
		end := min(start+ckptTripleBlockSize, len(ts))
		buf, at = beginFrame(buf)
		buf = encTripleBlock(buf, ts[start:end])
		endFrame(buf, at)
		if len(buf) >= chunk {
			if _, err := f.Write(buf); err != nil {
				return m.latch(fmt.Errorf("wal: write checkpoint: %w", err))
			}
			buf = buf[:0]
		}
	}
	buf, at = beginFrame(buf)
	buf = encCkptFooter(buf, ckptFooter{watermark: wm, nTriples: uint64(len(ts))})
	endFrame(buf, at)
	if _, err := f.Write(buf); err != nil {
		return m.latch(fmt.Errorf("wal: write checkpoint: %w", err))
	}
	if err := f.Sync(); err != nil {
		return m.latch(fmt.Errorf("wal: sync checkpoint: %w", err))
	}
	if err := f.Close(); err != nil {
		return m.latch(fmt.Errorf("wal: close checkpoint: %w", err))
	}
	final := filepath.Join(m.dir, name)
	if err := m.fs.Rename(tmp, final); err != nil {
		return m.latch(fmt.Errorf("wal: publish checkpoint: %w", err))
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		return m.latch(fmt.Errorf("wal: sync dir after checkpoint: %w", err))
	}
	// The checkpoint is durable: it subsumes every mutation <= wm, so
	// both cursors advance even if the log itself was never fsynced.
	m.ckptLSN = wm
	if len(m.ckpts) == 0 || m.ckpts[len(m.ckpts)-1] != wm {
		m.ckpts = append(m.ckpts, wm)
	}
	if m.feed.Cursor() < wm {
		m.feed.Reset(wm)
	}
	if d := m.durable.Load(); wm > d {
		m.durable.Store(wm)
	}
	// Advance dictionary cursors past everything the checkpoint captured
	// so the new segment does not re-ship it.
	m.ontCur, m.entCur, m.predCur = nOnt, nEnt, nPred

	// Rotate: retire the old segment, open a fresh one, then apply the
	// retention policy. Deletion durability is best-effort (a leftover
	// old segment or checkpoint is ignored by recovery).
	if err := m.seg.Sync(); err != nil {
		return m.latch(fmt.Errorf("wal: sync old segment: %w", err))
	}
	if err := m.seg.Close(); err != nil {
		return m.latch(fmt.Errorf("wal: close old segment: %w", err))
	}
	oldGen := m.gen
	if err := m.openSegmentLocked(); err != nil {
		return err
	}
	m.applyRetentionLocked(oldGen)
	if !m.opts.KeepGraphLog {
		m.g.TruncateLog(wm)
	}
	return nil
}

// applyRetentionLocked deletes the checkpoints beyond Options.
// RetainCheckpoints (oldest first) and every retired log segment whose content is entirely at or below the oldest retained
// checkpoint's watermark. A segment's content spans (firstLSN, next
// segment's firstLSN], so segment g is dead once its successor's
// firstLSN is at or below that watermark; firstLSN is non-decreasing
// across generations, which makes deletability a prefix property.
// oldGen is the just-retired generation — the active segment is never
// deleted.
func (m *Manager) applyRetentionLocked(oldGen uint64) {
	retain := m.opts.RetainCheckpoints
	if retain < 1 {
		retain = 1
	}
	if drop := len(m.ckpts) - retain; drop > 0 {
		for _, w := range m.ckpts[:drop] {
			_ = m.fs.Remove(filepath.Join(m.dir, ckptName(w)))
		}
		m.ckpts = append(m.ckpts[:0], m.ckpts[drop:]...)
	}
	if len(m.ckpts) == 0 {
		return
	}
	floor := m.ckpts[0] // oldest retained watermark; history below it is gone
	for w := range m.asofBases {
		if w < floor {
			delete(m.asofBases, w)
		}
	}
	gens := make([]uint64, 0, len(m.segFirst))
	for g := range m.segFirst {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for i, g := range gens {
		if g > oldGen || i+1 >= len(gens) || m.segFirst[gens[i+1]] > floor {
			break
		}
		_ = m.fs.Remove(filepath.Join(m.dir, segName(g)))
		delete(m.segFirst, g)
	}
	_ = m.fs.SyncDir(m.dir)
}

// Close flushes and fsyncs all pending state and closes the segment.
// The graph stays usable; further mutations are simply no longer logged.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.closed = true
	if m.failed != nil {
		return m.failed
	}
	if err := m.commitLocked(); err != nil {
		return err
	}
	if err := m.syncLocked(); err != nil {
		return err
	}
	if err := m.seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return nil
}

// ImportGraph copies src's ontology, dictionaries, and triples into the
// empty graph dst in ID order, so every ID is preserved. It is how a
// graph built without durability (a generated world, a bulk load) is
// seeded into a durable one: Open an empty graph, ImportGraph into it,
// then Checkpoint.
func ImportGraph(dst, src *kg.Graph) error {
	if dst.LastSeq() != 0 || dst.NumEntities() != 0 {
		return errors.New("wal: ImportGraph requires an empty destination")
	}
	srcOnt, dstOnt := src.Ontology(), dst.Ontology()
	for id := kg.TypeID(1); int(id) <= srcOnt.Len(); id++ {
		got, err := dstOnt.AddType(srcOnt.Name(id), srcOnt.Parent(id))
		if err != nil {
			return fmt.Errorf("wal: import ontology: %w", err)
		}
		if got != id {
			return fmt.Errorf("wal: import ontology: type %q got ID %v, want %v", srcOnt.Name(id), got, id)
		}
	}
	for i := 1; i <= src.NumEntities(); i++ {
		e := src.Entity(kg.EntityID(i))
		got, err := dst.AddEntity(*e)
		if err != nil {
			return fmt.Errorf("wal: import entity: %w", err)
		}
		if got != e.ID {
			return fmt.Errorf("wal: import entity %q: got ID %v, want %v", e.Key, got, e.ID)
		}
	}
	for i := 1; i <= src.NumPredicates(); i++ {
		p := src.Predicate(kg.PredicateID(i))
		got, err := dst.AddPredicate(*p)
		if err != nil {
			return fmt.Errorf("wal: import predicate: %w", err)
		}
		if got != p.ID {
			return fmt.Errorf("wal: import predicate %q: got ID %v, want %v", p.Name, got, p.ID)
		}
	}
	ts := src.AllTriples()
	added, err := dst.AssertBatch(ts)
	if err != nil {
		return fmt.Errorf("wal: import triples: %w", err)
	}
	if added != len(ts) {
		return fmt.Errorf("wal: import triples: %d of %d added", added, len(ts))
	}
	return nil
}

// --- recovery -----------------------------------------------------------

// recoverState loads the newest checkpoint and replays the log suffix
// into g, returning the highest segment generation seen on disk.
func recoverState(fs FS, dir string, g *kg.Graph, info *RecoveryInfo) (maxGen uint64, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: read dir: %w", err)
	}
	var ckpts []uint64
	var segs []uint64
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, tmpPrefix):
			// Leftover from a checkpoint interrupted before publish.
			if rerr := fs.Remove(filepath.Join(dir, n)); rerr == nil {
				info.Diagnostics = append(info.Diagnostics, fmt.Sprintf("removed leftover temp file %s", n))
			}
		default:
			if w, ok := parseName(n, ckptPrefix, ckptSuffix); ok {
				ckpts = append(ckpts, w)
			} else if gen, ok := parseName(n, segPrefix, segSuffix); ok {
				segs = append(segs, gen)
				if gen > maxGen {
					maxGen = gen
				}
			} else {
				info.Diagnostics = append(info.Diagnostics, fmt.Sprintf("ignoring unrecognized file %s", n))
			}
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	// Load the newest checkpoint. Older checkpoints are not a fallback:
	// taking checkpoint W deletes the segments covering (0, W], so state
	// before the newest checkpoint is simply gone — a corrupt newest
	// checkpoint (a fully-fsynced file, not a crash artifact) is
	// unrecoverable data loss and must surface as an error, not as a
	// silently emptier graph.
	if len(ckpts) > 0 {
		wm := ckpts[0]
		if err := loadCheckpoint(fs, dir, ckptName(wm), wm, g); err != nil {
			return maxGen, fmt.Errorf("wal: checkpoint %s unusable: %w", ckptName(wm), err)
		}
		info.CheckpointLSN = wm
	}

	// Replay segments in generation order. The first anomaly (torn tail,
	// CRC failure, LSN gap, replay mismatch) ends the usable suffix:
	// everything after it in this segment and all later segments is
	// discarded so the next incarnation's log stays contiguous.
	stopped := false
	for _, gen := range segs {
		name := segName(gen)
		path := filepath.Join(dir, name)
		if stopped {
			if rerr := fs.Remove(path); rerr == nil {
				info.Diagnostics = append(info.Diagnostics, fmt.Sprintf("dropped segment %s past recovery stop point", name))
			}
			continue
		}
		good, torn, replayed, diag, rerr := replaySegment(fs, path, name, gen, g)
		info.SegmentsReplayed++
		info.MutationsReplayed += replayed
		if diag != "" {
			info.Diagnostics = append(info.Diagnostics, diag)
		}
		if rerr != nil {
			return maxGen, rerr
		}
		if diag != "" {
			// Truncate the bad tail so old garbage cannot be misread as
			// fresh records later, then drop every later segment.
			info.TruncatedBytes += torn
			if terr := fs.Truncate(path, good); terr == nil {
				info.Diagnostics = append(info.Diagnostics, fmt.Sprintf("truncated %s to %d bytes (%d discarded)", name, good, torn))
			}
			stopped = true
		}
	}
	_ = fs.SyncDir(dir)
	info.RecoveredLSN = g.LastSeq()
	return maxGen, nil
}

// loadCheckpoint restores one checkpoint file into the empty graph g.
// Any integrity failure (bad frame, missing footer, count mismatch,
// ID drift) is an error; the caller decides whether that is fatal.
func loadCheckpoint(fs FS, dir, name string, wantWM uint64, g *kg.Graph) error {
	r, err := fs.OpenRead(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer r.Close()

	var hdr ckptHeader
	sawHeader, sawFooter := false, false
	var triples []kg.Triple
	err = func() error {
		_, err := scanFrames(name, r, func(p []byte) error {
			if len(p) == 0 {
				return errors.New("empty payload")
			}
			if !sawHeader {
				if p[0] != recCheckpointHeader {
					return fmt.Errorf("first record type %d, want checkpoint header", p[0])
				}
				h, err := decCkptHeader(p)
				if err != nil {
					return err
				}
				if h.watermark != wantWM {
					return fmt.Errorf("header watermark %d, want %d (filename)", h.watermark, wantWM)
				}
				hdr, sawHeader = h, true
				return nil
			}
			if sawFooter {
				return errors.New("records after footer")
			}
			switch p[0] {
			case recOntType, recEntity, recPredicate:
				return applyDictRecord(g, p)
			case recTriple:
				// Single-triple frames: the pre-block checkpoint format,
				// still accepted so old checkpoints restore.
				t, err := decTriple(p)
				if err != nil {
					return err
				}
				triples = append(triples, t)
				return nil
			case recTripleBlock:
				return decTripleBlock(p, func(t kg.Triple) error {
					triples = append(triples, t)
					return nil
				})
			case recCheckpointFooter:
				f, err := decCkptFooter(p)
				if err != nil {
					return err
				}
				if f.watermark != hdr.watermark || f.nTriples != uint64(len(triples)) {
					return fmt.Errorf("footer (wm=%d n=%d) disagrees with body (wm=%d n=%d)",
						f.watermark, f.nTriples, hdr.watermark, len(triples))
				}
				sawFooter = true
				return nil
			default:
				return fmt.Errorf("unexpected record type %d in checkpoint", p[0])
			}
		})
		return err
	}()
	if err != nil {
		return err
	}
	if !sawHeader || !sawFooter {
		return errors.New("incomplete checkpoint (missing header or footer)")
	}
	if uint64(g.NumEntities()) != hdr.nEntities || uint64(g.NumPredicates()) != hdr.nPreds ||
		uint64(g.Ontology().Len()) != hdr.nOntTypes {
		return fmt.Errorf("dictionary counts (%d ent, %d pred, %d ont) disagree with header (%d, %d, %d)",
			g.NumEntities(), g.NumPredicates(), g.Ontology().Len(), hdr.nEntities, hdr.nPreds, hdr.nOntTypes)
	}
	// The checkpoint wrote triples in identity order (AllTriplesSnapshot),
	// so this restore takes AssertBatch's merge-append fast path.
	added, err := g.AssertBatch(triples)
	if err != nil {
		return fmt.Errorf("restore triples: %w", err)
	}
	if added != len(triples) {
		return fmt.Errorf("restore triples: %d of %d added (duplicates in checkpoint)", added, len(triples))
	}
	// Fast-forward the graph's watermark into the durable LSN space: the
	// restored state IS the state after the first wm mutations.
	if err := g.AdvanceWatermark(hdr.watermark); err != nil {
		return err
	}
	return nil
}

// applyDictRecord registers one dictionary record, enforcing that replay
// reproduces the original dense ID (registrations are append-only and
// replayed in written order, so any drift means corruption). Records for
// already-registered IDs — the overlap between a checkpoint's full dump
// and the log suffix's deltas — are verified against the existing entry.
func applyDictRecord(g *kg.Graph, p []byte) error {
	switch p[0] {
	case recOntType:
		r, err := decOntType(p)
		if err != nil {
			return err
		}
		got, err := g.Ontology().AddType(r.name, r.parent)
		if err != nil {
			return fmt.Errorf("replay ontology type %q: %w", r.name, err)
		}
		if got != r.id {
			return fmt.Errorf("replay ontology type %q: got ID %v, want %v", r.name, got, r.id)
		}
	case recEntity:
		e, err := decEntity(p)
		if err != nil {
			return err
		}
		got, err := g.AddEntity(e)
		if err != nil {
			return fmt.Errorf("replay entity %q: %w", e.Key, err)
		}
		if got != e.ID {
			return fmt.Errorf("replay entity %q: got ID %v, want %v", e.Key, got, e.ID)
		}
	case recPredicate:
		pr, err := decPredicate(p)
		if err != nil {
			return err
		}
		got, err := g.AddPredicate(pr)
		if err != nil {
			return fmt.Errorf("replay predicate %q: %w", pr.Name, err)
		}
		if got != pr.ID {
			return fmt.Errorf("replay predicate %q: got ID %v, want %v", pr.Name, got, pr.ID)
		}
	}
	return nil
}

// replayStop signals a non-corrupt-frame replay anomaly (LSN gap, apply
// mismatch, malformed record); the scan stops before the offending frame
// and the tail is discarded.
type replayStop struct{ reason string }

func (e *replayStop) Error() string { return e.reason }

// replaySegment scans one segment, applying dictionary records and every
// mutation that extends the graph's watermark. It returns the byte
// length of the applied prefix, the count of tail bytes past it, the
// number of mutations applied, a non-empty diagnostic if the segment's
// tail was unusable, and a fatal error only for FS-level read failures.
func replaySegment(fs FS, path, name string, gen uint64, g *kg.Graph) (good, torn int64, replayed int, diag string, err error) {
	rc, err := fs.OpenRead(path)
	if err != nil {
		return 0, 0, 0, "", fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer rc.Close()
	r := &countReader{r: rc}
	sawHeader := false
	good, serr := scanFrames(name, r, func(p []byte) error {
		if len(p) == 0 {
			return &replayStop{reason: "empty payload"}
		}
		if !sawHeader {
			if p[0] != recSegmentHeader {
				return &replayStop{reason: fmt.Sprintf("first record type %d, want segment header", p[0])}
			}
			h, err := decSegHeader(p)
			if err != nil {
				return &replayStop{reason: err.Error()}
			}
			if h.version != walVersion {
				return &replayStop{reason: fmt.Sprintf("unsupported version %d", h.version)}
			}
			if h.gen != gen {
				return &replayStop{reason: fmt.Sprintf("header generation %d, filename generation %d", h.gen, gen)}
			}
			sawHeader = true
			return nil
		}
		switch p[0] {
		case recOntType, recEntity, recPredicate:
			if err := applyDictRecord(g, p); err != nil {
				return &replayStop{reason: err.Error()}
			}
			return nil
		case recEntityUpdate:
			// Record updates carry no LSN; written order IS the update
			// order, so last-write-wins replay reproduces the final
			// record state (a checkpoint's copy is re-overwritten by the
			// updates that preceded it, landing on the same value).
			e, err := decEntityUpdate(p)
			if err != nil {
				return &replayStop{reason: err.Error()}
			}
			if err := g.ReplaceEntity(e); err != nil {
				return &replayStop{reason: fmt.Sprintf("replay entity update: %v", err)}
			}
			return nil
		case recMutation:
			mu, err := decMutation(p)
			if err != nil {
				return &replayStop{reason: err.Error()}
			}
			last := g.LastSeq()
			if mu.Seq <= last {
				return nil // covered by the checkpoint (or a re-shipped prefix)
			}
			if mu.Seq != last+1 {
				return &replayStop{reason: fmt.Sprintf("LSN gap: log continues at %d, graph watermark %d", mu.Seq, last)}
			}
			switch mu.Op {
			case kg.OpAssert:
				added, err := g.AssertNew(mu.T)
				if err != nil {
					return &replayStop{reason: fmt.Sprintf("replay LSN %d: %v", mu.Seq, err)}
				}
				if !added {
					return &replayStop{reason: fmt.Sprintf("replay LSN %d: assert was a duplicate", mu.Seq)}
				}
			case kg.OpRetract:
				if !g.Retract(mu.T) {
					return &replayStop{reason: fmt.Sprintf("replay LSN %d: retract of absent fact", mu.Seq)}
				}
			}
			replayed++
			return nil
		default:
			return &replayStop{reason: fmt.Sprintf("unexpected record type %d in segment", p[0])}
		}
	})
	// Drain whatever the scan left unread so torn counts the whole
	// discarded tail, not just the bytes the scanner happened to touch.
	_, _ = io.Copy(io.Discard, r)
	torn = r.n - good
	switch e := serr.(type) {
	case nil:
		return good, torn, replayed, "", nil
	case *CorruptError:
		return good, torn, replayed, e.Error(), nil
	case *replayStop:
		return good, torn, replayed, fmt.Sprintf("wal: replay stopped in %s at offset %d: %s", name, good, e.reason), nil
	default:
		return good, torn, replayed, "", fmt.Errorf("wal: read segment %s: %w", name, serr)
	}
}

// countReader counts bytes delivered from the wrapped reader.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
