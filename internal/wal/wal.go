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
// its changefeed into the current log segment on every Commit, writing
// entity/predicate/ontology dictionary deltas ahead of the mutations
// that reference them.
//
// A fact is written in one form, the fact block (record.go): up to 512
// facts in one CRC frame, each a header byte and varints, its provenance
// left out when it is zero or repeats the previous entry's. A commit
// frames its mutations as fact blocks, numbered from the block's first
// LSN; a checkpoint frames its retracted keys and added facts the same
// way. A block decodes on its own.
//
// A checkpoint records the state at a watermark W. Most are deltas: the
// net change since the newest checkpoint B, which the delta names as its
// base — fact keys retracted, facts added with their provenance, and the
// dictionary entries and entity records new or updated since — folded
// from the graph's in-memory log window (B, W] (kg.Graph.NetChangeSince),
// which the manager keeps in memory by holding a changefeed open at B.
// Writing one costs O(change), not O(graph). A full checkpoint — the
// whole graph under the all-shard cut (AllTriplesSnapshot) — is the same
// format with base 0 and no retractions, so there is one writer and one
// loader; added facts go in identity order, exactly the order
// AssertBatch's merge-append restore path detects in O(n). A checkpoint
// is full when
// there is no base, when the graph's log no longer reaches back to it
// (LogFloor() > B), or when the delta rows of the chain plus the new
// delta's would reach the live fact count: a chain — what recovery reads
// and what sits on disk — stays under two full checkpoints' worth of
// rows. Recovery loads the newest checkpoint's chain, the full checkpoint
// it starts from and then each delta. After a checkpoint the log is
// truncated: older segments and checkpoints no chain needs are deleted,
// and the manager moves its checkpoint feed to the new watermark, which
// releases the graph's in-memory log entries at or below it that no
// other open changefeed still needs.
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
// Replay takes a fact block whole: it decodes the block before applying
// any of it and skips the part at or below the watermark, and a torn or
// malformed block ends the recovered prefix before it. A block whose
// frame is intact but whose mutations do not apply — a duplicate assert,
// a retract of an absent fact — fails Open with an error naming the
// segment and the block's offset: a torn write cannot produce one, and
// the part of it applied by then cannot be rolled back.
//
// Every record, in the log and in checkpoints, is written in one codec
// (record.go: varints, length-prefixed strings, float bits), and Open
// reads exactly that format: format version 2, named by every segment
// header and, for checkpoints, by the header's record type. A segment
// whose intact header names another version, generation or record type,
// or a checkpoint whose first record is not a current checkpoint header,
// fails Open with an error naming the file, and recovery leaves a
// directory in another format as it found it: a torn write cannot produce
// an intact header, so there is no crash to repair.
//
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
// superseded files: the newest N checkpoints survive, with every ancestor
// their chains need, along with every log segment needed to replay
// forward from the oldest retained one. SnapshotAt(asOf) picks the newest
// retained checkpoint at or below asOf, loads it through its chain into a
// fresh immutable base graph (cached — bases are shared across reads),
// and collects the mutation suffix (checkpoint, asOf] from the retained
// segments. The pair feeds a graphengine read overlay that answers
// queries pinned at watermark asOf without touching live state.
// Watermarks below the oldest retained checkpoint are gone — SnapshotAt
// reports them as outside retention, even where an older checkpoint is
// still on disk as an ancestor of a retained one. The graph's in-memory
// mutation log is still truncated at the newest checkpoint (as-of reads
// replay from disk, not memory; the next delta folds what is left).
package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
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
	// RetainCheckpoints keeps the newest N checkpoints restorable on
	// disk — with the older checkpoints their chains of bases need, and
	// the log segments needed to replay between them and the live tail —
	// instead of eagerly deleting everything a new checkpoint
	// supersedes. Retained history is what SnapshotAt serves as-of reads
	// from: any watermark at or above the oldest retained checkpoint
	// stays readable; a checkpoint kept only as an ancestor is not
	// counted and serves no read. 0 and 1 both mean "newest only" — the
	// eager behavior.
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
	// log. An incomplete pull latches the manager: an open feed holds
	// its entries, so the floor passing the cursor means an external
	// TruncateLog silently dropped unlogged mutations.
	feed *kg.Changefeed
	// ckptFeed is held open at ckptLSN and never pulled: it keeps the
	// graph's log window past the newest checkpoint, which the next
	// delta folds (NetChangeSince).
	ckptFeed *kg.Changefeed
	ckptLSN  uint64 // watermark of the newest durable checkpoint
	// ckpts holds the watermarks of the restorable checkpoints — those
	// retention counts and SnapshotAt bases reads on — ascending. files
	// describes every checkpoint file on disk: those, and the ancestors
	// their chains need. segFirst maps each on-disk segment generation to
	// its header firstLSN (the last LSN before the segment's first record).
	// They drive retention deletion and as-of suffix collection.
	ckpts    []uint64
	files    map[uint64]ckptFile
	segFirst map[uint64]uint64
	// chainRows is the rows of the deltas in the newest checkpoint's
	// chain (see ckptFile.rows): once the next delta would bring it to the
	// live fact count, the next checkpoint is a full one.
	chainRows uint64
	// updated holds the entities whose records changed since the newest
	// checkpoint. Commits log their updates; the next delta carries their
	// records.
	updated map[kg.EntityID]struct{}
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
	// The checkpoint feed is open before recovery replays the log past
	// the checkpoint into g, so the graph keeps that window for the next
	// delta; it moves to the checkpoint's watermark once it is known.
	ckptFeed := g.Feed(0)
	info := &RecoveryInfo{}
	maxGen, updated, err := recoverState(fs, dir, g, info)
	if err != nil {
		ckptFeed.Close()
		return nil, info, err
	}
	ckptFeed.Reset(info.CheckpointLSN)
	m := &Manager{
		fs:       fs,
		dir:      dir,
		g:        g,
		opts:     opts,
		gen:      maxGen, // openSegment bumps to maxGen+1
		feed:     g.Feed(g.LastSeq()),
		ckptFeed: ckptFeed,
		ckptLSN:  info.CheckpointLSN,
		files:    make(map[uint64]ckptFile),
		segFirst: make(map[uint64]uint64),
		updated:  updated,
		entCur:   g.NumEntities(),
		predCur:  g.NumPredicates(),
		ontCur:   g.Ontology().Len(),
	}
	m.durable.Store(g.LastSeq())
	// Index the surviving files: retention deletion, chaining and as-of
	// suffix collection need each checkpoint's header and each segment's
	// firstLSN without re-reading the directory per decision.
	if names, derr := fs.ReadDir(dir); derr == nil {
		for _, n := range names {
			if w, ok := parseName(n, ckptPrefix, ckptSuffix); ok {
				// An unreadable header indexes as a full checkpoint, so
				// retention can still delete the file.
				h, _ := readCkptHeader(fs, dir, w)
				m.files[w] = fileOf(h)
			} else if gen, ok := parseName(n, segPrefix, segSuffix); ok {
				if first, herr := readSegFirstLSN(fs, filepath.Join(dir, n)); herr == nil {
					m.segFirst[gen] = first
				}
			}
		}
	}
	if err := m.openSegmentLocked(); err != nil {
		m.closeFeeds()
		return nil, info, err
	}
	// Restorable are the checkpoints whose chain is whole on disk and from
	// which the on-disk log replays forward; an ancestor kept only for a
	// newer checkpoint's chain lies below the oldest segment.
	oldest := m.segFirst[m.gen]
	for _, first := range m.segFirst {
		oldest = min(oldest, first)
	}
	for w := range m.files {
		if w >= oldest && m.chainOnDisk(w) {
			m.ckpts = append(m.ckpts, w)
		}
	}
	slices.Sort(m.ckpts)
	for w := m.ckptLSN; m.files[w].base != 0; w = m.files[w].base {
		m.chainRows += m.files[w].rows
	}
	return m, info, nil
}

// ckptFile is what the manager keeps of a checkpoint file's header.
type ckptFile struct {
	base uint64 // 0 for a full checkpoint
	// rows is a delta's fact rows plus one (so a chain of empty deltas
	// still compacts); 0 for a full checkpoint.
	rows uint64
	// Dictionary totals at the checkpoint's watermark: a delta chained to
	// it carries the entries past them.
	nOnt, nEnt, nPred int
}

func fileOf(h ckptHeader) ckptFile {
	f := ckptFile{base: h.base, nOnt: int(h.nOntTypes), nEnt: int(h.nEntities), nPred: int(h.nPreds)}
	if h.base != 0 {
		f.rows = deltaRows(h.nTriples, h.nDeleted)
	}
	return f
}

func deltaRows(added, retracted uint64) uint64 { return added + retracted + 1 }

// chainOnDisk reports whether every file of the checkpoint at w's chain
// is on disk.
func (m *Manager) chainOnDisk(w uint64) bool {
	for {
		f, ok := m.files[w]
		switch {
		case !ok:
			return false
		case f.base == 0:
			return true
		case f.base >= w:
			return false
		}
		w = f.base
	}
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
// commits, and the whole commit goes out in one Write: dictionary
// entries, record updates, then the mutations as fact blocks.
func (m *Manager) commitLocked() error {
	muts, complete := m.feed.PullAppend(m.commitMuts[:0])
	if !complete {
		// Cannot happen through retention (the open feed holds what it
		// has not read); an external TruncateLog call would silently lose
		// mutations, so fail loudly.
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
			if m.updated == nil {
				m.updated = make(map[kg.EntityID]struct{})
			}
			m.updated[id] = struct{}{}
			buf, at = beginFrame(buf)
			buf = encEntityUpdate(buf, e)
			endFrame(buf, at)
		}
	}
	// A complete pull is gapless, so the LSNs of a block's mutations are
	// its first plus their index.
	if len(muts) > 0 {
		buf = appendFactBlocks(buf, muts[0].Seq, muts, mutationFact)
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

// RetainedCheckpoints returns how many restorable checkpoints are on
// disk (at most Options.RetainCheckpoints after the next checkpoint);
// ancestors kept only for a chain are not counted.
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

// Checkpoint records the graph state under one consistent cut, makes it
// durable, rotates the log, deletes superseded files, and moves the
// checkpoint feed to the new watermark, releasing the graph's in-memory
// log entries at or below it that no other open changefeed still needs.
// Returns the checkpoint watermark.
//
// A checkpoint is a delta: the net change since the newest checkpoint —
// fact keys retracted, facts added, dictionary entries and entity
// records new or updated since — chained to that checkpoint as its base,
// folded from the graph's in-memory log without reading the rest of the
// graph. It is a full checkpoint (every fact and dictionary entry, base
// 0) when there is no base, when the graph's log no longer reaches back
// to the base, or when the delta rows of the chain plus the new delta's
// would reach the live fact count, which keeps a chain — what recovery
// reads and what sits on disk — under two full checkpoints' worth of
// rows. When the watermark has not moved since the newest checkpoint
// nothing is written: pending dictionary entries and record updates are
// committed and synced, the log segments that hold them are kept until a
// checkpoint that writes a file carries them, and the newest checkpoint's
// watermark is returned.
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

func (m *Manager) checkpointLocked() error {
	// Drain pending mutations first so the old segment is complete up to
	// some LSN <= wm; everything the checkpoint covers beyond that is in
	// the checkpoint itself.
	if err := m.commitLocked(); err != nil {
		return err
	}
	// No fact has changed since the newest checkpoint: no file is written.
	// Syncing the segment makes what the commit wrote — dictionary
	// entries, record updates — as durable as a checkpoint would. The
	// segments a restart left behind are retired only if the dictionaries
	// and entity records have not moved past the checkpoint either;
	// otherwise they hold what recovery replayed, and only the next
	// checkpoint that writes a file carries it.
	last, haveBase := m.files[m.ckptLSN]
	if haveBase && m.g.LastSeq() == m.ckptLSN {
		if err := m.syncLocked(); err != nil {
			return err
		}
		if len(m.updated) == 0 && last.nOnt == m.g.Ontology().Len() &&
			last.nEnt == m.g.NumEntities() && last.nPred == m.g.NumPredicates() {
			m.applyRetentionLocked(m.gen - 1)
		}
		return nil
	}
	var (
		ch   kg.NetChange
		wm   uint64
		base uint64
	)
	if haveBase && m.ckptLSN > 0 {
		var folded bool
		ch, wm, folded = m.g.NetChangeSince(m.ckptLSN)
		if rows := deltaRows(uint64(len(ch.Asserted)), uint64(len(ch.Retracted))); folded && m.chainRows+rows < uint64(ch.Facts) {
			base = m.ckptLSN
		}
	}
	if base == 0 {
		ts, w := m.g.AllTriplesSnapshot()
		ch, wm = kg.NetChange{Asserted: ts}, w
	}
	f, err := m.writeCheckpointLocked(wm, base, ch)
	if err != nil {
		return err
	}
	// The checkpoint is durable: it subsumes every mutation <= wm, so
	// both cursors advance even if the log itself was never fsynced.
	m.ckptLSN = wm
	m.ckptFeed.Reset(wm)
	m.files[wm] = f
	if len(m.ckpts) == 0 || m.ckpts[len(m.ckpts)-1] != wm {
		m.ckpts = append(m.ckpts, wm)
	}
	if base == 0 {
		m.chainRows = 0
	}
	m.chainRows += f.rows
	clear(m.updated)
	if m.feed.Cursor() < wm {
		m.feed.Reset(wm)
	}
	if d := m.durable.Load(); wm > d {
		m.durable.Store(wm)
	}
	// Advance dictionary cursors past everything the checkpoint captured
	// so the new segment does not re-ship it.
	m.ontCur, m.entCur, m.predCur = f.nOnt, f.nEnt, f.nPred

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
	return nil
}

// writeCheckpointLocked writes and publishes the checkpoint at wm: the
// net change ch over the checkpoint at base, or with base 0 a full
// checkpoint, ch holding every fact and no retraction. Added facts go in
// identity order, the order AssertBatch's merge-append restore path
// detects in O(n). It returns what the manager keeps of the file.
func (m *Manager) writeCheckpointLocked(wm, base uint64, ch kg.NetChange) (ckptFile, error) {
	// Dictionary state is read after the cut: registrations are not
	// watermarked, and extras beyond wm are harmless on restore (replay
	// dict records dedup by key/name).
	ont := m.g.Ontology()
	hdr := ckptHeader{
		watermark: wm,
		nEntities: uint64(m.g.NumEntities()),
		nPreds:    uint64(m.g.NumPredicates()),
		nOntTypes: uint64(ont.Len()),
		nTriples:  uint64(len(ch.Asserted)),
		base:      base,
		nDeleted:  uint64(len(ch.Retracted)),
	}
	f := fileOf(hdr)
	var from ckptFile // the base's dictionary totals; zero for a full checkpoint
	var updated []kg.EntityID
	if base != 0 {
		from = m.files[base]
		for id := range m.updated {
			if int(id) <= from.nEnt {
				updated = append(updated, id)
			}
		}
		slices.Sort(updated)
	}

	name := ckptName(wm)
	tmp := filepath.Join(m.dir, tmpPrefix+name)
	out, err := m.fs.Create(tmp)
	if err != nil {
		return f, m.latch(fmt.Errorf("wal: create checkpoint: %w", err))
	}
	buf, at := beginFrame(nil)
	buf = encCkptHeader(buf, hdr)
	endFrame(buf, at)
	for id := kg.TypeID(from.nOnt + 1); int(id) <= f.nOnt; id++ {
		buf, at = beginFrame(buf)
		buf = encOntType(buf, ontRec{id: id, name: ont.Name(id), parent: ont.Parent(id)})
		endFrame(buf, at)
	}
	for id := kg.EntityID(from.nEnt + 1); int(id) <= f.nEnt; id++ {
		buf, at = beginFrame(buf)
		buf = encEntity(buf, m.g.Entity(id))
		endFrame(buf, at)
	}
	for id := kg.PredicateID(from.nPred + 1); int(id) <= f.nPred; id++ {
		buf, at = beginFrame(buf)
		buf = encPredicate(buf, m.g.Predicate(id))
		endFrame(buf, at)
	}
	for _, id := range updated {
		buf, at = beginFrame(buf)
		buf = encEntityUpdate(buf, m.g.Entity(id))
		endFrame(buf, at)
	}
	// The retracted keys, then the added facts, go out as fact blocks,
	// flushed in chunks so checkpointing a large graph does not hold the
	// whole serialized image in memory alongside the triples.
	const chunk = 1 << 20
	flush := func() error {
		if len(buf) < chunk {
			return nil
		}
		_, err := out.Write(buf)
		buf = buf[:0]
		return err
	}
	for start := 0; start < len(ch.Retracted) && err == nil; start += factBlockSize {
		buf = appendFactBlocks(buf, 0, ch.Retracted[start:min(start+factBlockSize, len(ch.Retracted))], retractedFact)
		err = flush()
	}
	for start := 0; start < len(ch.Asserted) && err == nil; start += factBlockSize {
		buf = appendFactBlocks(buf, 0, ch.Asserted[start:min(start+factBlockSize, len(ch.Asserted))], assertedFact)
		err = flush()
	}
	if err == nil {
		buf, at = beginFrame(buf)
		buf = encCkptFooter(buf, ckptFooter{watermark: wm, nTriples: uint64(len(ch.Asserted))})
		endFrame(buf, at)
		_, err = out.Write(buf)
	}
	if err != nil {
		return f, m.latch(fmt.Errorf("wal: write checkpoint: %w", err))
	}
	if err := out.Sync(); err != nil {
		return f, m.latch(fmt.Errorf("wal: sync checkpoint: %w", err))
	}
	if err := out.Close(); err != nil {
		return f, m.latch(fmt.Errorf("wal: close checkpoint: %w", err))
	}
	if err := m.fs.Rename(tmp, filepath.Join(m.dir, name)); err != nil {
		return f, m.latch(fmt.Errorf("wal: publish checkpoint: %w", err))
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		return f, m.latch(fmt.Errorf("wal: sync dir after checkpoint: %w", err))
	}
	return f, nil
}

// applyRetentionLocked keeps the newest Options.RetainCheckpoints
// restorable checkpoints, deletes every checkpoint file none of their
// chains needs, and deletes every retired log segment whose content is
// entirely at or below the oldest retained checkpoint's watermark. A
// segment's content spans (firstLSN, next segment's firstLSN], so segment
// g is dead once its successor's firstLSN is at or below that watermark;
// firstLSN is non-decreasing across generations, which makes deletability
// a prefix property. oldGen is the just-retired generation — the active
// segment is never deleted.
func (m *Manager) applyRetentionLocked(oldGen uint64) {
	retain := max(m.opts.RetainCheckpoints, 1)
	if drop := len(m.ckpts) - retain; drop > 0 {
		m.ckpts = append(m.ckpts[:0], m.ckpts[drop:]...)
	}
	keep := make(map[uint64]bool, len(m.files))
	for _, w := range m.ckpts {
		for !keep[w] {
			keep[w] = true
			if b := m.files[w].base; b != 0 {
				w = b
			}
		}
	}
	for w := range m.files {
		if !keep[w] {
			_ = m.fs.Remove(filepath.Join(m.dir, ckptName(w)))
			delete(m.files, w)
		}
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

// Close flushes and fsyncs all pending state, closes the segment, and
// closes the manager's changefeeds. The graph stays usable; further
// mutations are simply no longer logged.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.closed = true
	defer m.closeFeeds()
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

// closeFeeds unregisters the manager's changefeeds from the graph.
func (m *Manager) closeFeeds() {
	m.feed.Close()
	m.ckptFeed.Close()
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

// recoverState loads the newest checkpoint's chain and replays the log
// suffix into g, returning the highest segment generation seen on disk
// and the entities whose records the replayed log updated.
func recoverState(fs FS, dir string, g *kg.Graph, info *RecoveryInfo) (maxGen uint64, updated map[kg.EntityID]struct{}, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var ckpts, segs []uint64
	var tmps []string
	for _, n := range names {
		if w, ok := parseName(n, ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, w)
		} else if gen, ok := parseName(n, segPrefix, segSuffix); ok {
			segs = append(segs, gen)
			maxGen = max(maxGen, gen)
		} else if strings.HasPrefix(n, tmpPrefix) {
			tmps = append(tmps, n) // from a checkpoint interrupted before publish
		} else {
			info.Diagnostics = append(info.Diagnostics, fmt.Sprintf("ignoring unrecognized file %s", n))
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	// Load the newest checkpoint with its chain. Older checkpoints are
	// not a fallback: taking checkpoint W deletes the segments covering
	// (0, W], so state before the newest checkpoint is simply gone — a
	// corrupt newest checkpoint or ancestor (a fully-fsynced file, not a
	// crash artifact) is unrecoverable data loss and must surface as an
	// error, not as a silently emptier graph.
	if len(ckpts) > 0 {
		wm := ckpts[0]
		if err := loadChain(fs, dir, wm, g); err != nil {
			return maxGen, nil, fmt.Errorf("wal: checkpoint %s unusable: %w", ckptName(wm), err)
		}
		info.CheckpointLSN = wm
	}

	// Replay segments in generation order. The first anomaly (torn tail,
	// CRC failure, LSN gap, malformed record) ends the usable suffix:
	// everything after it in this segment and all later segments is
	// discarded so the next incarnation's log stays contiguous. A segment
	// header in another format, or a block that does not apply, fails
	// recovery with every file as it was: replay reaches it only if no
	// segment before it was truncated, and leftover temp files are removed
	// only after replay.
	updated = make(map[kg.EntityID]struct{})
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
		good, torn, replayed, diag, rerr := replaySegment(fs, path, name, gen, g, updated)
		info.SegmentsReplayed++
		info.MutationsReplayed += replayed
		if diag != "" {
			info.Diagnostics = append(info.Diagnostics, diag)
		}
		if rerr != nil {
			return maxGen, nil, rerr
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
	for _, n := range tmps {
		if rerr := fs.Remove(filepath.Join(dir, n)); rerr == nil {
			info.Diagnostics = append(info.Diagnostics, fmt.Sprintf("removed leftover temp file %s", n))
		}
	}
	_ = fs.SyncDir(dir)
	info.RecoveredLSN = g.LastSeq()
	return maxGen, updated, nil
}

// readCkptHeader reads the header of the checkpoint at watermark wm.
func readCkptHeader(fs FS, dir string, wm uint64) (ckptHeader, error) {
	p, err := readFirstRecord(fs, filepath.Join(dir, ckptName(wm)))
	if err != nil {
		return ckptHeader{}, err
	}
	h, err := decCkptHeader(p)
	if err == nil && h.watermark != wm {
		err = fmt.Errorf("header watermark %d, want %d (filename)", h.watermark, wm)
	}
	return h, err
}

// loadChain restores the checkpoint at watermark wm into the empty graph
// g: the full checkpoint its chain of bases starts from, then every delta
// up to wm.
func loadChain(fs FS, dir string, wm uint64, g *kg.Graph) error {
	chain := []uint64{wm}
	for w := wm; ; {
		h, err := readCkptHeader(fs, dir, w)
		if err != nil {
			return fmt.Errorf("%s: %w", ckptName(w), err)
		}
		if h.base == 0 {
			break
		}
		if h.base >= w {
			return fmt.Errorf("%s names base %d, not below it", ckptName(w), h.base)
		}
		w = h.base
		chain = append(chain, w)
	}
	base := uint64(0)
	for i := len(chain) - 1; i >= 0; i-- {
		if err := loadCheckpoint(fs, dir, chain[i], base, g); err != nil {
			return fmt.Errorf("%s: %w", ckptName(chain[i]), err)
		}
		base = chain[i]
	}
	return nil
}

// loadCheckpoint applies the checkpoint file at watermark wm to g, which
// must hold the state of the checkpoint at base — the empty graph for a
// full checkpoint (base 0). Any integrity failure (bad frame, missing
// footer, count mismatch, ID drift, a retraction of an absent fact, an
// addition of a present one) is an error; the caller decides whether that
// is fatal.
func loadCheckpoint(fs FS, dir string, wm, base uint64, g *kg.Graph) error {
	name := ckptName(wm)
	r, err := fs.OpenRead(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer r.Close()

	var hdr ckptHeader
	sawHeader, sawFooter := false, false
	var dels, adds []kg.Triple
	var block []kg.Mutation
	_, err = scanFrames(name, r, func(p []byte) error {
		if !sawHeader {
			h, err := decCkptHeader(p)
			if err != nil {
				return err
			}
			if h.watermark != wm || h.base != base {
				return fmt.Errorf("header (wm=%d base=%d), want (wm=%d base=%d)", h.watermark, h.base, wm, base)
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
		case recEntityUpdate:
			e, err := decEntity(p)
			if err != nil {
				return err
			}
			return g.ReplaceEntity(e)
		case recFactBlock:
			var err error
			if block, err = decFacts(p, block[:0]); err != nil {
				return err
			}
			for i := range block {
				if block[i].Op == kg.OpRetract {
					dels = append(dels, block[i].T)
				} else {
					adds = append(adds, block[i].T)
				}
			}
			return nil
		case recCheckpointFooter:
			f, err := decCkptFooter(p)
			if err != nil {
				return err
			}
			if f.watermark != hdr.watermark || f.nTriples != uint64(len(adds)) {
				return fmt.Errorf("footer (wm=%d n=%d) disagrees with body (wm=%d n=%d)",
					f.watermark, f.nTriples, hdr.watermark, len(adds))
			}
			sawFooter = true
			return nil
		default:
			return fmt.Errorf("unexpected record type %d in checkpoint", p[0])
		}
	})
	if err != nil {
		return err
	}
	if !sawHeader || !sawFooter {
		return errors.New("incomplete checkpoint (missing header or footer)")
	}
	if hdr.nTriples != uint64(len(adds)) || hdr.nDeleted != uint64(len(dels)) {
		return fmt.Errorf("body (%d added, %d retracted) disagrees with header (%d, %d)", len(adds), len(dels), hdr.nTriples, hdr.nDeleted)
	}
	if uint64(g.NumEntities()) != hdr.nEntities || uint64(g.NumPredicates()) != hdr.nPreds ||
		uint64(g.Ontology().Len()) != hdr.nOntTypes {
		return fmt.Errorf("dictionary counts (%d ent, %d pred, %d ont) disagree with header (%d, %d, %d)",
			g.NumEntities(), g.NumPredicates(), g.Ontology().Len(), hdr.nEntities, hdr.nPreds, hdr.nOntTypes)
	}
	for _, t := range dels {
		if !g.Retract(t) {
			return fmt.Errorf("retracts %v, absent from its base", t)
		}
	}
	// The checkpoint wrote its facts in identity order, so a full
	// checkpoint's restore takes AssertBatch's merge-append fast path.
	added, err := g.AssertBatch(adds)
	if err != nil {
		return fmt.Errorf("restore triples: %w", err)
	}
	if added != len(adds) {
		return fmt.Errorf("restore triples: %d of %d added (present already)", added, len(adds))
	}
	// Fast-forward the graph's watermark into the durable LSN space: the
	// restored state IS the state after the first wm mutations.
	return g.AdvanceWatermark(hdr.watermark)
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

// replayStop signals a non-corrupt-frame replay anomaly (LSN gap,
// malformed record); the scan stops before the offending frame and the
// tail is discarded.
type replayStop struct{ reason string }

func (e *replayStop) Error() string { return e.reason }

// notApplied reports a block whose frame is intact but whose mutations
// do not apply to the graph. A torn write cannot produce one, and the
// mutations applied before the failing one cannot be rolled back, so
// recovery fails instead of stopping.
type notApplied struct{ reason string }

func (e *notApplied) Error() string { return e.reason }

// applyMutation applies one replayed mutation, which must change the
// graph: an assert must add its fact, a retract must remove one.
func applyMutation(g *kg.Graph, mu kg.Mutation) error {
	if mu.Op == kg.OpRetract {
		if !g.Retract(mu.T) {
			return errors.New("retract of absent fact")
		}
		return nil
	}
	added, err := g.AssertNew(mu.T)
	if err == nil && !added {
		err = errors.New("assert was a duplicate")
	}
	return err
}

// pastLSN returns the part of a decoded log block after LSN last — the
// part at or below it is covered already, by a checkpoint or by an earlier
// segment's copy — and an error if that part does not continue at last+1.
// Replay and the as-of suffix scan both take a block through it.
func pastLSN(block []kg.Mutation, last uint64) ([]kg.Mutation, error) {
	for len(block) > 0 && block[0].Seq <= last {
		block = block[1:]
	}
	if len(block) > 0 && block[0].Seq != last+1 {
		return nil, fmt.Errorf("LSN gap: log continues at %d after %d", block[0].Seq, last)
	}
	return block, nil
}

// replaySegment scans one segment, applying dictionary records, entity
// record updates (noting each entity in updated) and every mutation that
// extends the graph's watermark, a whole fact block at a time. It
// returns the byte length of the applied prefix, the count of tail bytes
// past it, the number of mutations applied, a non-empty diagnostic if
// the segment's tail was unusable, and a fatal error for FS-level read
// failures, a header in another format and a block that does not apply.
func replaySegment(fs FS, path, name string, gen uint64, g *kg.Graph, updated map[kg.EntityID]struct{}) (good, torn int64, replayed int, diag string, err error) {
	rc, err := fs.OpenRead(path)
	if err != nil {
		return 0, 0, 0, "", fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer rc.Close()
	r := &countReader{r: rc}
	sawHeader := false
	var block []kg.Mutation
	good, serr := scanFrames(name, r, func(p []byte) error {
		if !sawHeader {
			// An intact header this build does not read is not a torn
			// write: it fails Open (the default case below).
			h, err := decSegHeader(p)
			if err == nil && h.gen != gen {
				err = fmt.Errorf("header generation %d, filename generation %d", h.gen, gen)
			}
			sawHeader = true
			return err
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
			e, err := decEntity(p)
			if err != nil {
				return &replayStop{reason: err.Error()}
			}
			if err := g.ReplaceEntity(e); err != nil {
				return &replayStop{reason: fmt.Sprintf("replay entity update: %v", err)}
			}
			updated[e.ID] = struct{}{}
			return nil
		case recFactBlock:
			// The whole block is decoded before any of it is applied.
			var muts []kg.Mutation
			var err error
			if block, err = decFacts(p, block[:0]); err == nil {
				muts, err = pastLSN(block, g.LastSeq())
			}
			if err != nil {
				return &replayStop{reason: err.Error()}
			}
			for _, mu := range muts {
				if err := applyMutation(g, mu); err != nil {
					return &notApplied{reason: fmt.Sprintf("LSN %d: %v", mu.Seq, err)}
				}
				replayed++
			}
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
	case *notApplied:
		return good, torn, replayed, "", fmt.Errorf("wal: replay of %s: the block at offset %d does not apply: %s", name, good, e.reason)
	default:
		return good, torn, replayed, "", fmt.Errorf("wal: segment %s: %w", name, serr)
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
