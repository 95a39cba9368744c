// Package storage implements a disk-oriented key-value store with a
// tunable in-memory buffer, in the spirit of the paper's on-device
// requirement (§5): "we optimize our construction pipeline to be disk
// oriented with tunable memory buffer sizes. At any given point ... the
// amount of memory used is bounded and expensive computations spill to
// disk as necessary."
//
// The store is a small LSM: writes land in a memtable; when the memtable
// exceeds its budget it is sorted and spilled to an immutable on-disk
// segment; reads consult the memtable then segments newest-first.
// Checkpoint persists a manifest so a store can be reopened with identical
// contents, which is what makes the on-device construction pipeline
// pausable and resumable without losing state.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned by Get when the key does not exist (or was
// deleted).
var ErrNotFound = errors.New("storage: key not found")

const (
	manifestName = "MANIFEST.json"
	// tombstoneLen marks deleted keys in the segment record header.
	tombstoneLen = ^uint32(0)
	// sparseEvery controls the per-segment sparse index granularity.
	sparseEvery = 16
)

// Options configure a Store.
type Options struct {
	// MemBudgetBytes caps the memtable size; once exceeded, the memtable
	// spills to a new segment. Zero means a 1 MiB default.
	MemBudgetBytes int
}

// Store is a disk-oriented KV store. It is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	dir  string
	opts Options

	mem      map[string]memEntry
	memBytes int

	segments []*segment // oldest first
	nextSeg  int

	spills int // number of memtable spills, exposed for the E8 benchmark
}

type memEntry struct {
	value     []byte
	tombstone bool
}

type manifest struct {
	Segments []string `json:"segments"`
	NextSeg  int      `json:"next_seg"`
}

// Open opens (or creates) a store in dir. If a manifest exists, the
// previous segment set is recovered.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MemBudgetBytes <= 0 {
		opts.MemBudgetBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts, mem: make(map[string]memEntry)}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return s, nil
		}
		return nil, fmt.Errorf("storage: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: decode manifest: %w", err)
	}
	s.nextSeg = m.NextSeg
	for _, name := range m.Segments {
		seg, err := openSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("storage: open segment %s: %w", name, err)
		}
		s.segments = append(s.segments, seg)
	}
	return s, nil
}

// Put stores value under key. The value is copied.
func (s *Store) Put(key string, value []byte) error {
	if key == "" {
		return errors.New("storage: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := append([]byte(nil), value...)
	if old, ok := s.mem[key]; ok {
		s.memBytes -= len(key) + len(old.value)
	}
	s.mem[key] = memEntry{value: v}
	s.memBytes += len(key) + len(v)
	if s.memBytes > s.opts.MemBudgetBytes {
		return s.spillLocked()
	}
	return nil
}

// Delete removes key. Deletes are recorded as tombstones so they survive
// spills and shadow older segment versions.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.mem[key]; ok {
		s.memBytes -= len(key) + len(old.value)
	}
	s.mem[key] = memEntry{tombstone: true}
	s.memBytes += len(key)
	if s.memBytes > s.opts.MemBudgetBytes {
		return s.spillLocked()
	}
	return nil
}

// Get returns the current value of key.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.mem[key]; ok {
		if e.tombstone {
			return nil, ErrNotFound
		}
		return append([]byte(nil), e.value...), nil
	}
	for i := len(s.segments) - 1; i >= 0; i-- {
		v, tomb, ok, err := s.segments[i].get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			if tomb {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// Has reports whether key currently exists.
func (s *Store) Has(key string) bool {
	_, err := s.Get(key)
	return err == nil
}

// Scan calls fn for every live key with the given prefix, in ascending key
// order, stopping early if fn returns false.
func (s *Store) Scan(prefix string, fn func(key string, value []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	merged, err := s.mergedLocked(prefix)
	if err != nil {
		return err
	}
	for _, kv := range merged {
		if !fn(kv.key, kv.value) {
			return nil
		}
	}
	return nil
}

type kvPair struct {
	key   string
	value []byte
}

// mergedLocked materializes the live view with newest-wins semantics.
func (s *Store) mergedLocked(prefix string) ([]kvPair, error) {
	// newest wins: walk oldest -> newest overwriting.
	acc := make(map[string]memEntry)
	for _, seg := range s.segments {
		if err := seg.scan(func(k string, v []byte, tomb bool) bool {
			if strings.HasPrefix(k, prefix) {
				acc[k] = memEntry{value: v, tombstone: tomb}
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	for k, e := range s.mem {
		if strings.HasPrefix(k, prefix) {
			acc[k] = e
		}
	}
	out := make([]kvPair, 0, len(acc))
	for k, e := range acc {
		if e.tombstone {
			continue
		}
		out = append(out, kvPair{key: k, value: e.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// Flush spills the memtable to disk (if non-empty) and writes the
// manifest. After Flush, reopening the directory observes all writes.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.mem) > 0 {
		if err := s.spillLocked(); err != nil {
			return err
		}
	}
	return s.writeManifestLocked()
}

// Checkpoint is Flush; the name reflects its role in the pausable
// construction pipeline.
func (s *Store) Checkpoint() error { return s.Flush() }

// SpillCount returns how many times the memtable exceeded its budget and
// spilled to disk.
func (s *Store) SpillCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.spills
}

// Close flushes and releases file handles.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segments {
		seg.close()
	}
	s.segments = nil
	return nil
}

func (s *Store) spillLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	name := fmt.Sprintf("seg-%06d.dat", s.nextSeg)
	s.nextSeg++
	w, err := newSegmentWriter(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	for _, k := range keys {
		e := s.mem[k]
		if err := w.add(k, e.value, e.tombstone); err != nil {
			return err
		}
	}
	seg, err := w.finish()
	if err != nil {
		return err
	}
	s.segments = append(s.segments, seg)
	s.mem = make(map[string]memEntry)
	s.memBytes = 0
	s.spills++
	return s.writeManifestLocked()
}

func (s *Store) writeManifestLocked() error {
	m := manifest{NextSeg: s.nextSeg}
	for _, seg := range s.segments {
		m.Segments = append(m.Segments, filepath.Base(seg.path))
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return err
	}
	// The rename is durable only once the directory entry is: without the
	// parent fsync a crash can resurrect the previous manifest (or leave
	// none), silently rolling the segment set back.
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so entry mutations (create, rename, remove)
// in it survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// segment is an immutable sorted run on disk with a sparse in-memory index.
type segment struct {
	path string
	f    *os.File
	// sparse index: every sparseEvery-th record's key and byte offset.
	idxKeys    []string
	idxOffsets []int64
	size       int64
}

type segmentWriter struct {
	path string
	f    *os.File
	off  int64
	n    int
	idxK []string
	idxO []int64
	buf  []byte
}

func newSegmentWriter(path string) (*segmentWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &segmentWriter{path: path, f: f}, nil
}

// add appends a record; keys must arrive in ascending order.
func (w *segmentWriter) add(key string, value []byte, tomb bool) error {
	if w.n%sparseEvery == 0 {
		w.idxK = append(w.idxK, key)
		w.idxO = append(w.idxO, w.off)
	}
	w.n++
	vlen := uint32(len(value))
	if tomb {
		vlen = tombstoneLen
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:8], vlen)
	w.buf = w.buf[:0]
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, key...)
	if !tomb {
		w.buf = append(w.buf, value...)
	}
	n, err := w.f.Write(w.buf)
	if err != nil {
		return err
	}
	w.off += int64(n)
	return nil
}

func (w *segmentWriter) finish() (*segment, error) {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		return nil, err
	}
	// Make the segment's directory entry durable before anything (the
	// manifest) references it; a synced file whose entry was never
	// dir-synced can vanish wholesale on crash.
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return nil, err
	}
	f, err := os.Open(w.path)
	if err != nil {
		return nil, err
	}
	return &segment{path: w.path, f: f, idxKeys: w.idxK, idxOffsets: w.idxO, size: w.off}, nil
}

func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{path: path, f: f, size: st.Size()}
	// Rebuild the sparse index with one sequential pass.
	var off int64
	var n int
	for off < seg.size {
		key, _, _, next, err := seg.readRecord(off)
		if err != nil {
			f.Close()
			return nil, err
		}
		if n%sparseEvery == 0 {
			seg.idxKeys = append(seg.idxKeys, key)
			seg.idxOffsets = append(seg.idxOffsets, off)
		}
		n++
		off = next
	}
	return seg, nil
}

// readRecord decodes the record at off, returning key, value, tombstone
// flag and the offset of the next record. Every length is validated
// against the segment size before any allocation or read, so a torn tail
// or corrupt header surfaces as a bounded error — never a panic, a
// multi-gigabyte allocation from a garbage length, or a silent short
// read.
func (seg *segment) readRecord(off int64) (string, []byte, bool, int64, error) {
	corrupt := func(reason string) error {
		return fmt.Errorf("storage: segment %s corrupt at %d: %s (size %d)", seg.path, off, reason, seg.size)
	}
	if off+8 > seg.size {
		return "", nil, false, 0, corrupt("truncated record header")
	}
	var hdr [8]byte
	if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
		return "", nil, false, 0, fmt.Errorf("storage: segment %s corrupt at %d: %w", seg.path, off, err)
	}
	klen := binary.LittleEndian.Uint32(hdr[0:4])
	vlen := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(klen) > seg.size-off-8 {
		return "", nil, false, 0, corrupt(fmt.Sprintf("key length %d overruns segment", klen))
	}
	keyBuf := make([]byte, klen)
	if _, err := seg.f.ReadAt(keyBuf, off+8); err != nil {
		return "", nil, false, 0, err
	}
	if vlen == tombstoneLen {
		return string(keyBuf), nil, true, off + 8 + int64(klen), nil
	}
	if int64(vlen) > seg.size-off-8-int64(klen) {
		return "", nil, false, 0, corrupt(fmt.Sprintf("value length %d overruns segment", vlen))
	}
	val := make([]byte, vlen)
	if _, err := seg.f.ReadAt(val, off+8+int64(klen)); err != nil {
		return "", nil, false, 0, err
	}
	return string(keyBuf), val, false, off + 8 + int64(klen) + int64(vlen), nil
}

// get performs a sparse-index binary search then a short forward scan.
func (seg *segment) get(key string) (value []byte, tombstone, found bool, err error) {
	if len(seg.idxKeys) == 0 {
		return nil, false, false, nil
	}
	// Find the last sparse entry whose key <= key.
	i := sort.Search(len(seg.idxKeys), func(i int) bool { return seg.idxKeys[i] > key })
	if i == 0 {
		return nil, false, false, nil
	}
	off := seg.idxOffsets[i-1]
	for off < seg.size {
		k, v, tomb, next, rerr := seg.readRecord(off)
		if rerr != nil {
			return nil, false, false, rerr
		}
		if k == key {
			return v, tomb, true, nil
		}
		if k > key {
			return nil, false, false, nil
		}
		off = next
	}
	return nil, false, false, nil
}

// scan streams all records in key order.
func (seg *segment) scan(fn func(key string, value []byte, tomb bool) bool) error {
	var off int64
	for off < seg.size {
		k, v, tomb, next, err := seg.readRecord(off)
		if err != nil {
			return err
		}
		if !fn(k, v, tomb) {
			return nil
		}
		off = next
	}
	return nil
}

func (seg *segment) close() {
	if seg.f != nil {
		seg.f.Close()
		seg.f = nil
	}
}
