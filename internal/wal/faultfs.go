package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrInjected is the error every FaultFS operation returns once the
// configured fault has tripped. The WAL manager latches into a failed
// state on it like on any other I/O error.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS is a deterministic in-memory filesystem with a POSIX-shaped
// durability model, built for crash-matrix tests. It distinguishes three
// layers of state exactly the way a kernel page cache does:
//
//   - bytes written but not fsynced (lost or torn on crash),
//   - file contents made durable by File.Sync,
//   - directory entries (creations, renames, removals) made durable only
//     by SyncDir of the parent — a synced file whose entry was never
//     dir-synced can vanish wholesale.
//
// Faults are armed with SetWriteBudget (trip after N accepted bytes,
// modeling a kill at an arbitrary byte offset — the final Write is SHORT,
// leaving a torn frame) and SetSyncBudget (trip on the Nth sync,
// modeling fsync failure). After tripping, every mutating operation
// returns ErrInjected; reads keep working. Crash() then collapses the
// state to what a machine reset would leave behind: synced bytes plus a
// seeded-random prefix of each file's unsynced tail, with each
// non-dir-synced directory operation independently kept or reverted. The
// result is a fresh, fault-free FaultFS to recover against.
//
// All randomness comes from the seed passed to NewFaultFS, so a failing
// kill-point is reproducible by seed.
type FaultFS struct {
	mu  sync.Mutex
	rng *rand.Rand

	writeBudget int64 // bytes still accepted; <0 = unlimited
	syncBudget  int   // syncs still accepted; <0 = unlimited
	accepted    int64 // total bytes accepted across all writes
	tripped     bool

	dirs  map[string]bool
	files map[string]*faultFile
	// undo holds, per path whose directory entry changed since the last
	// SyncDir of its parent, the durable pre-state of that entry (captured
	// at the first change). Crash() flips a coin per entry: either the
	// current entry state survived or the pre-state did.
	undo map[string]entryUndo
}

type entryUndo struct {
	existed bool   // a durable entry existed before the un-synced change
	data    []byte // its synced content at capture time
}

type faultFile struct {
	data      []byte
	syncedLen int
}

// NewFaultFS returns an in-memory FS with no faults armed (budgets
// unlimited). It is usable as a plain memory-backed FS.
func NewFaultFS(seed int64) *FaultFS {
	return &FaultFS{
		rng:         rand.New(rand.NewSource(seed)),
		writeBudget: -1,
		syncBudget:  -1,
		dirs:        map[string]bool{"/": true, ".": true},
		files:       make(map[string]*faultFile),
		undo:        make(map[string]entryUndo),
	}
}

// SetWriteBudget arms the write fault: after n more accepted bytes, the
// write in progress is cut short and the FS trips. n < 0 disarms.
func (fs *FaultFS) SetWriteBudget(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeBudget = n
}

// SetSyncBudget arms the sync fault: the next n File.Sync/SyncDir calls
// succeed, the one after fails and trips the FS. n < 0 disarms.
func (fs *FaultFS) SetSyncBudget(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncBudget = n
}

// BytesAccepted reports the total bytes accepted across all writes. The
// crash matrix runs an unlimited probe first and uses its total to
// enumerate kill offsets.
func (fs *FaultFS) BytesAccepted() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.accepted
}

// capture records the durable pre-state of path's directory entry if no
// change since the last parent SyncDir has been recorded yet.
func (fs *FaultFS) capture(path string) {
	if _, ok := fs.undo[path]; ok {
		return
	}
	if f, ok := fs.files[path]; ok {
		fs.undo[path] = entryUndo{existed: true, data: append([]byte(nil), f.data[:f.syncedLen]...)}
	} else {
		fs.undo[path] = entryUndo{}
	}
}

func (fs *FaultFS) checkMutable() error {
	if fs.tripped {
		return ErrInjected
	}
	return nil
}

func (fs *FaultFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMutable(); err != nil {
		return err
	}
	d := filepath.Clean(dir)
	for d != "/" && d != "." && d != "" {
		fs.dirs[d] = true
		d = filepath.Dir(d)
	}
	return nil
}

func (fs *FaultFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMutable(); err != nil {
		return nil, err
	}
	p := filepath.Clean(name)
	fs.capture(p)
	f := &faultFile{}
	fs.files[p] = f
	return &faultHandle{fs: fs, path: p, f: f}, nil
}

func (fs *FaultFS) OpenAppend(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := filepath.Clean(name)
	f, ok := fs.files[p]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &faultHandle{fs: fs, path: p, f: f}, nil
}

func (fs *FaultFS) OpenRead(name string) (io.ReadCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[filepath.Clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), f.data...))), nil
}

func (fs *FaultFS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMutable(); err != nil {
		return err
	}
	op, np := filepath.Clean(oldName), filepath.Clean(newName)
	f, ok := fs.files[op]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldName, Err: os.ErrNotExist}
	}
	fs.capture(op)
	fs.capture(np)
	delete(fs.files, op)
	fs.files[np] = f
	return nil
}

func (fs *FaultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMutable(); err != nil {
		return err
	}
	p := filepath.Clean(name)
	if _, ok := fs.files[p]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	fs.capture(p)
	delete(fs.files, p)
	return nil
}

func (fs *FaultFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMutable(); err != nil {
		return err
	}
	f, ok := fs.files[filepath.Clean(name)]
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("wal: faultfs truncate %s to %d (size %d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.syncedLen > int(size) {
		f.syncedLen = int(size)
	}
	return nil
}

func (fs *FaultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := filepath.Clean(dir)
	if !fs.dirs[d] {
		return nil, &os.PathError{Op: "readdir", Path: dir, Err: os.ErrNotExist}
	}
	var names []string
	for p := range fs.files {
		if filepath.Dir(p) == d {
			names = append(names, filepath.Base(p))
		}
	}
	for p := range fs.dirs {
		if p != d && filepath.Dir(p) == d {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *FaultFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.spendSync(); err != nil {
		return err
	}
	d := filepath.Clean(dir)
	for p := range fs.undo {
		if filepath.Dir(p) == d {
			delete(fs.undo, p)
		}
	}
	return nil
}

// spendSync charges one sync against the budget; caller holds fs.mu.
func (fs *FaultFS) spendSync() error {
	if fs.tripped {
		return ErrInjected
	}
	if fs.syncBudget == 0 {
		fs.tripped = true
		return ErrInjected
	}
	if fs.syncBudget > 0 {
		fs.syncBudget--
	}
	return nil
}

// Crash collapses the filesystem to its post-reset durable image and
// returns a fresh fault-free FaultFS over it (sharing the seed stream, so
// a scenario's randomness stays a deterministic function of the seed):
//
//   - each surviving file keeps its synced bytes plus a random prefix of
//     its unsynced tail (the torn-tail model);
//   - each directory entry changed since its parent's last SyncDir
//     independently keeps either its new state or its durable pre-state.
func (fs *FaultFS) Crash() *FaultFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	img := make(map[string]*faultFile, len(fs.files))
	for p, f := range fs.files {
		n := f.syncedLen
		if len(f.data) > n {
			n += fs.rng.Intn(len(f.data) - n + 1)
		}
		img[p] = &faultFile{data: append([]byte(nil), f.data[:n]...), syncedLen: n}
	}
	for p, u := range fs.undo {
		if fs.rng.Intn(2) == 1 {
			continue // the un-synced directory change made it to disk
		}
		if u.existed {
			img[p] = &faultFile{data: append([]byte(nil), u.data...), syncedLen: len(u.data)}
		} else {
			delete(img, p)
		}
	}
	out := &FaultFS{
		rng:         fs.rng,
		writeBudget: -1,
		syncBudget:  -1,
		dirs:        make(map[string]bool, len(fs.dirs)),
		files:       img,
		undo:        make(map[string]entryUndo),
	}
	for d := range fs.dirs {
		out.dirs[d] = true
	}
	return out
}

type faultHandle struct {
	fs   *FaultFS
	path string
	f    *faultFile
}

func (h *faultHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.tripped {
		return 0, ErrInjected
	}
	n := len(p)
	if h.fs.writeBudget >= 0 {
		if int64(n) > h.fs.writeBudget {
			n = int(h.fs.writeBudget)
			h.fs.tripped = true
		}
		h.fs.writeBudget -= int64(n)
	}
	h.f.data = append(h.f.data, p[:n]...)
	h.fs.accepted += int64(n)
	if n < len(p) {
		return n, ErrInjected
	}
	return n, nil
}

func (h *faultHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.spendSync(); err != nil {
		return err
	}
	h.f.syncedLen = len(h.f.data)
	return nil
}

func (h *faultHandle) Close() error {
	// Closing never fails in this model; close-time errors are covered by
	// the sync budget (a Sync immediately before Close).
	return nil
}

var _ FS = (*FaultFS)(nil)
