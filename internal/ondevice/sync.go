package ondevice

import (
	"fmt"
	"path/filepath"
	"sort"
)

// Cross-device sync (§5): "a user may decide to sync or not to sync on a
// per source basis ... the sync'd sources still need to be consistently
// represented across devices." Devices exchange raw source records for
// the sources they agreed to sync; each device then re-runs its own
// incremental construction, which — because matching is a deterministic
// transitive closure over strong keys — converges to identical clusters
// for the synced projection on every device. Unsynced sources never leave
// their device.

// Device simulates one of the user's devices.
type Device struct {
	// Name identifies the device ("phone", "laptop", "watch").
	Name string
	// Capability is a relative compute score; sync offloads expensive
	// computations to the most capable device (§5: "offloading expensive
	// computation to more powerful devices ... and syncing the result").
	Capability int
	// SyncPrefs marks which sources this device shares and accepts.
	SyncPrefs map[SourceKind]bool

	b *Builder
	// local holds the records originating on this device.
	local []Record
	// received holds records accepted from peers.
	received []Record
}

// NewDevice creates a device whose construction state lives under
// baseDir/<name>, with the given memory budget.
func NewDevice(baseDir, name string, capability int, prefs map[SourceKind]bool, memBudget int) (*Device, error) {
	b, err := NewBuilder(filepath.Join(baseDir, name), memBudget)
	if err != nil {
		return nil, err
	}
	return &Device{Name: name, Capability: capability, SyncPrefs: prefs, b: b}, nil
}

// Close releases the device's store.
func (d *Device) Close() error { return d.b.Close() }

// AddLocalRecords registers records originating on this device.
func (d *Device) AddLocalRecords(recs []Record) {
	d.local = append(d.local, recs...)
}

// Feed returns every record the device should construct from: local
// records plus accepted foreign records.
func (d *Device) Feed() []Record {
	out := make([]Record, 0, len(d.local)+len(d.received))
	out = append(out, d.local...)
	out = append(out, d.received...)
	return out
}

// Construct ingests the device's full feed.
func (d *Device) Construct() error {
	_, err := d.b.ProcessBatch(d.Feed(), 0)
	if err != nil {
		return err
	}
	return d.b.Checkpoint()
}

// Export returns the device's local records belonging to sources it has
// agreed to sync. Records from unsynced sources are withheld.
func (d *Device) Export() []Record {
	var out []Record
	for _, r := range d.local {
		if d.SyncPrefs[r.Source] {
			out = append(out, r)
		}
	}
	return out
}

// Accept ingests foreign records, keeping only sources this device syncs.
// Duplicate record keys are dropped.
func (d *Device) Accept(recs []Record) {
	have := make(map[string]bool, len(d.local)+len(d.received))
	for _, r := range d.local {
		have[r.Key()] = true
	}
	for _, r := range d.received {
		have[r.Key()] = true
	}
	for _, r := range recs {
		if !d.SyncPrefs[r.Source] || have[r.Key()] {
			continue
		}
		have[r.Key()] = true
		d.received = append(d.received, r)
	}
}

// SyncGroup is the set of a user's linked devices.
type SyncGroup struct {
	Devices []*Device
}

// SyncRound performs one all-to-all exchange: every device offers its
// exportable records, every other device accepts what its own prefs
// allow, then every device re-runs construction. Construction is
// incremental, so already-processed records cost only a lookup.
func (sg *SyncGroup) SyncRound() error {
	exports := make([][]Record, len(sg.Devices))
	for i, d := range sg.Devices {
		exports[i] = d.Export()
	}
	for i, d := range sg.Devices {
		for j, recs := range exports {
			if i == j {
				continue
			}
			d.Accept(recs)
		}
	}
	for _, d := range sg.Devices {
		if err := d.Construct(); err != nil {
			return fmt.Errorf("ondevice: construct on %s: %w", d.Name, err)
		}
	}
	return nil
}

func hasSourcePrefix(recordKey string, kind SourceKind) bool {
	prefix := string(kind) + "/"
	return len(recordKey) >= len(prefix) && recordKey[:len(prefix)] == prefix
}

// Converged reports whether all devices agree on the projection of
// commonly-synced sources. Only sources synced by every device are
// compared (a device that keeps its calendar local will legitimately
// have extra calendar entities).
func (sg *SyncGroup) Converged() (bool, error) {
	if len(sg.Devices) < 2 {
		return true, nil
	}
	common := make(map[SourceKind]bool)
	for _, k := range AllSources {
		common[k] = true
		for _, d := range sg.Devices {
			if !d.SyncPrefs[k] {
				common[k] = false
			}
		}
	}
	keep := func(recordKey string) bool {
		for k, ok := range common {
			if ok && hasSourcePrefix(recordKey, k) {
				return true
			}
		}
		return false
	}
	var ref []string
	for i, d := range sg.Devices {
		proj, err := d.b.CanonicalClusters(keep)
		if err != nil {
			return false, err
		}
		if i == 0 {
			ref = proj
			continue
		}
		if !equalStrings(ref, proj) {
			return false, nil
		}
	}
	return true, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// OffloadResult is the outcome of capability-based offload.
type OffloadResult struct {
	// Executor is the device that ran the computation.
	Executor string
	// Result is the computed artifact, shipped to all devices.
	Result []string
}

// OffloadExpensiveComputation picks the most capable device, runs compute
// on its builder there, and distributes the result — the §5 pattern of
// running "expensive views or inference on larger models" on powerful
// devices and syncing the output.
func (sg *SyncGroup) OffloadExpensiveComputation(compute func(*Builder) ([]string, error)) (OffloadResult, error) {
	if len(sg.Devices) == 0 {
		return OffloadResult{}, fmt.Errorf("ondevice: empty sync group")
	}
	best := sg.Devices[0]
	for _, d := range sg.Devices[1:] {
		if d.Capability > best.Capability {
			best = d
		}
	}
	res, err := compute(best.b)
	if err != nil {
		return OffloadResult{}, err
	}
	sort.Strings(res)
	return OffloadResult{Executor: best.Name, Result: res}, nil
}
