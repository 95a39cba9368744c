package ondevice

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"saga/internal/kg"
	"saga/internal/metrics"
	"saga/internal/workload"
)

func TestRecordNormalization(t *testing.T) {
	r := Record{Source: SourceContacts, LocalID: "1", Name: "Smith, Tim",
		Phone: "+1 (123) 555-1234", Email: " Tim@Example.COM "}
	if got := r.NormPhone(); got != "1235551234" {
		t.Fatalf("NormPhone = %q", got)
	}
	if got := r.NormEmail(); got != "tim@example.com" {
		t.Fatalf("NormEmail = %q", got)
	}
	r2 := Record{Name: "Tim Smith", Phone: "123-555-1234"}
	if r.NormPhone() != r2.NormPhone() {
		t.Fatal("formatted and bare phones must normalize equal")
	}
}

// TestFig7Scenario is the paper's worked example: a contact card, a
// message sender sharing the phone number, and a calendar invitee sharing
// the email must fuse into a single "Tim Smith" entity.
func TestFig7Scenario(t *testing.T) {
	b, err := NewBuilder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	records := []Record{
		{Source: SourceContacts, LocalID: "c1", Name: "Tim Smith",
			Phone: "+1 (123) 555 1234", Email: "Tim@example.com"},
		{Source: SourceMessages, LocalID: "m1", Name: "Tim Smith",
			Phone: "123-555-1234", Note: "re: SIGMOD draft"},
		{Source: SourceCalendar, LocalID: "e1", Name: "Tim Smith",
			Email: "tim@example.com", Note: "SIGMOD planning meeting"},
		// A different Tim with no shared keys must stay separate.
		{Source: SourceContacts, LocalID: "c2", Name: "Tim Jones",
			Phone: "999-888-7777", Email: "tim.jones@other.org"},
	}
	if _, err := b.ProcessBatch(records, 0); err != nil {
		t.Fatal(err)
	}
	ents, err := b.Entities()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("entities = %d, want 2 (one fused Tim Smith, one Tim Jones)", len(ents))
	}
	var smith *PersonEntity
	for i := range ents {
		if len(ents[i].RecordKeys) == 3 {
			smith = &ents[i]
		}
	}
	if smith == nil {
		t.Fatalf("no 3-record fused entity: %+v", ents)
	}
	if len(smith.Phones) != 1 || smith.Phones[0] != "1235551234" {
		t.Fatalf("fused phones = %v", smith.Phones)
	}
	if len(smith.Emails) != 1 || smith.Emails[0] != "tim@example.com" {
		t.Fatalf("fused emails = %v", smith.Emails)
	}
}

func TestMergeAcrossChains(t *testing.T) {
	// A record sharing phone with cluster A and email with cluster B must
	// merge A and B.
	b, err := NewBuilder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	records := []Record{
		{Source: SourceMessages, LocalID: "m1", Name: "Ana", Phone: "111-222-3333"},
		{Source: SourceCalendar, LocalID: "e1", Name: "Ana Lopez", Email: "ana@x.com"},
		{Source: SourceContacts, LocalID: "c1", Name: "Ana Lopez",
			Phone: "1112223333", Email: "ANA@X.COM"},
	}
	if _, err := b.ProcessBatch(records, 0); err != nil {
		t.Fatal(err)
	}
	ents, err := b.Entities()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("entities = %d, want 1 after bridge merge", len(ents))
	}
	if len(ents[0].RecordKeys) != 3 {
		t.Fatalf("record keys = %v", ents[0].RecordKeys)
	}
}

func TestNameAloneDoesNotMerge(t *testing.T) {
	b, err := NewBuilder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	records := []Record{
		{Source: SourceContacts, LocalID: "c1", Name: "Tim Smith", Phone: "111"},
		{Source: SourceContacts, LocalID: "c2", Name: "Tim Smith", Phone: "222"},
	}
	if _, err := b.ProcessBatch(records, 0); err != nil {
		t.Fatal(err)
	}
	ents, err := b.Entities()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("two distinct Tims merged by name alone: %+v", ents)
	}
}

func TestMatchingQualityOnGeneratedData(t *testing.T) {
	records, truth := GenerateDeviceData(DeviceDataConfig{NumPersons: 25, RecordsPerPerson: 4, Seed: 5})
	b, err := NewBuilder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.ProcessBatch(records, 0); err != nil {
		t.Fatal(err)
	}
	ents, err := b.Entities()
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise precision/recall against ground truth.
	cluster := make(map[string]int) // record key -> entity id
	for _, e := range ents {
		for _, rk := range e.RecordKeys {
			cluster[rk] = e.ID
		}
	}
	var conf metrics.Confusion
	keys := make([]string, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			samePred := cluster[keys[i]] == cluster[keys[j]]
			sameTruth := truth[keys[i]] == truth[keys[j]]
			conf.Add(samePred, sameTruth)
		}
	}
	if p := conf.Precision(); p < 0.95 {
		t.Fatalf("pairwise precision = %v", p)
	}
	if r := conf.Recall(); r < 0.8 {
		t.Fatalf("pairwise recall = %v", r)
	}
}

func TestPauseResumeEquivalence(t *testing.T) {
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 15, RecordsPerPerson: 4, Seed: 9})

	// Continuous run.
	bCont, err := NewBuilder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bCont.Close()
	if _, err := bCont.ProcessBatch(records, 0); err != nil {
		t.Fatal(err)
	}
	wantClusters, err := bCont.CanonicalClusters(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Paused run: process in chunks of 7, checkpoint + reopen between
	// chunks (simulating deferral to higher-priority tasks, §5).
	dir := t.TempDir()
	var processedTotal int
	for {
		b, err := NewBuilder(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.ProcessBatch(records, 7)
		if err != nil {
			t.Fatal(err)
		}
		processedTotal += n
		if err := b.Close(); err != nil { // Close checkpoints
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if processedTotal != len(records) {
		t.Fatalf("paused run processed %d, want %d", processedTotal, len(records))
	}
	bRes, err := NewBuilder(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bRes.Close()
	gotClusters, err := bRes.CanonicalClusters(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(wantClusters, gotClusters) {
		t.Fatalf("pause/resume clustering differs:\ncontinuous: %v\npaused:     %v", wantClusters, gotClusters)
	}
}

func TestMemoryBudgetSpills(t *testing.T) {
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 30, RecordsPerPerson: 4, Seed: 13})

	run := func(budget int) (int, []string) {
		b, err := NewBuilder(t.TempDir(), budget)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := b.ProcessBatch(records, 0); err != nil {
			t.Fatal(err)
		}
		clusters, err := b.CanonicalClusters(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b.SpillCount(), clusters
	}
	tinySpills, tinyClusters := run(512)
	bigSpills, bigClusters := run(1 << 20)
	if tinySpills <= bigSpills {
		t.Fatalf("tiny budget spills (%d) must exceed big budget spills (%d)", tinySpills, bigSpills)
	}
	if !equalStrings(tinyClusters, bigClusters) {
		t.Fatal("memory budget changed the clustering output")
	}
}

func TestOrderIndependence(t *testing.T) {
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 12, RecordsPerPerson: 4, Seed: 17})
	run := func(rs []Record) []string {
		b, err := NewBuilder(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := b.ProcessBatch(rs, 0); err != nil {
			t.Fatal(err)
		}
		clusters, err := b.CanonicalClusters(nil)
		if err != nil {
			t.Fatal(err)
		}
		return clusters
	}
	forward := run(records)
	reversed := make([]Record, len(records))
	for i, r := range records {
		reversed[len(records)-1-i] = r
	}
	backward := run(reversed)
	if !equalStrings(forward, backward) {
		t.Fatal("clustering depends on record order")
	}
}

func TestRankContactsByContext(t *testing.T) {
	ents := []PersonEntity{
		{ID: 1, Names: []string{"Tim Smith"}, Notes: []string{"SIGMOD planning meeting", "paper review"}},
		{ID: 2, Names: []string{"Tim Jones"}, Notes: []string{"soccer practice"}},
		{ID: 3, Names: []string{"Ana Lopez"}, Notes: []string{"SIGMOD dinner"}},
	}
	ranked := RankContactsByContext(ents, "Tim", "I've added comments to the SIGMOD draft")
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d Tims, want 2 (Ana filtered)", len(ranked))
	}
	if ranked[0].ID != 1 {
		t.Fatalf("top contact = %d, want the SIGMOD coworker", ranked[0].ID)
	}
	// No name hit: empty.
	if got := RankContactsByContext(ents, "Zoe", "anything"); len(got) != 0 {
		t.Fatalf("unmatched mention = %v", got)
	}
}

func TestSyncConvergenceAllSources(t *testing.T) {
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 15, RecordsPerPerson: 4, Seed: 21})
	base := t.TempDir()
	allPrefs := func() map[SourceKind]bool {
		return map[SourceKind]bool{SourceContacts: true, SourceMessages: true, SourceCalendar: true}
	}
	phone, err := NewDevice(base, "phone", 3, allPrefs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer phone.Close()
	laptop, err := NewDevice(base, "laptop", 10, allPrefs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer laptop.Close()
	watch, err := NewDevice(base, "watch", 1, allPrefs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()

	// Partition records across devices by source.
	for _, r := range records {
		switch r.Source {
		case SourceContacts:
			phone.AddLocalRecords([]Record{r})
		case SourceMessages:
			laptop.AddLocalRecords([]Record{r})
		default:
			watch.AddLocalRecords([]Record{r})
		}
	}
	sg := &SyncGroup{Devices: []*Device{phone, laptop, watch}}
	if err := sg.SyncRound(); err != nil {
		t.Fatal(err)
	}
	ok, err := sg.Converged()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("devices did not converge after full sync")
	}
}

func TestSyncPerSourcePrefsRespected(t *testing.T) {
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 10, RecordsPerPerson: 4, Seed: 23})
	base := t.TempDir()
	// Phone owns calendar but refuses to sync it.
	phonePrefs := map[SourceKind]bool{SourceContacts: true, SourceMessages: true, SourceCalendar: false}
	laptopPrefs := map[SourceKind]bool{SourceContacts: true, SourceMessages: true, SourceCalendar: true}
	phone, err := NewDevice(base, "phone", 3, phonePrefs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer phone.Close()
	laptop, err := NewDevice(base, "laptop", 10, laptopPrefs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer laptop.Close()
	phone.AddLocalRecords(records) // all data originates on the phone
	sg := &SyncGroup{Devices: []*Device{phone, laptop}}
	if err := sg.SyncRound(); err != nil {
		t.Fatal(err)
	}
	// Laptop must have no calendar records.
	for _, r := range laptop.Feed() {
		if r.Source == SourceCalendar {
			t.Fatalf("calendar record %s leaked to laptop despite phone's pref", r.Key())
		}
	}
	// Common sources still converge.
	ok, err := sg.Converged()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("common-source projection did not converge")
	}
	// Phone retains its own calendar entities locally.
	hasCalendar := false
	phoneClusters, err := phone.b.CanonicalClusters(func(rk string) bool {
		return hasSourcePrefix(rk, SourceCalendar)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phoneClusters) > 0 {
		hasCalendar = true
	}
	if !hasCalendar {
		t.Fatal("phone lost its unsynced calendar data")
	}
}

func TestOffloadPicksMostCapable(t *testing.T) {
	base := t.TempDir()
	prefs := map[SourceKind]bool{SourceContacts: true}
	watch, err := NewDevice(base, "watch", 1, prefs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()
	laptop, err := NewDevice(base, "laptop", 10, prefs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer laptop.Close()
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 5, RecordsPerPerson: 2, Seed: 29})
	for _, d := range []*Device{watch, laptop} {
		d.AddLocalRecords(records)
		if err := d.Construct(); err != nil {
			t.Fatal(err)
		}
	}
	sg := &SyncGroup{Devices: []*Device{watch, laptop}}
	res, err := sg.OffloadExpensiveComputation(func(b *Builder) ([]string, error) {
		ents, err := b.Entities()
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Names...)
		}
		return names, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executor != "laptop" {
		t.Fatalf("executor = %s, want the most capable device", res.Executor)
	}
	if len(res.Result) == 0 {
		t.Fatal("empty offload result")
	}
}

func TestStaticAsset(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 40, NumClusters: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	asset, err := BuildStaticAsset(w.Graph, 10)
	if err != nil {
		t.Fatal(err)
	}
	if asset.Size() != 10 {
		t.Fatalf("asset size = %d", asset.Size())
	}
	// The most popular person must be in the asset with facts.
	top := w.Graph.Entity(w.People[0])
	entry, ok := asset.Lookup(top.Key)
	if !ok {
		t.Fatalf("most popular entity %s not in asset", top.Key)
	}
	if len(entry.Facts) == 0 {
		t.Fatal("asset entry has no facts")
	}
	// Unpopular tail entity is absent.
	tail := w.Graph.Entity(w.People[len(w.People)-1])
	if _, ok := asset.Lookup(tail.Key); ok {
		t.Fatal("tail entity unexpectedly in top-10 asset")
	}
	if _, err := BuildStaticAsset(w.Graph, 0); err == nil {
		t.Fatal("topK=0 accepted")
	}
}

func TestStaticAssetRefresh(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 20, NumClusters: 2, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	asset, err := BuildStaticAsset(w.Graph, 5)
	if err != nil {
		t.Fatal(err)
	}
	top := w.Graph.Entity(w.People[0])
	before := len(asset.Entries[top.Key].Facts)
	// Add a new fact about the top entity and refresh.
	pred := w.Preds["award"]
	newFact := w.Awards[1]
	facts := w.Graph.Facts(w.People[0], pred)
	alreadyHas := false
	for _, f := range facts {
		if f.Object.Entity == newFact {
			alreadyHas = true
		}
	}
	if alreadyHas {
		newFact = w.Awards[0]
	}
	if err := w.Graph.Assert(kgTriple(w, w.People[0], pred, newFact)); err != nil {
		t.Fatal(err)
	}
	asset.Refresh()
	after := len(asset.Entries[top.Key].Facts)
	if after != before+1 {
		t.Fatalf("facts after refresh = %d, want %d", after, before+1)
	}
}

// TestStaticAssetFollowsPopularityAndRecords: a refreshed asset is what a
// fresh build on the same graph is — after a popularity change and an
// entity-record change, neither of which draws a mutation sequence, and
// after the mutation log is compacted past the asset's watermark.
func TestStaticAssetFollowsPopularityAndRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		// change moves the graph and names the entry it must show.
		change func(t *testing.T, w *workload.World, asset *StaticAsset) (key string, holds func(AssetEntry) bool)
	}{
		{"popularity", func(t *testing.T, w *workload.World, _ *StaticAsset) (string, func(AssetEntry) bool) {
			tail := w.People[len(w.People)-1]
			w.Graph.SetPopularity(tail, 1e9)
			return w.Graph.Entity(tail).Key, func(e AssetEntry) bool { return e.Popularity == 1e9 }
		}},
		{"record", func(t *testing.T, w *workload.World, _ *StaticAsset) (string, func(AssetEntry) bool) {
			w.Graph.UpdateEntity(w.People[0], func(e *kg.Entity) { e.Name = "Renamed" })
			return w.Graph.Entity(w.People[0]).Key, func(e AssetEntry) bool { return e.Name == "Renamed" }
		}},
		{"truncated-log", func(t *testing.T, w *workload.World, asset *StaticAsset) (string, func(AssetEntry) bool) {
			probe, err := w.Graph.AddPredicate(kg.Predicate{Name: "assetProbe"})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range w.People[1:4] {
				if err := w.Graph.Assert(kgTriple(w, w.People[0], probe, o)); err != nil {
					t.Fatal(err)
				}
			}
			if w.Graph.TruncateLog(w.Graph.LastSeq()) == 0 || w.Graph.LastSeq() <= asset.SourceSeq {
				t.Fatal("the log was not compacted past the asset's watermark")
			}
			want := "assetProbe=" + kg.EntityValue(w.People[1]).String()
			return w.Graph.Entity(w.People[0]).Key, func(e AssetEntry) bool { return slices.Contains(e.Facts, want) }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 40, NumClusters: 4, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			asset, err := BuildStaticAsset(w.Graph, 10)
			if err != nil {
				t.Fatal(err)
			}
			key, holds := c.change(t, w, asset)
			asset.Refresh()
			if e, ok := asset.Lookup(key); !ok || !holds(e) {
				t.Fatalf("refreshed asset shows %s as %+v (present %v)", key, e, ok)
			}
			fresh, err := BuildStaticAsset(w.Graph, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(asset.Entries, fresh.Entries) || asset.SourceSeq != fresh.SourceSeq || asset.Size() != fresh.Size() {
				t.Fatalf("refreshed asset (seq %d, %d entries) differs from a fresh build (seq %d, %d entries)",
					asset.SourceSeq, asset.Size(), fresh.SourceSeq, fresh.Size())
			}
		})
	}
}

func TestPiggybackCache(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 20, NumClusters: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPiggybackCache()
	// People have outgoing facts; teams are only fact objects.
	key := w.Graph.Entity(w.People[0]).Key
	if _, ok := c.facts[key]; ok {
		t.Fatal("cold cache hit")
	}
	facts, ok := c.ServerInteraction(w.Graph, key)
	if !ok || len(facts) == 0 {
		t.Fatal("interaction returned no facts")
	}
	cached, ok := c.facts[key]
	if !ok || len(cached) != len(facts) {
		t.Fatal("cache miss or truncation after interaction")
	}
	if c.Size() != 1 {
		t.Fatalf("cache size = %d", c.Size())
	}
	if _, ok := c.ServerInteraction(w.Graph, "no-such-key"); ok {
		t.Fatal("unknown entity interaction succeeded")
	}
}

func TestPIRCostScalesWithCorpus(t *testing.T) {
	small, err := workload.GenerateKG(workload.KGConfig{NumPeople: 10, NumClusters: 2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	big, err := workload.GenerateKG(workload.KGConfig{NumPeople: 100, NumClusters: 5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	sSmall := NewPIRServer(small.Graph)
	sBig := NewPIRServer(big.Graph)
	keySmall := small.Graph.Entity(small.People[0]).Key
	keyBig := big.Graph.Entity(big.People[0]).Key
	if _, ok := sSmall.Fetch(keySmall); !ok {
		t.Fatal("PIR fetch failed")
	}
	if _, ok := sBig.Fetch(keyBig); !ok {
		t.Fatal("PIR fetch failed")
	}
	if sBig.CostUnits <= sSmall.CostUnits {
		t.Fatalf("PIR cost must scale with corpus: small=%d big=%d", sSmall.CostUnits, sBig.CostUnits)
	}
	if sSmall.CostUnits != sSmall.NumRows() {
		t.Fatalf("one fetch must scan all rows: %d != %d", sSmall.CostUnits, sSmall.NumRows())
	}
}

func TestDPNoisyCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := DPNoisyCount(10, 1, 0, rng); err == nil {
		t.Fatal("epsilon=0 accepted")
	}
	// Noise magnitude decreases as epsilon grows.
	meanAbsNoise := func(eps float64) float64 {
		var sum float64
		const n = 2000
		for i := 0; i < n; i++ {
			v, err := DPNoisyCount(100, 1, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(v - 100)
		}
		return sum / n
	}
	loose := meanAbsNoise(0.1) // scale 10
	tight := meanAbsNoise(10)  // scale 0.1
	if tight >= loose {
		t.Fatalf("noise at eps=10 (%v) must be below eps=0.1 (%v)", tight, loose)
	}
	// Expected |Laplace(b)| = b.
	if math.Abs(loose-10) > 2.5 {
		t.Fatalf("mean |noise| at eps=0.1 = %v, want ~10", loose)
	}
}

// kgTriple is a test helper building an entity-valued triple.
func kgTriple(w *workload.World, s kg.EntityID, p kg.PredicateID, o kg.EntityID) kg.Triple {
	return kg.Triple{Subject: s, Predicate: p, Object: kg.EntityValue(o)}
}

// Property: pausing the construction pipeline at arbitrary chunk
// boundaries (with checkpoint + reopen between chunks) always produces
// the same clustering as an uninterrupted run.
func TestPauseResumeProperty(t *testing.T) {
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 12, RecordsPerPerson: 4, Seed: 55})
	// Reference run.
	ref, err := NewBuilder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.ProcessBatch(records, 0); err != nil {
		t.Fatal(err)
	}
	want, err := ref.CanonicalClusters(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(chunksRaw []uint8) bool {
		dir := t.TempDir()
		remaining := len(records)
		i := 0
		for remaining > 0 {
			chunk := 1
			if i < len(chunksRaw) {
				chunk = int(chunksRaw[i])%9 + 1
			}
			i++
			b, err := NewBuilder(dir, 256) // tiny budget: spills mid-chunk too
			if err != nil {
				return false
			}
			n, err := b.ProcessBatch(records, chunk)
			if err != nil {
				b.Close()
				return false
			}
			if err := b.Close(); err != nil {
				return false
			}
			remaining -= n
			if n == 0 {
				break
			}
		}
		final, err := NewBuilder(dir, 0)
		if err != nil {
			return false
		}
		defer final.Close()
		got, err := final.CanonicalClusters(nil)
		if err != nil {
			return false
		}
		return equalStrings(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProcessRecord(b *testing.B) {
	records, _ := GenerateDeviceData(DeviceDataConfig{NumPersons: 1000, RecordsPerPerson: 4, Seed: 66})
	builder, err := NewBuilder(b.TempDir(), 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	defer builder.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := builder.ProcessRecord(records[i%len(records)]); err != nil {
			b.Fatal(err)
		}
	}
}
