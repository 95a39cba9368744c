// On-device example: the full §5 story. Fig 7's entity-linking scenario
// (contact + message sender + calendar invitee fuse into one "Tim Smith"),
// contextual contact ranking ("message Tim that I've added comments to
// the SIGMOD draft"), pausable incremental construction under a memory
// budget, per-source cross-device sync, and the three global knowledge
// enrichment paths.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"saga/internal/ondevice"
	"saga/saga"
)

func main() {
	base, err := os.MkdirTemp("", "saga-ondevice-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	// --- Fig 7: personal KG construction --------------------------------
	fmt.Println("== personal KG construction (Fig 7) ==")
	b, err := ondevice.NewBuilder(filepath.Join(base, "phone-kg"), 4096)
	if err != nil {
		log.Fatal(err)
	}
	records := []saga.DeviceRecord{
		{Source: ondevice.SourceContacts, LocalID: "c1", Name: "Tim Smith",
			Phone: "+1 (123) 555 1234", Email: "Tim@example.com"},
		{Source: ondevice.SourceMessages, LocalID: "m1", Name: "Tim Smith",
			Phone: "123-555-1234", Note: "re: SIGMOD draft comments"},
		{Source: ondevice.SourceCalendar, LocalID: "e1", Name: "Smith, Tim",
			Email: "tim@example.com", Note: "SIGMOD planning meeting"},
		{Source: ondevice.SourceContacts, LocalID: "c2", Name: "Tim Jones",
			Phone: "999-888-7777", Note: "soccer league"},
	}
	// Pausable processing: two records, checkpoint, then the rest.
	if _, err := b.ProcessBatch(records, 2); err != nil {
		log.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("processed 2 records, checkpointed (pipeline pausable mid-stream)")
	if _, err := b.ProcessBatch(records, 0); err != nil {
		log.Fatal(err)
	}
	ents, err := b.Entities()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fused %d raw records into %d person entities:\n", len(records), len(ents))
	for _, e := range ents {
		fmt.Printf("  entity %d: names=%v phones=%v emails=%v (%d records)\n",
			e.ID, e.Names, e.Phones, e.Emails, len(e.RecordKeys))
	}

	// Contextual contact ranking.
	ranked := ondevice.RankContactsByContext(ents, "Tim", "I've added comments to the SIGMOD draft")
	fmt.Printf("\n\"message Tim about the SIGMOD draft\" resolves to: %v\n", ranked[0].Names)
	if err := b.Close(); err != nil {
		log.Fatal(err)
	}

	// --- Cross-device sync ----------------------------------------------
	fmt.Println("\n== cross-device sync with per-source preferences ==")
	data, _ := ondevice.GenerateDeviceData(ondevice.DeviceDataConfig{NumPersons: 12, RecordsPerPerson: 4, Seed: 7})
	phonePrefs := map[ondevice.SourceKind]bool{
		ondevice.SourceContacts: true, ondevice.SourceMessages: true, ondevice.SourceCalendar: false,
	}
	laptopPrefs := map[ondevice.SourceKind]bool{
		ondevice.SourceContacts: true, ondevice.SourceMessages: true, ondevice.SourceCalendar: true,
	}
	phone, err := ondevice.NewDevice(base, "phone", 3, phonePrefs, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer phone.Close()
	laptop, err := ondevice.NewDevice(base, "laptop", 10, laptopPrefs, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer laptop.Close()
	phone.AddLocalRecords(data)
	group := &ondevice.SyncGroup{Devices: []*ondevice.Device{phone, laptop}}
	if err := group.SyncRound(); err != nil {
		log.Fatal(err)
	}
	converged, err := group.Converged()
	if err != nil {
		log.Fatal(err)
	}
	calendarLeaked := false
	for _, r := range laptop.Feed() {
		if r.Source == ondevice.SourceCalendar {
			calendarLeaked = true
		}
	}
	fmt.Printf("devices converged on common sources: %v\n", converged)
	fmt.Printf("calendar (unsynced by phone's preference) leaked to laptop: %v\n", calendarLeaked)

	// Offload to the most capable device.
	res, err := group.OffloadExpensiveComputation(func(b *ondevice.Builder) ([]string, error) {
		es, err := b.Entities()
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("summary over %d entities", len(es))}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expensive computation offloaded to %q: %v\n", res.Executor, res.Result)

	// --- Global knowledge enrichment -------------------------------------
	fmt.Println("\n== global knowledge enrichment ==")
	world, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: 100, NumClusters: 5, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	asset, err := ondevice.BuildStaticAsset(world.Graph, 20)
	if err != nil {
		log.Fatal(err)
	}
	popKey := world.Graph.Entity(world.People[0]).Key
	if entry, ok := asset.Lookup(popKey); ok {
		fmt.Printf("static asset (%d entities) answers %q locally: %d facts, zero leakage\n",
			asset.Size(), entry.Name, len(entry.Facts))
	}
	// The asset follows popularity (§5): a tail entity that becomes popular
	// ships with the next refresh.
	rising := world.Graph.Entity(world.People[len(world.People)-1])
	world.Graph.SetPopularity(rising.ID, 1e9)
	asset.Refresh()
	if _, ok := asset.Lookup(rising.Key); !ok {
		log.Fatalf("refreshed static asset lacks %s after its popularity rose", rising.Key)
	}
	fmt.Printf("after %s's popularity rose, the refreshed asset answers it locally\n", rising.Key)

	cache := ondevice.NewPiggybackCache()
	midKey := world.Graph.Entity(world.People[40]).Key
	if facts, ok := cache.ServerInteraction(world.Graph, midKey); ok {
		fmt.Printf("piggyback: user-initiated server request enriched the device with %d facts about %s\n",
			len(facts), midKey)
	}

	pir := ondevice.NewPIRServer(world.Graph)
	tailKey := world.Graph.Entity(world.People[90]).Key
	if _, ok := pir.Fetch(tailKey); ok {
		fmt.Printf("private retrieval of %s cost %d row-scans (corpus=%d rows) — reserved for high-value lookups\n",
			tailKey, pir.CostUnits, pir.NumRows())
	}
	rng := rand.New(rand.NewSource(7))
	noisy, err := ondevice.DPNoisyCount(42, 1, 1.0, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DP aggregate query: true count 42 released as %.1f under epsilon=1\n", noisy)
}
