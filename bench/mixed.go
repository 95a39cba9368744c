package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/kg"
	"saga/saga"
)

// writer is mixed-live's second client: an open loop that sends one
// /ingest batch every 1/rate seconds whatever the server is doing, on
// its own connection, timing each batch from the moment it was due.
// Between sends it drains the standing subscriptions' event channels
// into per-subscription mirrors.
type writer struct {
	st          *stack
	ops         []op // batches still to send
	c           *client
	interval    time.Duration
	checkpoint  atomic.Bool // set by the reader at fixed windows; the writer takes the checkpoint
	quit        chan struct{}
	wg          sync.WaitGroup
	mirrors     []map[uint64]struct{}
	res         writerResult
	ackWM       []uint64    // watermark each batch was acknowledged at
	ackAt       []time.Time // when
	rulesLagMax atomic.Uint64
	freezeAt    int   // batches after which the byte counters freeze
	segBase     int64 // log bytes on the device when the writer started
}

type writerResult struct {
	attempted, failed int
	sent              int // batches the model must apply
	triples           int64
	respBytes         int64
	latMS, lateMS     []float64
	lagMS             []float64 // notify lag per delivered event
	events            int
	rulesLagMax       uint64
	checkpoints       int
	checkpointS       float64
	firstErr          error
	// mirrors are the subscriptions' answer sets as the drained events
	// built them; drain applies whatever has arrived since.
	mirrors []map[uint64]struct{}
	drain   func()
	// frozen is the writer's share of bytes_per_row, taken when batch
	// freezeAt completes: a fixed amount of write work, however long the
	// reader went on.
	frozen struct{ respBytes, triples, segBytes int64 }
}

func newWriter(cfg *runConfig, st *stack, pl *plan, lastWM uint64) *writer {
	wr := &writer{
		st: st, ops: pl.writes[pl.warmWrites:], c: newClient(st.base),
		interval: time.Second / time.Duration(cfg.sz.mixedRate),
		quit:     make(chan struct{}),
		mirrors:  make([]map[uint64]struct{}, len(st.subs)),
		freezeAt: max(1, int(cfg.seconds*float64(cfg.sz.mixedRate)*0.6)),
		segBase:  st.fs.segBytes.Load(),
	}
	wr.c.lastWM = lastWM
	for i := range wr.mirrors {
		wr.mirrors[i] = make(map[uint64]struct{})
	}
	wr.drain() // snapshot events and whatever warm-up produced
	return wr
}

func (wr *writer) start() {
	wr.wg.Add(2)
	go func() {
		defer wr.wg.Done()
		wr.run()
	}()
	// RuleStats takes the rule maintainer's lock, which a long repair
	// holds for seconds; sampling it from the writer would stall the
	// writer behind the very maintenance it is meant to observe. A
	// monitor of its own can wait.
	go func() {
		defer wr.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-wr.quit:
				return
			case <-tick.C:
				if lag := wr.st.p.RuleStats().Lag; lag > wr.rulesLagMax.Load() {
					wr.rulesLagMax.Store(lag)
				}
			}
		}
	}()
}

// stop ends the loop after the batch in flight and returns what was
// measured.
func (wr *writer) stop() *writerResult {
	close(wr.quit)
	wr.wg.Wait()
	wr.c.close()
	wr.res.rulesLagMax = wr.rulesLagMax.Load()
	wr.res.mirrors, wr.res.drain = wr.mirrors, wr.drain
	return &wr.res
}

func (wr *writer) run() {
	start := time.Now()
	for i := range wr.ops {
		due := start.Add(time.Duration(i) * wr.interval)
		for {
			wr.drain()
			select {
			case <-wr.quit:
				return
			default:
			}
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			time.Sleep(min(wait, time.Millisecond))
		}
		if wr.checkpoint.CompareAndSwap(true, false) {
			t0 := time.Now()
			// Checkpoint truncates the graph's log at its watermark whether
			// or not the changefeed's consumers have read that far. A rule
			// maintainer caught mid-repair then finds the floor past its
			// cursor and re-derives from scratch under live writes, which
			// stalled /ingest for up to 10 s in two of a dozen runs. The
			// writer is the only mutator and it is paused here, so letting
			// the maintainer drain first closes that window; the hazard is
			// the repository's and is written up in README.md.
			wr.st.p.Rules().Sync()
			if _, err := wr.st.p.CheckpointDurable(); err != nil {
				wr.fail(fmt.Errorf("checkpoint: %w", err))
			}
			wr.res.checkpoints++
			wr.res.checkpointS += time.Since(t0).Seconds()
		}
		o := &wr.ops[i]
		sendAt := time.Now()
		out := wr.c.do(o, due)
		wr.res.attempted++
		wr.res.sent++
		if out.err != nil {
			wr.fail(fmt.Errorf("write %d: %w", i, out.err))
			wr.res.latMS = append(wr.res.latMS, math.Inf(1))
			continue
		}
		wr.res.latMS = append(wr.res.latMS, float64(out.lat)/float64(time.Millisecond))
		wr.res.lateMS = append(wr.res.lateMS, float64(sendAt.Sub(due))/float64(time.Millisecond))
		wr.res.triples += int64(out.rows)
		wr.res.respBytes += int64(out.bytes)
		wr.ackWM = append(wr.ackWM, wr.c.lastWM)
		wr.ackAt = append(wr.ackAt, time.Now())
		if wr.res.attempted <= wr.freezeAt {
			wr.res.frozen.respBytes, wr.res.frozen.triples = wr.res.respBytes, wr.res.triples
			wr.res.frozen.segBytes = wr.st.fs.segBytes.Load() - wr.segBase
		}
	}
	wr.fail(fmt.Errorf("writer ran out of its %d pre-generated batches", len(wr.ops)))
}

func (wr *writer) fail(err error) {
	wr.res.failed++
	if wr.res.firstErr == nil {
		wr.res.firstErr = err
	}
}

// drain empties every subscription channel without blocking, applying
// each event to its mirror and recording how long after its newest
// write's acknowledgement it arrived.
func (wr *writer) drain() {
	for i, sub := range wr.st.subs {
		for more := true; more; {
			select {
			case ev, ok := <-sub.C:
				if !ok {
					more = false
					break
				}
				wr.apply(i, ev)
			default:
				more = false
			}
		}
	}
}

func (wr *writer) apply(i int, ev saga.SubscriptionEvent) {
	g := wr.st.p.Graph()
	mirror := wr.mirrors[i]
	if ev.Reset {
		clear(mirror)
	}
	for _, b := range ev.Adds {
		mirror[bindingRowHash(g, b)] = struct{}{}
	}
	for _, b := range ev.Retracts {
		delete(mirror, bindingRowHash(g, b))
	}
	if ev.Reset {
		return
	}
	wr.res.events++
	// The newest acknowledged write the event can reflect.
	if j := sort.Search(len(wr.ackWM), func(k int) bool { return wr.ackWM[k] > ev.Watermark }); j > 0 {
		wr.res.lagMS = append(wr.res.lagMS, float64(time.Since(wr.ackAt[j-1]))/float64(time.Millisecond))
	}
}

// bindingRowHash reduces an engine binding to the oracle's row hash.
func bindingRowHash(g *kg.Graph, b saga.QueryBinding) uint64 {
	row := make(map[string]string, len(b))
	for name, val := range b {
		if val.IsEntity() {
			row[name] = "@" + g.Entity(val.Entity).Key
		} else {
			row[name] = val.String()
		}
	}
	return rowHash(row)
}

// endChecks are the per-workload end-state checks.
func endChecks(cfg *runConfig, st *stack, pl *plan, ms *measured) error {
	switch st.sp.name {
	case "ingest-durable":
		return checkRecovery(cfg, st, pl, ms)
	case "mixed-live":
		return checkLive(cfg, st, pl, ms)
	}
	return nil
}

// applyWrites replays batches into the model.
func applyWrites(m *model, ops []op) {
	for i := range ops {
		for _, f := range ops[i].batch.asserts {
			m.assert(f)
		}
		for _, f := range ops[i].batch.retracts {
			m.retract(f)
		}
	}
}

// checkRecovery is ingest-durable's crash test: the live graph must
// equal the model that applied the same batches; then the manager is
// abandoned without Close, the directory reopened into a fresh
// platform, and the recovered graph must reach at least the last
// acknowledged watermark and carry the same triples.
func checkRecovery(cfg *runConfig, st *stack, pl *plan, ms *measured) error {
	applyWrites(pl.m, pl.warm)
	applyWrites(pl.m, pl.main[:ms.loop.attempted])
	wantSum, wantN := pl.m.digest()
	if sum, n := graphDigest(st.p.Graph()); sum != wantSum || n != wantN {
		return fmt.Errorf("live graph has %d triples (digest %x); the model has %d (%x)", n, sum, wantN, wantSum)
	}
	acked := st.p.Durability().DurableLSN()
	st.shutdown() // the listener goes; the WAL manager is simply dropped, as a crash would

	t0 := time.Now()
	p2, info, err := saga.OpenDurablePlatform(st.dir, saga.DurableOptions{Sync: saga.SyncEachCommit})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", st.dir, err)
	}
	ms.recoverS = time.Since(t0).Seconds()
	defer p2.CloseDurable() //nolint:errcheck // read-only use; the directory is removed by stack.close
	if info.RecoveredLSN < acked {
		return fmt.Errorf("recovered LSN %d is behind the acknowledged watermark %d", info.RecoveredLSN, acked)
	}
	if sum, n := graphDigest(p2.Graph()); sum != wantSum || n != wantN {
		return fmt.Errorf("recovered graph has %d triples (digest %x); the model has %d (%x)", n, sum, wantN, wantSum)
	}
	cfg.logf("# recovery: LSN %d >= acknowledged %d, %d triples, digest %x, %.3fs (%d mutations replayed past checkpoint %d)",
		info.RecoveredLSN, acked, wantN, wantSum, ms.recoverS, info.MutationsReplayed, info.CheckpointLSN)
	return nil
}

// checkLive is mixed-live's end state: the live graph, every
// subscription's mirror, and the derived circle relation must all equal
// what a naive model gives after applying the same write list.
func checkLive(cfg *runConfig, st *stack, pl *plan, ms *measured) error {
	wr := ms.writer
	if wr.firstErr != nil {
		return wr.firstErr
	}
	applyWrites(pl.m, pl.writes[:pl.warmWrites+wr.sent])
	wantSum, wantN := pl.m.digest()
	if sum, n := graphDigest(st.p.Graph()); sum != wantSum || n != wantN {
		return fmt.Errorf("live graph has %d triples (digest %x); the model has %d (%x)", n, sum, wantN, wantSum)
	}

	// Mirrors converge once the hub has polled and every coalescing
	// window has closed; poll rather than guess how long that takes.
	wants := make([]map[uint64]struct{}, len(st.subCls))
	for i, cls := range st.subCls {
		wants[i] = pl.m.answers(cls)
	}
	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for {
		wr.drain()
		lastErr = nil
		for i, want := range wants {
			if !sameSet(want, wr.mirrors[i]) {
				lastErr = fmt.Errorf("subscription %d mirror has %d rows; the model has %d", i, len(wr.mirrors[i]), len(want))
				break
			}
		}
		if lastErr == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr != nil {
		return lastErr
	}

	// Rules: delta-maintained circle ≡ the closure computed from scratch.
	st.p.Rules().Sync()
	circle, ok := st.p.Graph().PredicateByName("circle")
	if !ok {
		return fmt.Errorf("derived predicate circle is missing")
	}
	got := make(map[[2]kg.EntityID]struct{})
	for b, err := range st.p.QueryStream([]saga.QueryClause{{Subject: saga.QVar("x"), Predicate: circle.ID, Object: saga.QVar("y")}}, saga.QueryOptions{}) {
		if err != nil {
			return fmt.Errorf("stream circle: %w", err)
		}
		got[[2]kg.EntityID{b["x"].Entity, b["y"].Entity}] = struct{}{}
	}
	want := naiveCircle(st.world, pl.m)
	if len(got) != len(want) {
		return fmt.Errorf("derived circle has %d facts; the from-scratch closure has %d", len(got), len(want))
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			return fmt.Errorf("derived circle lacks %v", k)
		}
	}
	cfg.logf("# live end state: %d triples match the model, %d subscription mirrors match, circle has %d facts = from-scratch closure",
		wantN, len(st.subCls), len(want))
	return nil
}

func sameSet(a, b map[uint64]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// naiveCircle evaluates liveRules from scratch over the model: link
// edges by definition, circle by a search from every node.
func naiveCircle(w *saga.World, m *model) map[[2]kg.EntityID]struct{} {
	ix := m.index()
	collab, spouse := w.Preds["collaborator"], w.Preds["spouse"]
	link := make(map[kg.EntityID][]kg.EntityID)
	for _, f := range ix.byP[collab] {
		if len(ix.bySP[spKey{f.o.ent, spouse}]) > 0 {
			link[f.s] = append(link[f.s], f.o.ent)
		}
	}
	out := make(map[[2]kg.EntityID]struct{})
	for src := range link {
		seen := make(map[kg.EntityID]bool)
		stack := append([]kg.EntityID(nil), link[src]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			out[[2]kg.EntityID{src, n}] = struct{}{}
			stack = append(stack, link[n]...)
		}
	}
	return out
}
