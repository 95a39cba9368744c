package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAcquireFastPath(t *testing.T) {
	ctl := NewController(Limits{MaxInFlight: 2, MaxQueue: 2, QueueWait: time.Second}, Limits{}, Limits{})
	rel1, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats().Classes["read"]
	if st.InFlight != 2 || st.Admitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	rel1()
	rel1() // idempotent
	rel2()
	if got := ctl.Stats().Classes["read"].InFlight; got != 0 {
		t.Fatalf("in_flight after release = %d", got)
	}
}

func TestQueueFullSheds(t *testing.T) {
	ctl := NewController(Limits{MaxInFlight: 1, MaxQueue: 0}, Limits{}, Limits{})
	rel, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := ctl.Acquire(context.Background(), Read); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := ctl.Stats().Classes["read"].ShedQueueFull; got != 1 {
		t.Fatalf("shed_queue_full = %d", got)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	ctl := NewController(Limits{MaxInFlight: 1, MaxQueue: 4, QueueWait: 20 * time.Millisecond}, Limits{}, Limits{})
	rel, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	start := time.Now()
	if _, err := ctl.Acquire(context.Background(), Read); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("shed after %v, want >= queue deadline", waited)
	}
	if got := ctl.Stats().Classes["read"].ShedQueueTimeout; got != 1 {
		t.Fatalf("shed_queue_timeout = %d", got)
	}
}

func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	ctl := NewController(Limits{MaxInFlight: 1, MaxQueue: 4, QueueWait: 2 * time.Second}, Limits{}, Limits{})
	rel, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rel2, err := ctl.Acquire(context.Background(), Read)
		if err == nil {
			rel2()
		}
		done <- err
	}()
	// Let the waiter queue, then free the slot.
	for ctl.Stats().Classes["read"].QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	rel()
	if err := <-done; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	st := ctl.Stats().Classes["read"]
	if st.QueueDepth != 0 || st.Admitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.QueueWaitMaxMS <= 0 {
		t.Fatalf("queue wait not recorded: %+v", st)
	}
}

func TestContextCancelWhileQueued(t *testing.T) {
	ctl := NewController(Limits{MaxInFlight: 1, MaxQueue: 4, QueueWait: 2 * time.Second}, Limits{}, Limits{})
	rel, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ctl.Acquire(ctx, Read)
		done <- err
	}()
	for ctl.Stats().Classes["read"].QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWriteShedsWhileReadsQueue(t *testing.T) {
	ctl := NewController(
		Limits{MaxInFlight: 1, MaxQueue: 4, QueueWait: 2 * time.Second},
		Limits{MaxInFlight: 8, MaxQueue: 8, QueueWait: time.Second},
		Limits{})
	// Writes sail through while reads are healthy.
	relW, err := ctl.Acquire(context.Background(), Write)
	if err != nil {
		t.Fatal(err)
	}
	relW()
	// Saturate reads and park one in the queue.
	relR, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	defer relR()
	queued := make(chan error, 1)
	go func() {
		rel, err := ctl.Acquire(context.Background(), Read)
		if err == nil {
			rel()
		}
		queued <- err
	}()
	for ctl.Stats().Classes["read"].QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	// Now a write must shed immediately, leaving its slots untouched.
	if _, err := ctl.Acquire(context.Background(), Write); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if got := ctl.Stats().Classes["write"].ShedDegraded; got != 1 {
		t.Fatalf("shed_degraded = %d", got)
	}
	relR()
	if err := <-queued; err != nil {
		t.Fatalf("queued read: %v", err)
	}
}

func TestDrain(t *testing.T) {
	ctl := NewController(Limits{MaxInFlight: 4}, Limits{MaxInFlight: 4}, Limits{MaxInFlight: 4})
	rel, err := ctl.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatal(err)
	}
	ctl.StartDrain()
	ctl.StartDrain() // idempotent
	for _, c := range []Class{Read, Write, Subscribe} {
		if _, err := ctl.Acquire(context.Background(), c); !errors.Is(err, ErrDraining) {
			t.Fatalf("class %v err = %v, want ErrDraining", c, err)
		}
	}
	// Exempt traffic still flows during drain.
	relH, err := ctl.Acquire(context.Background(), Exempt)
	if err != nil {
		t.Fatalf("exempt during drain: %v", err)
	}
	relH()
	if st := ctl.Stats(); !st.Draining || st.DrainedInMS != 0 {
		t.Fatalf("mid-drain stats = %+v", st)
	}
	rel()
	// The first quiesced snapshot latches the drain latency.
	if st := ctl.Stats(); st.DrainedInMS <= 0 {
		t.Fatalf("drained_in_ms not latched: %+v", st)
	}
	first := ctl.Stats().DrainedInMS
	time.Sleep(5 * time.Millisecond)
	if again := ctl.Stats().DrainedInMS; again != first {
		t.Fatalf("drain latency moved after latching: %v -> %v", first, again)
	}
}

func TestWithBudget(t *testing.T) {
	ctl := NewController(Limits{Budget: 10 * time.Millisecond}, Limits{}, Limits{})
	ctx, cancel := ctl.WithBudget(context.Background(), Read)
	defer cancel()
	<-ctx.Done()
	if cause := context.Cause(ctx); !errors.Is(cause, ErrBudget) {
		t.Fatalf("cause = %v, want ErrBudget", cause)
	}
	// Zero budget: context passes through untouched.
	base := context.Background()
	ctx2, cancel2 := ctl.WithBudget(base, Subscribe)
	defer cancel2()
	if ctx2 != base {
		t.Fatal("zero budget should not wrap the context")
	}
	if ctl.classes[Read].limits.Budget != 10*time.Millisecond || ctl.classes[Subscribe].limits.Budget != 0 {
		t.Fatal("configured budgets mismatch")
	}
}

// TestConcurrentChurn hammers one class from many goroutines under
// -race: every admit is released, gauges return to zero, and
// admitted + sheds accounts for every attempt.
func TestConcurrentChurn(t *testing.T) {
	ctl := NewController(Limits{MaxInFlight: 4, MaxQueue: 8, QueueWait: 5 * time.Millisecond}, Limits{}, Limits{})
	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rel, err := ctl.Acquire(context.Background(), Read)
				if err != nil {
					continue
				}
				rel()
			}
		}()
	}
	wg.Wait()
	st := ctl.Stats().Classes["read"]
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}
	if total := st.Admitted + st.ShedQueueFull + st.ShedQueueTimeout; total != workers*perWorker {
		t.Fatalf("admitted+shed = %d, want %d", total, workers*perWorker)
	}
}
