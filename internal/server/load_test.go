package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"saga/internal/admission"
	"saga/internal/kg"
	"saga/internal/workload"
	"saga/saga"
)

// loadServer stands up a real-TCP server over an untrained platform
// (the load mix touches no embedding routes) with the given admission
// limits, returning the test server, the *Server for stats access, and
// the world whose keys the workload ops use.
func loadServer(t *testing.T, read, write, subscribe admission.Limits) (*httptest.Server, *Server, *saga.World) {
	return loadServerSized(t, 120, read, write, subscribe)
}

// loadServerSized is loadServer with a chosen world size: the overload
// test uses a bigger world so the saturation query costs real
// milliseconds, the eviction test so distinct collaborator pairs
// outlast the kernel's socket buffering.
func loadServerSized(t *testing.T, people int, read, write, subscribe admission.Limits) (*httptest.Server, *Server, *saga.World) {
	t.Helper()
	srv, w := loadPlatform(t, people, read, write, subscribe)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, w
}

// loadPlatform is loadServerSized without the listener, for tests that
// configure the HTTP server before starting it.
func loadPlatform(t *testing.T, people int, read, write, subscribe admission.Limits) (*Server, *saga.World) {
	t.Helper()
	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: people, NumClusters: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := saga.New(w.Graph)
	// An empty rule program stands up the analytics engine so the mix's
	// /derive op works.
	if err := p.DefineRulesText(""); err != nil {
		t.Fatal(err)
	}
	srv, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Admission = admission.NewController(read, write, subscribe)
	return srv, w
}

// waitGoroutines fails the test if the goroutine count does not settle
// back to at most max within the deadline — the leak assertion behind
// every fault scenario.
func waitGoroutines(t *testing.T, max int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= max {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s", n, max, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// getJSON fetches url and decodes the JSON body.
func getJSON(t *testing.T, client *http.Client, url string) map[string]any {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return v
}

// TestLoadSmoke runs the mixed open-loop scenario at a modest rate
// against stock limits: every response is a 2xx or an admission shed —
// never a 5xx — p99 stays within the read budget, and the admission
// counters show up in /health. scripts/ci.sh runs the same gate via
// kgload -smoke; keeping it here too means `go test -race ./...`
// exercises the whole path under the race detector.
func TestLoadSmoke(t *testing.T) {
	read, write, subscribe := admission.DefaultLimits()
	ts, _, w := loadServer(t, read, write, subscribe)
	client := workload.NewLoadClient(10 * time.Second)
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	rep, err := workload.RunOpenLoop(context.Background(), workload.LoadConfig{
		BaseURL:  ts.URL,
		Client:   client,
		Rate:     300,
		Duration: 700 * time.Millisecond,
		Ops:      workload.StandardLoadOps(w),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke: %s", rep)
	if rep.ServerErrors != 0 || rep.TransportErrors != 0 || rep.Overflow != 0 {
		t.Fatalf("smoke run not clean: %s", rep)
	}
	if rep.ClientErrors != 0 {
		t.Fatalf("client errors in a well-formed mix: %s", rep)
	}
	if rep.Completed == 0 {
		t.Fatalf("no completed requests: %s", rep)
	}
	if bound := read.Budget + read.QueueWait; rep.P99 > bound {
		t.Fatalf("p99 %v exceeds read budget bound %v", rep.P99, bound)
	}

	// Admission counters are visible in /health.
	health := getJSON(t, client, ts.URL+"/health")
	adm, ok := health["admission"].(map[string]any)
	if !ok {
		t.Fatalf("no admission block in /health: %v", health)
	}
	readStats, ok := adm["classes"].(map[string]any)["read"].(map[string]any)
	if !ok || readStats["admitted"].(float64) == 0 {
		t.Fatalf("read admissions not counted in /health: %v", adm)
	}
	// Idle keep-alive connections hold goroutines on both sides of the
	// socket by design; close them so the settle check sees real leaks
	// only.
	client.CloseIdleConnections()
	waitGoroutines(t, baseline+3)
}

// TestLoadOverloadSheds is the 2x-capacity acceptance run: measure
// capacity closed-loop, then offer twice that in open loop against a
// deliberately tight read tier, then measure capacity again. Overflow
// must shed as 429 (zero 5xx, zero transport errors), goodput must stay
// within 20% of the lower capacity reading, p99 of admitted requests must
// respect the route deadline, and the server must end the run with no
// leaked goroutines.
func TestLoadOverloadSheds(t *testing.T) {
	read := admission.Limits{MaxInFlight: 4, MaxQueue: 8, QueueWait: 40 * time.Millisecond, Budget: 2 * time.Second}
	write := admission.Limits{MaxInFlight: 4, MaxQueue: 8, QueueWait: 40 * time.Millisecond, Budget: 2 * time.Second}
	// 600 people make the saturation join cost real milliseconds, so
	// capacity lands at a rate the launcher can double on any machine.
	ts, srv, _ := loadServerSized(t, 600, read, write, admission.Limits{MaxInFlight: 64})
	client := workload.NewLoadClient(10 * time.Second)
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	// Homogeneous op for clean capacity math; workers exceed the
	// in-flight + queue bound so the probe measures the server, not the
	// client.
	queryOp := workload.SaturationQueryOp()
	capacity := workload.MeasureClosedLoop(context.Background(), client, ts.URL, queryOp, 16, 800*time.Millisecond)
	if capacity <= 0 {
		t.Fatal("capacity probe measured zero")
	}

	rep, err := workload.RunOpenLoop(context.Background(), workload.LoadConfig{
		BaseURL:     ts.URL,
		Client:      client,
		Rate:        2 * capacity,
		Duration:    2 * time.Second,
		Ops:         []workload.LoadOp{queryOp},
		Seed:        2,
		MaxInFlight: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second probe after the run brackets it: goodput is judged against
	// the lower of the two, so a box that slows down mid-test (other
	// packages' tests share its cores) does not read as collapse.
	after := workload.MeasureClosedLoop(context.Background(), client, ts.URL, queryOp, 16, 800*time.Millisecond)
	t.Logf("overload at 2x capacity (capacity %.0f/s before, %.0f/s after): %s", capacity, after, rep)
	if after <= 0 {
		t.Fatal("capacity probe after the run measured zero")
	}
	capacity = min(capacity, after)

	if rep.ServerErrors != 0 {
		t.Fatalf("5xx under overload: %s", rep)
	}
	if rep.TransportErrors != 0 || rep.Overflow != 0 {
		t.Fatalf("harness-visible failures under overload: %s", rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("2x capacity produced no sheds — admission not engaging: %s", rep)
	}
	// Overflow sheds as 429; 503s appear only if a budget expires
	// mid-solve, which the 2s budget makes rare.
	if got := rep.StatusCounts[http.StatusTooManyRequests]; got == 0 {
		t.Fatalf("no 429s among %d sheds: %s", rep.Shed, rep)
	}
	// Goodput within 20% of capacity: overload must not collapse the
	// throughput of admitted work.
	if rep.GoodputPerSec < 0.8*capacity {
		t.Fatalf("goodput %.0f/s under saturation fell below 80%% of capacity %.0f/s", rep.GoodputPerSec, capacity)
	}
	// p99 of admitted requests bounded by the route deadline (queue wait
	// + budget); slack only for the response write itself.
	if bound := read.QueueWait + read.Budget + 500*time.Millisecond; rep.P99 > bound {
		t.Fatalf("admitted p99 %v exceeds route deadline bound %v", rep.P99, bound)
	}

	// The shed counters surfaced through /health agree that shedding
	// happened on the read route.
	rs := srv.Admission.Stats().Classes["read"]
	if rs.ShedQueueFull+rs.ShedQueueTimeout == 0 {
		t.Fatalf("health-side shed counters empty: %+v", rs)
	}
	// Idle keep-alive connections hold goroutines on both sides of the
	// socket by design; close them so the settle check sees real leaks
	// only.
	client.CloseIdleConnections()
	waitGoroutines(t, baseline+3)
}

// TestLoadDrain: a draining server sheds every non-exempt route with
// 503 + Retry-After while /health keeps answering and reports the
// drain latency once in-flight work finishes.
func TestLoadDrain(t *testing.T) {
	read, write, subscribe := admission.DefaultLimits()
	ts, srv, w := loadServer(t, read, write, subscribe)
	client := workload.NewLoadClient(5 * time.Second)
	defer client.CloseIdleConnections()

	srv.StartDrain()
	for _, path := range []string{"/query", "/ingest", "/annotate"} {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s drain response missing Retry-After", path)
		}
	}
	resp, err := client.Get(ts.URL + "/entity?key=" + w.Graph.Entity(w.People[0]).Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read during drain = %d, want 503", resp.StatusCode)
	}
	// Health stays exempt and reports the drain, latching drain latency
	// on the now-idle server.
	health := getJSON(t, client, ts.URL+"/health")
	adm := health["admission"].(map[string]any)
	if adm["draining"] != true {
		t.Fatalf("health does not report draining: %v", adm)
	}
	if ms, _ := adm["drained_in_ms"].(float64); ms <= 0 {
		t.Fatalf("drain latency not latched on idle server: %v", adm)
	}
}

// TestBudgetExpiry503: when the admission budget expires mid-solve the
// client is still connected, so the server must answer 503 +
// Retry-After instead of silently dropping the response.
func TestBudgetExpiry503(t *testing.T) {
	read := admission.Limits{MaxInFlight: 16, MaxQueue: 16, QueueWait: 100 * time.Millisecond, Budget: time.Nanosecond}
	ts, _, w := loadServer(t, read, admission.Limits{}, admission.Limits{})
	client := workload.NewLoadClient(5 * time.Second)
	defer client.CloseIdleConnections()

	team := w.Graph.Entity(w.Teams[0]).Key
	body := `{"clauses":[{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"` + team + `"}}]}`
	resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("budget-expired query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("budget-expired response missing Retry-After")
	}
}

// TestLoadFaultOversizedBody: bodies past the 1 MiB cap answer 413 on
// /query, /ingest and /annotate, through real HTTP.
func TestLoadFaultOversizedBody(t *testing.T) {
	read, write, subscribe := admission.DefaultLimits()
	ts, _, _ := loadServer(t, read, write, subscribe)
	client := workload.NewLoadClient(5 * time.Second)
	defer client.CloseIdleConnections()
	for _, path := range []string{"/query", "/ingest", "/annotate"} {
		status, err := workload.OversizedBody(context.Background(), client, ts.URL, path, maxQueryBodyBytes)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body = %d, want 413", path, status)
		}
	}
}

// TestLoadFaultMidStreamDisconnect: clients that vanish mid-response
// must not leak handler goroutines or wedge the server.
func TestLoadFaultMidStreamDisconnect(t *testing.T) {
	read, write, subscribe := admission.DefaultLimits()
	ts, srv, w := loadServer(t, read, write, subscribe)
	client := workload.NewLoadClient(5 * time.Second)
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	team := w.Graph.Entity(w.Teams[0]).Key
	qbody := `{"clauses":[{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":"` + team + `"}}]}`
	sbody := `{"clauses":[{"subject":{"var":"a"},"predicate":"collaborator","object":{"var":"b"}}],"coalesce_ms":1}`
	for i := 0; i < 8; i++ {
		if _, err := workload.MidStreamDisconnect(context.Background(), client, ts.URL, "/query", qbody, 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := workload.MidStreamDisconnect(context.Background(), client, ts.URL, "/subscribe", sbody, 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Idle keep-alive connections hold goroutines on both sides of the
	// socket by design; close them so the settle check sees real leaks
	// only.
	client.CloseIdleConnections()
	waitGoroutines(t, baseline+3)

	// The server still answers after the abuse, and every subscribe slot
	// was released.
	resp, err := client.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health after disconnect churn = %d", resp.StatusCode)
	}
	// A slot is released when its handler returns, which trails the
	// disconnect by however long the server takes to notice the closed
	// socket (waitGoroutines above tolerates a few stragglers): wait for
	// the release, don't sample it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Admission.Stats().Classes["subscribe"]
		if st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscribe slots leaked: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeSlowClientEviction drives the slow-subscriber fault
// through a real TCP connection: the client reads the snapshot then
// stalls while writers churn the graph; the hub must evict the
// subscriber (ErrSlowSubscriber), the handler must deliver the final
// {"error": ...} line when the client resumes, and no goroutine may
// outlive the stream.
func TestSubscribeSlowClientEviction(t *testing.T) {
	read, write, subscribe := admission.DefaultLimits()
	// 400 people give ~160k distinct collaborator pairs — far more event
	// volume than the kernel can buffer for a non-reading client.
	srv, w := loadPlatform(t, 400, read, write, subscribe)
	// The handler never falls behind a 1 ms coalescing window by itself,
	// so what stalls it is a full socket, and the stall only lasts the
	// 1.5 s the client sleeps. With the kernel's autotuned buffers "full"
	// is several megabytes — more than the churn below produces in that
	// time under the race detector. Fixed 16 KiB buffers on both ends
	// make it a matter of kilobytes on any box.
	shrink := func(c net.Conn, set func(*net.TCPConn, int) error) {
		if tcp, ok := c.(*net.TCPConn); ok {
			_ = set(tcp, 16<<10)
		}
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		shrink(c, (*net.TCPConn).SetWriteBuffer)
		return ctx
	}
	ts.Start()
	t.Cleanup(ts.Close)
	client := &http.Client{Timeout: 20 * time.Second, Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				shrink(c, (*net.TCPConn).SetReadBuffer)
			}
			return c, err
		},
	}}
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	g := w.Graph
	collab := w.Preds["collaborator"]
	clauses := `[{"subject":{"var":"a"},"predicate":"collaborator","object":{"var":"b"}}]`

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	type outcome struct {
		res *workload.SlowSubscribeResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := workload.SlowSubscribe(ctx, client, ts.URL, clauses, 1, 1500*time.Millisecond)
		done <- outcome{res, err}
	}()

	// Assert distinct collaborator pairs until the subscriber run
	// completes or the pairs run out: every coalescing window ships a fat
	// delta event, filling the stalled connection's socket buffers until
	// the hub's pending bound trips. Distinct pairs matter — an
	// assert/retract of the SAME binding cancels in the hub's pending set
	// and would never grow it.
	people := w.People
	n := len(people)
	var res outcome
	churn := 0
loop:
	for {
		select {
		case res = <-done:
			break loop
		default:
		}
		if churn >= n*(n-1) {
			// Every distinct pair is written and there is nothing left to
			// send. The subscriber's run still ends, by the context's
			// deadline at the latest; the checks below say whether it was
			// evicted.
			res = <-done
			break loop
		}
		for i := 0; i < 128 && churn < n*(n-1); i++ {
			a := people[churn%n]
			b := people[(churn/n+1+churn%n)%n]
			tr := kg.Triple{Subject: a, Predicate: collab, Object: kg.EntityValue(b)}
			_, _ = g.AssertNew(tr)
			churn++
		}
		time.Sleep(time.Millisecond) // let coalescing windows close
	}
	if res.err != nil {
		t.Fatalf("slow subscribe: %v (result %+v)", res.err, res.res)
	}
	if res.res.Status != http.StatusOK {
		t.Fatalf("subscribe status = %d", res.res.Status)
	}
	if !strings.Contains(res.res.ErrorLine, "evicted") {
		t.Fatalf("final error line = %q, want ErrSlowSubscriber delivery", res.res.ErrorLine)
	}
	// The platform's eviction counter agrees, and nothing leaked.
	if st := srv.Platform.ChangefeedStats(); st.SubscriberEvictions == 0 {
		t.Fatalf("changefeed stats after eviction = %+v", st)
	}
	// Idle keep-alive connections hold goroutines on both sides of the
	// socket by design; close them so the settle check sees real leaks
	// only.
	client.CloseIdleConnections()
	waitGoroutines(t, baseline+3)
	if st := srv.Admission.Stats().Classes["subscribe"]; st.InFlight != 0 {
		t.Fatalf("subscribe slot leaked after eviction: %+v", st)
	}
}
