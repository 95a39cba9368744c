// Command kgload is the open-loop load and fault harness for the
// serving tier. It fires requests at a constant arrival rate — arrivals
// are scheduled from a monotonic anchor at run start, so a slowing
// server cannot slow the offered load down the way a closed-loop
// (request/response/request) driver would — and reports goodput, shed
// rate, and p50/p99/p999 latency of admitted requests. That open-loop
// property is what makes saturation visible: at 2x capacity a healthy
// admission tier sheds the excess as fast 429s while goodput holds near
// capacity.
//
// The standard mix is sustained ingest (assert/retract over a bounded
// pair set), paginated /query, /entity lookups, /subscribe churn, and
// /derive analytics. Op parameters derive from each arrival's sequence
// number, so a given (-people, -clusters, -seed, -rate, -duration) run
// is deterministic.
//
// Two ways to point it at a server:
//
//	kgload -url http://host:8080 -rate 500 -duration 10s
//	kgload -smoke
//
// -url drives an external kgserve; the world flags (-people, -clusters,
// -seed) must match the server's so generated entity keys resolve.
// -smoke stands up an in-process server over a fresh world, runs a
// short mixed load, and exits nonzero on any 5xx, transport error, or
// p99 above the read route's deadline — the CI gate scripts/ci.sh runs.
//
// -fault switches from load to misbehaving-client scenarios:
//
//	-fault slow-subscriber  open a /subscribe stream with max_pending 1,
//	                        read the snapshot, stall while driving
//	                        mutations through /ingest; expects the server
//	                        to evict the subscriber and deliver a final
//	                        {"error": ...} line
//	-fault disconnect       sever /query and /subscribe streams
//	                        mid-response repeatedly; expects /health to
//	                        keep answering afterward
//	-fault oversize         POST bodies past the 1 MiB cap; expects 413
//
// Usage:
//
//	kgload [-url URL | -smoke] [-rate 300] [-duration 5s] [-people 200] [-clusters 10] [-seed 1]
//	       [-timeout 10s] [-json] [-no-prime-rules] [-fault none|slow-subscriber|disconnect|oversize]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"saga/internal/admission"
	"saga/internal/server"
	"saga/internal/workload"
	"saga/saga"
)

func main() {
	url := flag.String("url", "", "base URL of a running kgserve (mutually exclusive with -smoke)")
	smoke := flag.Bool("smoke", false, "stand up an in-process server and run a short gating load")
	rate := flag.Float64("rate", 300, "arrival rate, requests per second")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	people := flag.Int("people", 200, "world size; must match the target server's -people")
	clusters := flag.Int("clusters", 10, "world communities; must match the target server's -clusters")
	seed := flag.Int64("seed", 1, "world seed; must match the target server's -seed")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request client timeout")
	jsonOut := flag.Bool("json", false, "print the report as JSON")
	noPrime := flag.Bool("no-prime-rules", false, "skip installing an empty rule program (the mix's /derive op needs one)")
	fault := flag.String("fault", "none", "fault scenario instead of load: none, slow-subscriber, disconnect, oversize")
	flag.Parse()

	if (*url == "") == !*smoke {
		log.Fatal("exactly one of -url or -smoke is required")
	}
	if *smoke {
		*duration = min(*duration, 3*time.Second)
	}

	w, err := saga.GenerateWorld(saga.WorldConfig{NumPeople: *people, NumClusters: *clusters, Seed: *seed})
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}

	base := *url
	if *smoke {
		srv, shutdown, err := inProcessServer(w)
		if err != nil {
			log.Fatalf("in-process server: %v", err)
		}
		defer shutdown()
		base = srv
		log.Printf("in-process server on %s", base)
	}

	client := workload.NewLoadClient(*timeout)
	defer client.CloseIdleConnections()
	ctx := context.Background()

	if !*noPrime {
		// An empty rule program stands up the analytics engine so the
		// mix's /derive op answers 200 instead of 400.
		if err := primeRules(ctx, client, base); err != nil {
			log.Printf("warning: priming rules failed (%v); /derive ops may 400", err)
		}
	}

	switch *fault {
	case "none":
	case "slow-subscriber":
		os.Exit(runSlowSubscriber(ctx, client, base, w))
	case "disconnect":
		os.Exit(runDisconnect(ctx, client, base, w))
	case "oversize":
		os.Exit(runOversize(ctx, client, base))
	default:
		log.Fatalf("unknown -fault %q", *fault)
	}

	rep, err := workload.RunOpenLoop(ctx, workload.LoadConfig{
		BaseURL:  base,
		Client:   client,
		Rate:     *rate,
		Duration: *duration,
		Ops:      workload.StandardLoadOps(w),
		Seed:     *seed,
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		fmt.Println(rep)
	}

	if *smoke {
		read, _, _ := admission.DefaultLimits()
		bound := read.Budget + read.QueueWait
		switch {
		case rep.ServerErrors > 0:
			log.Fatalf("smoke FAIL: %d server errors (5xx)", rep.ServerErrors)
		case rep.TransportErrors > 0:
			log.Fatalf("smoke FAIL: %d transport errors", rep.TransportErrors)
		case rep.Completed == 0:
			log.Fatal("smoke FAIL: no completed requests")
		case rep.P99 > bound:
			log.Fatalf("smoke FAIL: p99 %v above read deadline %v", rep.P99, bound)
		}
		log.Printf("smoke OK: %d completed, %d shed, p99 %v", rep.Completed, rep.Shed, rep.P99)
	}
}

// inProcessServer builds an untrained platform over w and serves it on
// a loopback listener; the returned shutdown closes the listener.
func inProcessServer(w *saga.World) (string, func(), error) {
	p := saga.New(w.Graph)
	if err := p.DefineRulesText(""); err != nil {
		return "", nil, err
	}
	srv, err := server.New(p, nil)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 2 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = httpSrv.Close() }, nil
}

// primeRules installs an empty rule program over HTTP.
func primeRules(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/rules", strings.NewReader(`{"text":""}`))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /rules = %d", resp.StatusCode)
	}
	return nil
}

// runSlowSubscriber opens a stalled subscription while driving distinct
// collaborator asserts through /ingest, and expects the server to evict
// it and deliver the final error line.
func runSlowSubscriber(ctx context.Context, client *http.Client, base string, w *saga.World) int {
	clauses := `[{"subject":{"var":"a"},"predicate":"collaborator","object":{"var":"b"}}]`
	type outcome struct {
		res *workload.SlowSubscribeResult
		err error
	}
	done := make(chan outcome, 1)
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	// The stream must outlive the stall plus however long the socket
	// takes to jam; the shared client's per-request timeout (default
	// 10s) is tuned for load ops, not a deliberately-stalled stream.
	slowClient := workload.NewLoadClient(45 * time.Second)
	defer slowClient.CloseIdleConnections()
	go func() {
		res, err := workload.SlowSubscribe(ctx, slowClient, base, clauses, 1, 2*time.Second)
		done <- outcome{res, err}
	}()

	keys := make([]string, len(w.People))
	for i, id := range w.People {
		keys[i] = w.Graph.Entity(id).Key
	}
	n := len(keys)
	churn := 0
	var out outcome
churnLoop:
	for {
		select {
		case out = <-done:
			break churnLoop
		default:
		}
		// Batched distinct bindings: each /ingest ships a few hundred
		// never-seen (person, int) facts, so every coalescing window's
		// delta event is fat enough to fill the stalled connection's
		// socket buffers quickly. Distinctness matters twice over — an
		// assert/retract of the same binding cancels in the server's
		// pending set, and a world's entity-pair pool is finite while
		// integer objects never run out (the object position is an
		// unconstrained variable, so any value matches the clause).
		var sb strings.Builder
		sb.WriteString(`{"asserts":[`)
		for i := 0; i < 256; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"subject":%q,"predicate":"collaborator","object":{"int":%d}}`, keys[churn%n], churn)
			churn++
		}
		sb.WriteString(`]}`)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/ingest", strings.NewReader(sb.String()))
		req.Header.Set("Content-Type", "application/json")
		if resp, err := client.Do(req); err == nil {
			if resp.StatusCode != http.StatusOK {
				log.Printf("slow-subscriber: ingest churn status %d", resp.StatusCode)
			}
			resp.Body.Close()
		} else if ctx.Err() == nil {
			log.Printf("slow-subscriber: ingest churn: %v", err)
		}
	}
	if out.err != nil {
		log.Printf("slow-subscriber FAIL: %v", out.err)
		return 1
	}
	if out.res.Status != http.StatusOK || !strings.Contains(out.res.ErrorLine, "evicted") {
		log.Printf("slow-subscriber FAIL: status %d, error line %q (want eviction)", out.res.Status, out.res.ErrorLine)
		return 1
	}
	log.Printf("slow-subscriber OK: evicted after %d events (%q)", out.res.Lines, out.res.ErrorLine)
	return 0
}

// runDisconnect severs streams mid-response and checks the server still
// answers afterward.
func runDisconnect(ctx context.Context, client *http.Client, base string, w *saga.World) int {
	team := w.Graph.Entity(w.Teams[0]).Key
	qbody := fmt.Sprintf(`{"clauses":[{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":%q}}]}`, team)
	sbody := `{"clauses":[{"subject":{"var":"a"},"predicate":"collaborator","object":{"var":"b"}}],"coalesce_ms":1}`
	for i := 0; i < 16; i++ {
		if _, err := workload.MidStreamDisconnect(ctx, client, base, "/query", qbody, 200*time.Millisecond); err != nil {
			log.Printf("disconnect FAIL: /query: %v", err)
			return 1
		}
		if _, err := workload.MidStreamDisconnect(ctx, client, base, "/subscribe", sbody, 200*time.Millisecond); err != nil {
			log.Printf("disconnect FAIL: /subscribe: %v", err)
			return 1
		}
	}
	resp, err := client.Get(base + "/health")
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Printf("disconnect FAIL: /health after churn: %v (status %v)", err, resp)
		return 1
	}
	resp.Body.Close()
	log.Print("disconnect OK: 32 mid-stream severs, server healthy")
	return 0
}

// runOversize posts over-limit bodies and expects 413s.
func runOversize(ctx context.Context, client *http.Client, base string) int {
	for _, path := range []string{"/query", "/ingest", "/subscribe"} {
		status, err := workload.OversizedBody(ctx, client, base, path, 1<<20)
		if err != nil {
			log.Printf("oversize FAIL: %s: %v", path, err)
			return 1
		}
		if status != http.StatusRequestEntityTooLarge {
			log.Printf("oversize FAIL: %s = %d, want 413", path, status)
			return 1
		}
	}
	log.Print("oversize OK: 413 on /query, /ingest and /subscribe")
	return 0
}
