package workload

// Open-loop load generation for the HTTP serving tier. Closed-loop
// clients (each worker waiting for its response before issuing the next
// request) self-throttle under saturation and hide the very overload
// they are meant to measure; the generator here is open-loop — arrivals
// fire at a constant configured rate regardless of completions, the way
// independent users do — so offered load can genuinely exceed capacity
// and the report separates goodput (completed 2xx) from shed load (429
// and 503, the admission tier working as designed) and real failures
// (other 5xx, transport errors). The package deliberately speaks plain
// HTTP against a base URL: it has no dependency on the server package,
// so the same generator drives an in-process httptest server (CI load
// smoke, BenchmarkE20Load), cmd/kgload against a live kgserve, or any
// other deployment of the API.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"saga/internal/kg"
	"saga/internal/metrics"
)

// LoadOp is one operation in the mix. Do issues a single request and
// returns the HTTP status (0 when the request never completed). seq is
// the arrival's global sequence number — ops derive their parameters
// from it deterministically, so a fixed config yields a fixed request
// stream regardless of scheduling.
type LoadOp struct {
	Name   string
	Weight int
	Do     func(ctx context.Context, client *http.Client, baseURL string, seq int) (status int, err error)
}

// LoadConfig configures one open-loop run.
type LoadConfig struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests; nil builds one with a generous
	// connection pool (open-loop bursts need far more than the default
	// two idle conns per host).
	Client *http.Client
	// Rate is the arrival rate in requests per second.
	Rate float64
	// Duration is how long arrivals keep firing.
	Duration time.Duration
	// Ops is the weighted mix; at least one entry.
	Ops []LoadOp
	// Seed drives op selection (deterministic for a fixed config).
	Seed int64
	// MaxInFlight bounds concurrently outstanding requests as a harness
	// safety valve; arrivals beyond it are dropped and counted as
	// Overflow rather than spawning unbounded goroutines. 0 means 4096.
	MaxInFlight int
}

// LoadReport aggregates one run. Latency percentiles cover admitted
// (2xx) requests only — shed requests return fast by design and would
// flatter the numbers.
type LoadReport struct {
	Duration time.Duration `json:"duration"`
	// Offered counts arrivals (including Overflow drops); Completed the
	// 2xx responses; Shed the 429s and 503s; ClientErrors other 4xx;
	// ServerErrors other 5xx; TransportErrors requests that died without
	// a status; Overflow arrivals dropped by the harness's own
	// in-flight bound.
	Offered         int `json:"offered"`
	Completed       int `json:"completed"`
	Shed            int `json:"shed"`
	ClientErrors    int `json:"client_errors"`
	ServerErrors    int `json:"server_errors"`
	TransportErrors int `json:"transport_errors"`
	Overflow        int `json:"overflow"`
	// StatusCounts breaks responses down by exact status code.
	StatusCounts map[int]int `json:"status_counts"`
	// PerOp counts completed requests by op name.
	PerOp map[string]int `json:"per_op"`
	// P50/P99/P999 are latency percentiles over completed requests.
	P50  time.Duration `json:"p50"`
	P99  time.Duration `json:"p99"`
	P999 time.Duration `json:"p999"`
	// OfferedPerSec and GoodputPerSec are arrival and completion rates;
	// ShedRate is Shed / (all responses with a status).
	OfferedPerSec float64 `json:"offered_per_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	ShedRate      float64 `json:"shed_rate"`
}

// NewLoadClient returns an http.Client sized for open-loop bursts: a
// large idle pool (connection reuse instead of per-request dials) and a
// per-request timeout as the harness's own safety deadline.
func NewLoadClient(timeout time.Duration) *http.Client {
	t := &http.Transport{
		MaxIdleConns:        4096,
		MaxIdleConnsPerHost: 4096,
		MaxConnsPerHost:     0,
		IdleConnTimeout:     30 * time.Second,
	}
	return &http.Client{Transport: t, Timeout: timeout}
}

// RunOpenLoop fires cfg.Rate arrivals per second for cfg.Duration, each
// arrival running one weighted-random op in its own goroutine, and
// waits for every outstanding request before reporting. Arrival times
// are fixed at run start (constant spacing from a monotonic anchor), so
// a slow server cannot slow the arrival process down — that is the
// open-loop property. ctx cancels the run early.
func RunOpenLoop(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, errors.New("workload: open loop needs Rate > 0 and Duration > 0")
	}
	if len(cfg.Ops) == 0 {
		return nil, errors.New("workload: open loop needs at least one op")
	}
	client := cfg.Client
	if client == nil {
		client = NewLoadClient(30 * time.Second)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4096
	}
	totalWeight := 0
	for _, op := range cfg.Ops {
		if op.Weight <= 0 {
			return nil, fmt.Errorf("workload: op %q needs Weight > 0", op.Name)
		}
		totalWeight += op.Weight
	}
	pick := func(rng *rand.Rand) LoadOp {
		n := rng.Intn(totalWeight)
		for _, op := range cfg.Ops {
			if n -= op.Weight; n < 0 {
				return op
			}
		}
		return cfg.Ops[len(cfg.Ops)-1]
	}

	type sample struct {
		op      string
		status  int
		latency time.Duration
		err     error
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	inFlight := make(chan struct{}, maxInFlight)
	// The launcher goroutine owns the rng: op choice stays deterministic
	// without a lock on the hot path.
	rng := rand.New(rand.NewSource(cfg.Seed))
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	offered, overflow := 0, 0
arrivals:
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.Sub(start) >= cfg.Duration {
			break
		}
		if d := time.Until(at); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				break arrivals
			}
		}
		offered++
		op := pick(rng)
		seq := i
		select {
		case inFlight <- struct{}{}:
		default:
			overflow++
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inFlight }()
			t0 := time.Now()
			status, err := op.Do(ctx, client, cfg.BaseURL, seq)
			s := sample{op: op.Name, status: status, latency: time.Since(t0), err: err}
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Duration:     elapsed,
		Offered:      offered,
		Overflow:     overflow,
		StatusCounts: make(map[int]int),
		PerOp:        make(map[string]int),
	}
	var lats []float64
	responded := 0
	for _, s := range samples {
		if s.status == 0 {
			rep.TransportErrors++
			continue
		}
		responded++
		rep.StatusCounts[s.status]++
		switch {
		case s.status >= 200 && s.status < 300:
			rep.Completed++
			rep.PerOp[s.op]++
			lats = append(lats, float64(s.latency))
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			rep.Shed++
		case s.status >= 500:
			rep.ServerErrors++
		default:
			rep.ClientErrors++
		}
		_ = s.err
	}
	if len(lats) > 0 {
		rep.P50 = time.Duration(metrics.Percentile(lats, 50))
		rep.P99 = time.Duration(metrics.Percentile(lats, 99))
		rep.P999 = time.Duration(metrics.Percentile(lats, 99.9))
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		rep.OfferedPerSec = float64(offered) / secs
		rep.GoodputPerSec = float64(rep.Completed) / secs
	}
	if responded > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(responded)
	}
	return rep, nil
}

// String renders the report for logs.
func (r *LoadReport) String() string {
	codes := make([]int, 0, len(r.StatusCounts))
	for c := range r.StatusCounts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	var sb strings.Builder
	fmt.Fprintf(&sb, "offered %d (%.0f/s) over %v: %d ok (%.0f/s goodput), %d shed (%.1f%%), %d client-err, %d server-err, %d transport-err, %d overflow; p50 %v p99 %v p999 %v; statuses",
		r.Offered, r.OfferedPerSec, r.Duration.Round(time.Millisecond),
		r.Completed, r.GoodputPerSec, r.Shed, 100*r.ShedRate,
		r.ClientErrors, r.ServerErrors, r.TransportErrors, r.Overflow,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.P999.Round(time.Microsecond))
	for _, c := range codes {
		fmt.Fprintf(&sb, " %d:%d", c, r.StatusCounts[c])
	}
	return sb.String()
}

// MeasureClosedLoop estimates serving capacity for op: workers issue
// it back-to-back (closed loop — each waits for its response) for dur
// and the completed-2xx rate is returned in requests per second. This
// is the calibration step before an overload run: offered = 2× the
// returned capacity is genuine saturation whatever the machine.
func MeasureClosedLoop(ctx context.Context, client *http.Client, baseURL string, op LoadOp, workers int, dur time.Duration) float64 {
	if workers <= 0 {
		workers = 8
	}
	var completed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := int64(0)
			for seq := w; time.Now().Before(stop); seq += workers {
				if ctx.Err() != nil {
					break
				}
				status, err := op.Do(ctx, client, baseURL, seq)
				if err == nil && status >= 200 && status < 300 {
					n++
				}
			}
			mu.Lock()
			completed += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(completed) / elapsed
}

// SaturationQueryOp returns a deliberately expensive read — the
// six-cycles of the collaborator relation, a six-clause self-join — for
// capacity probes and overload runs. The point is a per-request cost
// that is high (tens of milliseconds on a 600-person world, not
// microseconds) and spent inside the handler: the join walks every
// five-step collaborator path and probes it for the closing edge, but
// few paths close, so the response stays small. The server then
// saturates at a rate the open-loop launcher can comfortably double and
// its admission gate, not the harness draining response bodies on the
// same cores, is what overload hits. Cheap point lookups would put true
// capacity above what any single-process harness can offer, and an
// output-heavy join spends the box on HTTP and the client; either way
// the overload run would never shed.
func SaturationQueryOp() LoadOp {
	const vars = "abcdef"
	var body strings.Builder
	body.WriteString(`{"clauses":[`)
	for i := range vars {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"subject":{"var":"%c"},"predicate":"collaborator","object":{"var":"%c"}}`,
			vars[i], vars[(i+1)%len(vars)])
	}
	body.WriteString(`],"limit":100000}`)
	return LoadOp{Name: "cycle6", Weight: 1, Do: func(ctx context.Context, c *http.Client, base string, seq int) (int, error) {
		return doJSON(ctx, c, http.MethodPost, base+"/query", body.String())
	}}
}

// doJSON posts body (or GETs when body is empty) and drains the
// response, returning the status.
func doJSON(ctx context.Context, client *http.Client, method, url, body string) (int, error) {
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rdr)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// StandardLoadOps builds the mixed serving scenario over w's keys:
// paginated conjunctive queries, entity lookups, a sustained
// assert/retract ingest stream over a bounded pair set, subscribe
// churn (open, read the snapshot, disconnect), and occasional /derive
// analytics. Parameters derive from each arrival's sequence number, so
// the stream is deterministic for a fixed world.
func StandardLoadOps(w *World) []LoadOp {
	g := w.Graph
	key := func(id kg.EntityID) string { return g.Entity(id).Key }
	teamKeys := make([]string, len(w.Teams))
	for i, id := range w.Teams {
		teamKeys[i] = key(id)
	}
	personKeys := make([]string, len(w.People))
	for i, id := range w.People {
		personKeys[i] = key(id)
	}
	queryBody := func(seq int) string {
		return fmt.Sprintf(`{"clauses":[{"subject":{"var":"p"},"predicate":"memberOf","object":{"key":%q}}],"limit":50}`,
			teamKeys[seq%len(teamKeys)])
	}
	// Ingest alternates assert/retract over a bounded set of
	// collaborator pairs so sustained load cannot grow the graph without
	// bound: pair k is asserted on one arrival and retracted on a later
	// one.
	ingestBody := func(seq int) string {
		pair := seq / 2
		a := personKeys[pair%len(personKeys)]
		b := personKeys[(pair*7+1)%len(personKeys)]
		verb := "asserts"
		if seq%2 == 1 {
			verb = "retracts"
		}
		return fmt.Sprintf(`{%q:[{"subject":%q,"predicate":"collaborator","object":{"key":%q}}]}`, verb, a, b)
	}
	return []LoadOp{
		{Name: "query", Weight: 4, Do: func(ctx context.Context, c *http.Client, base string, seq int) (int, error) {
			return doJSON(ctx, c, http.MethodPost, base+"/query", queryBody(seq))
		}},
		{Name: "entity", Weight: 3, Do: func(ctx context.Context, c *http.Client, base string, seq int) (int, error) {
			return doJSON(ctx, c, http.MethodGet, base+"/entity?key="+personKeys[seq%len(personKeys)], "")
		}},
		{Name: "ingest", Weight: 2, Do: func(ctx context.Context, c *http.Client, base string, seq int) (int, error) {
			return doJSON(ctx, c, http.MethodPost, base+"/ingest", ingestBody(seq))
		}},
		{Name: "subscribe", Weight: 1, Do: func(ctx context.Context, c *http.Client, base string, seq int) (int, error) {
			return subscribeChurn(ctx, c, base, queryBody(seq))
		}},
		{Name: "derive", Weight: 1, Do: func(ctx context.Context, c *http.Client, base string, seq int) (int, error) {
			body := fmt.Sprintf(`{"kind":"khop","out":"loadhop","source_keys":[%q],"k":2}`,
				personKeys[seq%len(personKeys)])
			return doJSON(ctx, c, http.MethodPost, base+"/derive", body)
		}},
	}
}

// subscribeChurn opens a subscription, reads the snapshot line, and
// disconnects — the connect/teardown cost of subscription churn without
// holding slots for the rest of the run.
func subscribeChurn(ctx context.Context, client *http.Client, base, body string) (int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/subscribe", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	// One snapshot line proves the stream works; cancel tears it down.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
