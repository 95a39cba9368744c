package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"
)

// The speed probe is how the benchmark tells a slow program from a slow
// box. This sandbox shares its host: identical code ran the same
// closed loop at 2.7k–4.3k ops/s from one run to the next (±23%), with
// no steal showing in /proc/stat, and an op's latency moved in step —
// no estimator taken inside a run survives that. So after every window
// of ops (~35 ms of work) the client runs a fixed piece of work that
// belongs to the benchmark and touches nothing of the repository's:
// probeRoundTrips POSTs of a 40-row JSON document to an echo handler
// on a second loopback listener, decoded and re-encoded on both sides
// with encoding/json — the same kernel, scheduler, allocator and
// memory traffic a serving op exercises, built from the standard
// library alone, so no change to the repository can make it faster.
// A window's time and its ops' latencies are then scaled by
// probeNominal / (the probe's time around that window). On the runs
// that spread ±23% raw, the scaled rate spread ±2%.
//
// What this cannot correct is the device: fsync latency on the shared
// disk moves independently of CPU weather, which is why
// ingest-durable's figures stay the noisiest.
const (
	probeRoundTrips = 12
	// probeNominal is what one probe takes on this box on an ordinary
	// day; scaling to it keeps the reported figures in real units (on an
	// ordinary day scaled and raw figures agree).
	probeNominal = 4 * time.Millisecond
)

type probe struct {
	hc   *http.Client
	srv  *http.Server
	url  string
	body []byte
}

func newProbe() (*probe, error) {
	rows := make([]any, 0, 40)
	for i := 0; i < 40; i++ {
		rows = append(rows, map[string]any{
			"p": map[string]string{"key": fmt.Sprintf("person%d", 1000+i), "name": "Some Person III"},
			"o": `"a literal value"`, "n": i,
		})
	}
	body, err := json.Marshal(map[string]any{"bindings": rows, "count": len(rows), "limit": 50})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("probe listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		var v map[string]any
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v) //nolint:errcheck // the client notices a short body
	})
	p := &probe{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second},
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 2 * time.Second},
		url:  "http://" + ln.Addr().String() + "/echo",
		body: body,
	}
	go p.srv.Serve(ln)                 //nolint:errcheck // returns ErrServerClosed on Close
	if _, err := p.run(); err != nil { // opens the connection
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *probe) close() {
	p.hc.CloseIdleConnections()
	p.srv.Close()
}

// run does the fixed work once and returns how long it took.
func (p *probe) run() (time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < probeRoundTrips; i++ {
		resp, err := p.hc.Post(p.url, "application/json", bytes.NewReader(p.body))
		if err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("probe: status %d, read error %v", resp.StatusCode, err)
		}
		var v map[string]any
		if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
	}
	return time.Since(t0), nil
}

// speedFactors turns the probe times taken around a run's windows —
// probes[0] before window 0, probes[j+1] after window j — into one
// scale factor per window: probeNominal over the median of the four
// probes nearest the window, so one disturbed probe cannot scale a
// window by itself.
func speedFactors(probes []time.Duration) []float64 {
	n := len(probes) - 1
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		near := append([]time.Duration(nil), probes[max(0, j-1):min(len(probes), j+3)]...)
		sort.Slice(near, func(a, b int) bool { return near[a] < near[b] })
		mid := (near[(len(near)-1)/2] + near[len(near)/2]) / 2
		out[j] = float64(probeNominal) / float64(mid)
	}
	return out
}
