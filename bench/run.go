package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// client is one closed-loop HTTP client on one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	// Cursor-walk state carried from page to page.
	cursor   string
	walkSeen map[uint64]struct{}
	lastWM   uint64
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// envelope decodes just enough of any response to count its rows; the
// rows themselves stay raw unless the op is oracle-checked.
type envelope struct {
	Bindings    []json.RawMessage `json:"bindings"`
	NextCursor  string            `json:"next_cursor"`
	Key         string            `json:"key"`
	Facts       []string          `json:"facts"`
	Related     []json.RawMessage `json:"related"`
	Hits        []json.RawMessage `json:"hits"`
	Annotations []json.RawMessage `json:"annotations"`
	Added       int               `json:"added"`
	Retracted   int               `json:"retracted"`
	Watermark   uint64            `json:"watermark"`
}

// outcome is what one op did.
type outcome struct {
	lat   time.Duration // send → body drained
	rows  int
	bytes int
	err   error
}

// request builds the op's HTTP request; a walk page past the first
// takes its cursor from the previous page's response.
func (c *client) request(o *op) (*http.Request, error) {
	if o.body == "" {
		return http.NewRequest(http.MethodGet, c.base+o.path, nil)
	}
	body := o.body
	if o.kind == kQuery {
		if o.page > 0 {
			body += `,"cursor":"` + c.cursor + `"`
		}
		body += "}"
	}
	req, err := http.NewRequest(http.MethodPost, c.base+o.path, strings.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// do runs one op: send, drain, then (outside the latency window) count
// rows and check the response. t0 lets the caller start the clock
// earlier than the send (housekeeping stalls, open-loop due times).
func (c *client) do(o *op, t0 time.Time) outcome {
	req, err := c.request(o)
	if err != nil {
		return outcome{err: err}
	}
	if t0.IsZero() {
		t0 = time.Now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{lat: time.Since(t0), err: err}
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out := outcome{lat: time.Since(t0), bytes: c.buf.Len()}
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode/100 != 2 {
		out.err = fmt.Errorf("%s %s: status %d: %s", req.Method, o.path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		return out
	}
	out.rows, out.err = c.check(o, c.buf.Bytes())
	return out
}

// check counts the response's rows and verifies it: always for shape
// (right kind of body, sane row count, cursor present exactly when a
// walk continues), and against the oracle when the op carries an
// expectation.
func (c *client) check(o *op, body []byte) (int, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return 0, fmt.Errorf("%s: decode: %w", o.path, err)
	}
	switch o.kind {
	case kQuery:
		return len(env.Bindings), c.checkQuery(o, &env)
	case kEntity:
		if env.Key != o.text {
			return 0, fmt.Errorf("%s: key %q, want %q", o.path, env.Key, o.text)
		}
		if len(env.Facts) == 0 {
			return 0, fmt.Errorf("%s: no facts", o.path)
		}
		if o.exp != nil {
			got := append([]string(nil), env.Facts...)
			sort.Strings(got)
			if !equalStrings(got, o.exp.strs) {
				return 0, fmt.Errorf("%s: facts differ from the oracle's (%d vs %d)", o.path, len(got), len(o.exp.strs))
			}
		}
		return len(env.Facts), nil
	case kRelated:
		return len(env.Related), checkStrs(o, env.Related, "key")
	case kSearch:
		return len(env.Hits), checkStrs(o, env.Hits, "id")
	case kAnnotate:
		return len(env.Annotations), checkStrs(o, env.Annotations, "")
	case kIngest:
		if env.Added != len(o.batch.asserts) || env.Retracted != len(o.batch.retracts) {
			return 0, fmt.Errorf("ingest applied %d/%d, want %d/%d", env.Added, env.Retracted, len(o.batch.asserts), len(o.batch.retracts))
		}
		if env.Watermark <= c.lastWM {
			return 0, fmt.Errorf("ingest watermark %d did not advance past %d", env.Watermark, c.lastWM)
		}
		c.lastWM = env.Watermark
		return env.Added + env.Retracted, nil
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

func (c *client) checkQuery(o *op, env *envelope) error {
	n := len(env.Bindings)
	if n > o.limit {
		return fmt.Errorf("query returned %d rows over limit %d", n, o.limit)
	}
	more := env.NextCursor != ""
	if more && n != o.limit {
		return fmt.Errorf("query page of %d rows under limit %d has a next_cursor", n, o.limit)
	}
	walk := o.pages > 1
	if walk {
		if wantMore := o.page < o.pages-1; more != wantMore {
			return fmt.Errorf("walk page %d/%d: next_cursor present=%v", o.page+1, o.pages, more)
		}
		c.cursor = env.NextCursor
	}
	if o.exp == nil {
		return nil
	}
	if walk && o.page == 0 {
		c.walkSeen = make(map[uint64]struct{}, len(o.exp.rows))
	}
	seen := c.walkSeen
	if !walk {
		seen = make(map[uint64]struct{}, n)
		want := min(len(o.exp.rows), o.limit)
		if n != want || more != (len(o.exp.rows) > o.limit) {
			return fmt.Errorf("query returned %d rows (more=%v); the oracle has %d under limit %d", n, more, len(o.exp.rows), o.limit)
		}
	}
	for _, raw := range env.Bindings {
		h, err := bindingHash(raw)
		if err != nil {
			return err
		}
		if _, ok := o.exp.rows[h]; !ok {
			return fmt.Errorf("query returned a row the oracle does not have: %s", raw)
		}
		if _, dup := seen[h]; dup {
			return fmt.Errorf("query returned a row twice: %s", raw)
		}
		seen[h] = struct{}{}
	}
	if walk && o.page == o.pages-1 && len(seen) != len(o.exp.rows) {
		return fmt.Errorf("cursor walk enumerated %d rows; the oracle has %d", len(seen), len(o.exp.rows))
	}
	return nil
}

// bindingHash reduces one rendered /query row to the oracle's row hash.
func bindingHash(raw json.RawMessage) (uint64, error) {
	var b map[string]any
	if err := json.Unmarshal(raw, &b); err != nil {
		return 0, fmt.Errorf("decode binding: %w", err)
	}
	row := make(map[string]string, len(b))
	for name, val := range b {
		switch x := val.(type) {
		case string:
			row[name] = x
		case map[string]any:
			key, _ := x["key"].(string)
			row[name] = "@" + key
		default:
			return 0, fmt.Errorf("binding %s has an unexpected value %v", name, val)
		}
	}
	return rowHash(row), nil
}

// checkStrs compares a row list against the expected sorted strings,
// reducing each row to one field (or to start:end:key for annotations).
func checkStrs(o *op, rows []json.RawMessage, field string) error {
	if len(rows) == 0 {
		return fmt.Errorf("%s: empty result", o.path)
	}
	if o.exp == nil {
		return nil
	}
	got := make([]string, 0, len(rows))
	for _, raw := range rows {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("%s: decode row: %w", o.path, err)
		}
		if field == "" {
			got = append(got, fmt.Sprintf("%v:%v:%v", m["start"], m["end"], m["key"]))
		} else {
			s, _ := m[field].(string)
			got = append(got, s)
		}
	}
	sort.Strings(got)
	if !equalStrings(got, o.exp.strs) {
		return fmt.Errorf("%s: result differs from the in-process answer: %v vs %v", o.path, got, o.exp.strs)
	}
	return nil
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

// loopResult is what a closed loop measured. Raw figures are as the
// clock read them. Scaled figures leave out the time spent waiting in
// fsync — this sandbox's disk, not the repository's code; the counts
// of fsyncs and bytes are what carries over to a real device — and
// correct the rest for the box's speed by the probe taken around each
// window (see probe.go).
type loopResult struct {
	latMS     []float64 // per op, raw; +Inf for a failed op
	scaledMS  []float64 // per op, less device wait, scaled to the nominal box
	shape     []uint8
	rates     []float64 // correct ops per scaled second, one per window
	rawRates  []float64 // correct ops per second, one per window
	probesMS  []float64 // every probe taken, in order
	deviceS   float64   // total device wait inside the measured ops
	attempted int
	failed    int
	rows      int64
	respBytes int64
	elapsed   time.Duration
	firstErr  error
	truncated bool
}

// loopOpts are the hooks the workloads hang on the loop.
type loopOpts struct {
	opsPerWindow int           // a whole number of cycles
	deadline     time.Duration // stop at the next window boundary once exceeded (0 = never)
	probe        *probe
	// deviceWait, when set, reads the running total of time the server
	// has spent waiting in fsync. The loop's client must be the only one
	// causing fsyncs, so that the total's growth across an op is that op's.
	deviceWait func() time.Duration
	// housekeep, when set, runs before every housekeepEvery-th op, inside
	// that op's latency window: the client was ready to send and a
	// stall made it wait.
	housekeep      func()
	housekeepEvery int
	// atWindow runs between windows, outside any window's time.
	atWindow func(window int)
}

// closedLoop runs ops back to back on one client in windows of whole
// cycles, with a speed probe between windows. A window's rate counts
// only ops that checked out.
func closedLoop(c *client, ops []op, lo loopOpts) (loopResult, error) {
	res := loopResult{latMS: make([]float64, 0, len(ops)), shape: make([]uint8, 0, len(ops))}
	type window struct {
		lo, hi, ok   int
		took, device time.Duration
	}
	var windows []window
	var probes []time.Duration
	takeProbe := func() error {
		d, err := lo.probe.run()
		probes = append(probes, d)
		return err
	}
	if err := takeProbe(); err != nil {
		return res, err
	}
	deviceMS := make([]float64, 0, len(ops)) // per op
	start := time.Now()
	for lo0 := 0; lo0 < len(ops); lo0 += lo.opsPerWindow {
		hi := min(lo0+lo.opsPerWindow, len(ops))
		if lo.atWindow != nil {
			lo.atWindow(lo0 / lo.opsPerWindow)
		}
		w := window{lo: lo0, hi: hi}
		winStart := time.Now()
		for i := lo0; i < hi; i++ {
			o := &ops[i]
			var dev0 time.Duration
			if lo.deviceWait != nil {
				dev0 = lo.deviceWait()
			}
			var t0 time.Time
			if lo.housekeep != nil && i > 0 && i%lo.housekeepEvery == 0 {
				t0 = time.Now()
				lo.housekeep()
			}
			out := c.do(o, t0)
			var dev time.Duration
			if lo.deviceWait != nil {
				dev = lo.deviceWait() - dev0
			}
			w.device += dev
			deviceMS = append(deviceMS, float64(dev)/float64(time.Millisecond))
			res.attempted++
			res.shape = append(res.shape, o.shape)
			if out.err != nil {
				res.failed++
				res.latMS = append(res.latMS, math.Inf(1))
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("op %d (%s): %w", i, o.path, out.err)
				}
				continue
			}
			w.ok++
			res.rows += int64(out.rows)
			res.respBytes += int64(out.bytes)
			res.latMS = append(res.latMS, float64(out.lat)/float64(time.Millisecond))
		}
		w.took = time.Since(winStart)
		windows = append(windows, w)
		res.deviceS += w.device.Seconds()
		if err := takeProbe(); err != nil {
			return res, err
		}
		if lo.deadline > 0 && time.Since(start) > lo.deadline && hi < len(ops) {
			res.truncated = true
			break
		}
	}
	res.elapsed = time.Since(start)

	factors := speedFactors(probes)
	res.scaledMS = make([]float64, len(res.latMS))
	for j, w := range windows {
		for i := w.lo; i < w.hi; i++ {
			res.scaledMS[i] = (res.latMS[i] - deviceMS[i]) * factors[j]
		}
		if w.hi-w.lo == lo.opsPerWindow { // a ragged tail is work, not a rate sample
			res.rawRates = append(res.rawRates, float64(w.ok)/w.took.Seconds())
			res.rates = append(res.rates, float64(w.ok)/((w.took-w.device).Seconds()*factors[j]))
		}
	}
	for _, d := range probes {
		res.probesMS = append(res.probesMS, float64(d)/float64(time.Millisecond))
	}
	return res, nil
}

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); failed ops sort last as +Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// iqrFrac is the interquartile range of xs as a share of its median.
func iqrFrac(xs []float64) float64 {
	if m := median(xs); m != 0 {
		return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
	}
	return 0
}
