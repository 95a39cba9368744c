package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

var endToEndNames = []string{"setup_s", "ops_s", "lat_p50_ms", "bytes_per_row", "rss_mb"}

// idleOn lists, per workload, the per-layer metric prefixes that must
// read zero because the layer does no work there; busyOn the ones that
// must not. Together they are the acceptance criterion "each layer does
// most of its work in one workload and little in another".
var idleOn = map[string][]string{
	"serve-read-mix": {"wal.", "subscribe.", "rules.", "mixed.", "kg.assert", "kg.retract"},
	"scan-paginate":  {"wal.", "subscribe.", "rules.", "mixed.", "kg.assert", "kg.retract", "embedserve.", "annotate.", "websearch."},
	"ingest-durable": {"subscribe.", "rules.", "mixed.", "graphengine.", "kg.read_us", "embedserve.", "annotate.", "websearch.", "saga."},
	"mixed-live":     {},
}

var busyOn = map[string][]string{
	"serve-read-mix": {"http.self_us", "server.self_us", "kg.read_us", "graphengine.exec_self_us", "embedserve.related_us", "vecindex.search_us", "annotate.doc_us", "websearch.search_us", "server.encode_bytes_per_row", "http.resp_bytes_per_op"},
	"scan-paginate":  {"graphengine.exec_self_us", "graphengine.rows_per_ms", "graphengine.page_first_us", "graphengine.page_last_us", "graphengine.plan_miss_us", "kg.read_us"},
	"ingest-durable": {"wal.append_us_per_batch", "wal.fsync_us_per_batch", "wal.bytes_per_triple", "wal.writes_per_batch", "wal.fsyncs_per_batch", "wal.checkpoints", "wal.checkpoint_s", "wal.checkpoint_bytes", "wal.recover_s", "kg.assert_us_per_triple", "kg.retract_us_per_triple", "kg.pom_sync_us", "kg.heap_bytes_per_triple", "setup.import_s", "setup.checkpoint_s"},
	"mixed-live":     {"subscribe.notify_lag_p50_ms", "subscribe.events_per_write", "rules.maint_us_per_batch", "rules.initial_derive_s", "mixed.write_lat_p50_ms", "mixed.write_lat_p95_ms", "mixed.writes_done", "wal.checkpoints", "http.self_us", "server.self_us"},
}

// TestSmoke runs all four workloads, untraced and traced, on a
// 300-person world with a few hundred ops each: every metric
// BENCHMARK.json names is emitted exactly once, finite, non-zero where
// the layer works and zero where it must be idle, and no op fails.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 3, seconds: 1, trace: trace, sz: smokeSizes(), outDir: out, log: io.Discard}
			if testing.Verbose() {
				cfg.log = os.Stderr
			}
			res, err := runWorkload(&cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 50 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s: metric %s = %v %q is not a finite value with a unit", w, name, m.Value, m.Unit)
				}
			}
			if !trace {
				wantNames(t, w, res.Metrics, endToEndNames)
				for _, name := range endToEndNames {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			names := make([]string, 0, len(layerUnits))
			for name := range layerUnits {
				names = append(names, name)
			}
			wantNames(t, w, res.Metrics, names)
			for name, m := range res.Metrics {
				for _, prefix := range idleOn[w] {
					if strings.HasPrefix(name, prefix) && m.Value != 0 {
						t.Errorf("%s: %s = %v, but the layer is idle on this workload", w, name, m.Value)
					}
				}
			}
			for _, name := range busyOn[w] {
				if res.Metrics[name].Value == 0 {
					t.Errorf("%s: %s = 0, but the layer works on this workload", w, name)
				}
			}
			for _, name := range []string{"admission.shed", "subscribe.evictions"} {
				if res.Metrics[name].Value != 0 {
					t.Errorf("%s: %s = %v, want 0", w, name, res.Metrics[name].Value)
				}
			}
			// At full size rules.full_runs reads 1. Here it may read 2: a
			// checkpoint of a 300-person graph completes inside the rule
			// maintainer's 5 ms poll, and Checkpoint truncates the graph's
			// log without regard to where changefeed consumers stand, so the
			// maintainer finds the floor past its cursor and re-derives.
			if w == "mixed-live" && res.Metrics["rules.full_runs"].Value < 1 {
				t.Errorf("mixed-live: rules.full_runs = %v, want at least the initial derivation", res.Metrics["rules.full_runs"].Value)
			}
			if _, err := os.Stat(out + "/trace-" + w + ".json"); err != nil {
				t.Errorf("%s: span file: %v", w, err)
			}
		}
	}
}

func wantNames(t *testing.T, w string, got map[string]metric, want []string) {
	t.Helper()
	var have []string
	for name := range got {
		have = append(have, name)
	}
	sort.Strings(have)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(have, ",") != strings.Join(want, ",") {
		t.Errorf("%s: metrics emitted\n  %v\nwant\n  %v", w, have, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: same
// workloads, same end-to-end metrics, same per-layer metrics and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(in []string) []string {
		out := append([]string(nil), in...)
		sort.Strings(out)
		return out
	}
	if got, want := names(spec.Workloads), sorted(workloadNames); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", got, want)
	}
	if got, want := names(spec.EndToEnd), sorted(endToEndNames); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end %v, program has %v", got, want)
	}
	for _, m := range spec.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s (%s): program has unit %q (known=%v)", m.Name, m.Unit, unit, ok)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("per_layer lists %d metrics, program emits %d", len(spec.PerLayer), len(layerUnits))
	}
}
