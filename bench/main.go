// Command bench is the repository's end-to-end benchmark: it stands up
// the real serving stack in-process behind a loopback listener, drives
// one of four fixed-work workloads over real HTTP, checks every answer
// against an independent oracle, and prints the metrics BENCHMARK.json
// names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := runConfig{sz: fullSizes(), log: stdout}
	trace := fl.Int("trace", 0, "1 = traced run: replay a sample at every seam and print the per-layer metrics instead of the end-to-end ones")
	fl.StringVar(&cfg.workload, "workload", "", "one of serve-read-mix, scan-paginate, ingest-durable, mixed-live")
	fl.Int64Var(&cfg.seed, "seed", 1, "seed of the world and of every op parameter")
	fl.Float64Var(&cfg.seconds, "seconds", 14, "how much work to measure, in seconds of this box's nominal rate")
	fl.StringVar(&cfg.outDir, "out", "bench/out", "directory for data directories and the span file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, err := runWorkload(&cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
