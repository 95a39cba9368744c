#!/usr/bin/env python3
"""A/A evidence for the benchmark: two interleaved sets of runs of the same
tree, each run with another seed, and the statistics the driver applies.

    python3 bench/aa.py [--runs 10] [--out bench/out/aa.json] [--md bench/AA.md]

Pass k runs every workload once for set A (seed k) and once for set B
(seed runs+k), A and B alternating, so both sets see the same stretch of
box weather. For each workload x end-to-end metric it reports each set's
median and quartiles (statistics.quantiles, n=4), the spread
(Q3-Q1)/median the driver holds against the bound, and how much worse
B's median is than A's. proc.steal_frac comes from the run's log line.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {res}")
    values = {name: m["value"] for name, m in res["metrics"].items()}
    steal = re.search(r"host steal during the measured phase: ([0-9.]+)", proc.stdout)
    values["proc.steal_frac"] = float(steal.group(1)) if steal else 0.0
    values["wall_s"] = wall
    extra = re.search(r"^# extra (\{.*\})$", proc.stdout, re.M)
    if extra:
        values.update(json.loads(extra.group(1)))
    return values


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=str(ROOT / "bench/out/aa.json"))
    ap.add_argument("--md", default="")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--from", dest="saved", default="", help="render the table from a saved --out file instead of running")
    args = ap.parse_args()
    if args.saved:
        data = json.loads(Path(args.saved).read_text())
        report = render(data, len(next(iter(data.values()))["A"]))
        print(report)
        if args.md:
            Path(args.md).write_text(report)
        return
    workloads = args.workloads.split(",")
    data = {w: {"A": [], "B": []} for w in workloads}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    for k in range(1, args.runs + 1):
        for side in ("AB" if k % 2 else "BA"):
            for w in workloads:
                seed = k if side == "A" else args.runs + k
                data[w][side].append(run(w, seed))
                print(f"pass {k} set {side} {w}: " + " ".join(
                    f"{n}={v:.4g}" for n, v in data[w][side][-1].items()), flush=True)
        Path(args.out).write_text(json.dumps(data, indent=1))
    report = render(data, args.runs)
    print(report)
    if args.md:
        Path(args.md).write_text(report)


def render(data, runs):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    higher = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "higher"}
    lines = [
        "| workload | metric | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | B worse than A | bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    worst = []
    for w, sets in data.items():
        extras = sorted(k for k in sets["A"][0] if k not in bounds)
        for name in list(bounds) + extras:
            row = [w, name]
            med = {}
            for side in "AB":
                xs = [r[name] for r in sets[side]]
                q1, q2, q3 = quartiles(xs)
                med[side] = q2
                spread = (q3 - q1) / q2 if q2 else 0.0
                row += [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]", f"{100 * spread:.2f}%"]
                if name in bounds and name != "setup_s":  # the driver holds no spread against setup_s
                    worst.append((spread / bounds[name], w, name, side, spread))
            worse = (med["A"] - med["B"]) / med["A"] if name in higher else (med["B"] - med["A"]) / med["A"] if med["A"] else 0.0
            row += [f"{100 * worse:+.2f}%", f"{100 * bounds[name]:.0f}%" if name in bounds else "-"]
            lines.append("| " + " | ".join(row) + " |")
    worst.sort(reverse=True)
    lines.append("")
    lines.append(f"{runs} runs per set. Largest spread as a share of its bound (setup_s apart): " + "; ".join(
        f"{w}/{n} set {s}: {100 * sp:.2f}% = {share:.2f} of bound" for share, w, n, s, sp in worst[:5]))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
