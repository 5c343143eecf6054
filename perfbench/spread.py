#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads live-dashboard,batch-analyze --seeds 1-10 --sets 2

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) as a share of the median, and the bound BENCHMARK.json fixes,
flagging spreads above a third of their bound. --sets N runs N sets of the
same seeds, interleaved run by run (seed 1 of every workload and set, then
seed 2, ...), so that every set sees the same drift of the host; it then
also compares each set's median with the first set's, in the direction in
which the metric gets worse. --trace 1 runs the traced variant instead and
lists the per-layer metrics. --markdown FILE also writes the report
together with every run's values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    return result, info, wall


def summarize(runs, bounds):
    names = sorted({name for r in runs for name in r["result"]["metrics"]})
    rows = []
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs if name in r["result"]["metrics"]]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- spread above bound/3"
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  <-- SPREAD ABOVE BOUND"
        rows.append((name, unit, med, q1, q3, spread, bound, flag))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1, help="interleaved sets of the same seeds")
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--markdown", help="also write the report to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {} if args.trace else {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs = {(wl, s): [] for wl in workloads for s in range(args.sets)}
    for seed in seeds:
        for wl in workloads:
            for s in range(args.sets):
                result, info, wall = run_once(wl, seed, seconds, args.trace)
                ok = result["correct"] and result["failed"] == 0
                runs[(wl, s)].append({"seed": seed, "wall_s": round(wall, 1), "result": result, "info": info})
                print(f"{wl} set={s + 1} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}{'' if ok else '  <-- FAILED'}",
                      flush=True)

    report = [f"Seeds {args.seeds}, {args.sets} interleaved set(s), {seconds} s runs, trace={args.trace}.", ""]
    for wl in workloads:
        tables = [summarize(runs[(wl, s)], bounds) for s in range(args.sets)]
        for s, rows in enumerate(tables):
            report.append(f"### {wl}" + (f", set {s + 1}" if args.sets > 1 else ""))
            report.append("")
            report.append("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
            report.append("|---|---|---|---|---|---|---|")
            for name, unit, med, q1, q3, spread, bound, flag in rows:
                report.append(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                              f"{'' if bound is None else bound}{flag} |")
            report.append("")
            report.append("Runs (seed: value per metric, in the table's order):")
            report.append("")
            for r in runs[(wl, s)]:
                vals = ", ".join(f"{r['result']['metrics'][n]['value']:.6g}" for n, *_ in rows
                                 if n in r["result"]["metrics"])
                report.append(f"- seed {r['seed']} ({r['wall_s']} s wall): {vals}")
            report.append("")
        if args.sets > 1 and not args.trace:
            report.append(f"### {wl}, sets compared")
            report.append("")
            report.append("| metric | set 1 median | " + " | ".join(f"set {s + 1} median, worse by" for s in range(1, args.sets)) + " | bound |")
            report.append("|---|---|" + "---|" * (args.sets - 1) + "---|")
            first = {row[0]: row[2] for row in tables[0]}
            for name, *_ in tables[0]:
                cells = []
                for s in range(1, args.sets):
                    med = {row[0]: row[2] for row in tables[s]}[name]
                    worse = (med - first[name]) / first[name]
                    if better.get(name) == "higher":
                        worse = -worse
                    flag = "  <-- WORSE THAN BOUND" if bounds.get(name) is not None and worse > bounds[name] else ""
                    cells.append(f"{med:.6g}, {worse:+.4f}{flag}")
                report.append(f"| {name} | {first[name]:.6g} | " + " | ".join(cells) + f" | {bounds.get(name)} |")
            report.append("")
    text = "\n".join(report)
    print(text)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(text + "\n")
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", f"spread-{int(time.time())}.json"), "w") as f:
        json.dump([{"workload": wl, "set": s + 1, "runs": r} for (wl, s), r in runs.items()], f, indent=1)


if __name__ == "__main__":
    main()
