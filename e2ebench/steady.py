#!/usr/bin/env python3
"""Steadiness runs of the end-to-end benchmark.

Builds the benchmark once, runs each workload --runs times with seeds
--seed, --seed + 1, ... in alternating workload order, each run through the
command in BENCHMARK.json, and prints for each end-to-end metric the median,
the quartiles, the min and max and the interquartile spread as a share of
the median, next to the metric's bound in BENCHMARK.json. Also prints the
host's steal ticks during each run, nproc, the server's thread count and the
git revision.

    python3 e2ebench/steady.py --runs 10 --seconds 20 --save e2ebench/out/set-a.json
    python3 e2ebench/steady.py --compare e2ebench/out/set-a.json e2ebench/out/set-b.json

Run it from the repository root. --compare checks, per workload and metric,
that the two sets' medians differ by no more than the bound (as a share of
the first set's median), and that the failed share is the same in both
sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_hits", "fresh_sources", "catalog_drift"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build where the benchmark's command builds, so its runs start at once."""
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, check=True)


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout
        return out.stdout.strip() + ("+dirty" if dirty.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_keys(run, expected):
    got = list(run["result"]["metrics"])
    if sorted(got) != sorted(expected):
        sys.exit(f"{run['workload']}: metrics {sorted(set(got) ^ set(expected))} "
                 "differ from BENCHMARK.json")


def run_once(command, workload, seed, seconds):
    started = time.time()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": time.time() - started,
        "detail": json.loads(lines[-2])["detail"],
        "result": json.loads(lines[-1]),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, bounds):
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        first = mine[0]
        print(f"\n== {workload}: {len(mine)} runs, nproc {first['detail']['nproc']}, "
              f"server threads {sorted({r['detail']['server_threads'] for r in mine})}, "
              f"idle pollers {sorted({r['detail']['idle_pollers'] for r in mine})}, "
              f"wall {statistics.median(r['wall_s'] for r in mine):.1f} s per run")
        print("   steal ticks per run: " + " ".join(str(r["detail"]["steal_ticks"]) for r in mine))
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        correct = all(r["result"]["correct"] for r in mine)
        print(f"   attempted {attempted}, failed {failed}, all correct: {correct}")
        for kind in ("read_tail", "write_tail"):
            tails = [r["detail"][kind] for r in mine if "percentile" in r["detail"][kind]]
            if tails:
                span = lambda key: f"{min(t[key] for t in tails):.4g}–{max(t[key] for t in tails):.4g}"
                print(f"   {kind}: p{span('percentile')} = {span('ms')} ms, "
                      f"{span('beyond')} beyond of {span('samples')} samples")
        print(f"   {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}"
              f"{'iqr/med':>9}{'bound':>7}")
        for name in first["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  ok" if spread <= bound / 3 else ("  <bound" if spread <= bound else "  OVER")
            print(f"   {name:<24}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{min(values):>12.5g}"
                  f"{max(values):>12.5g}{spread:>9.3f}{(bound if bound is not None else float('nan')):>7.2f}{flag}")


def compare(a_path, b_path, bounds, better):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = True
    for workload in WORKLOADS:
        ra = [r for r in a["runs"] if r["workload"] == workload]
        rb = [r for r in b["runs"] if r["workload"] == workload]
        if not ra or not rb:
            continue
        fa, aa = (sum(r["result"][k] for r in ra) for k in ("failed", "attempted"))
        fb, ab = (sum(r["result"][k] for r in rb) for k in ("failed", "attempted"))
        same_share = fa * ab == fb * aa
        ok &= same_share
        print(f"\n== {workload}: failed/attempted {fa}/{aa} vs {fb}/{ab}"
              f" ({'same share' if same_share else 'SHARE DIFFERS'})")
        for name in ra[0]["result"]["metrics"]:
            ma = statistics.median(r["result"]["metrics"][name]["value"] for r in ra)
            mb = statistics.median(r["result"]["metrics"][name]["value"] for r in rb)
            worse = (mb - ma) / ma if better.get(name) == "lower" else (ma - mb) / ma
            bound = bounds.get(name, 0.0)
            verdict = "ok" if abs(worse) <= bound else ("WORSE" if worse > 0 else "BETTER")
            ok &= abs(worse) <= bound
            print(f"   {name:<24}{ma:>12.5g}{mb:>12.5g}  worse by {worse:+.3f} (bound {bound:.2f}) {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", default=None, help="write every run's output here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()

    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    better = {m["name"]: m["better"] for m in s["end_to_end"]}
    if args.compare:
        sys.exit(0 if compare(*args.compare, bounds, better) else 1)

    seconds = args.seconds or s["run_seconds"]
    build()
    print(f"git {git_rev()}, nproc {os.cpu_count()}, {seconds} s per run")
    runs = []
    for i in range(args.runs):
        # Rotate the order, so no workload always follows the same one.
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]
        for workload in order:
            run = run_once(s["command"], workload, args.seed + i, seconds)
            check_keys(run, [m["name"] for m in s["end_to_end"]])
            runs.append(run)
            m = run["result"]["metrics"]
            print(f"  {workload:<14} seed {args.seed + i:<4} steal {run['detail']['steal_ticks']:<5} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    summarize(runs, bounds)
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w") as f:
            json.dump({"git": git_rev(), "seconds": seconds, "runs": runs}, f)


if __name__ == "__main__":
    main()
