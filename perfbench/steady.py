"""Steadiness check: run workloads repeatedly, one seed per run, and print each metric's spread.

    python3 perfbench/steady.py                                  # every workload, 10 runs each
    python3 perfbench/steady.py --workload simulate-cli-n16 --runs 5

For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
beside the metric's bound in BENCHMARK.json, and flags a spread above a
third of its bound.  Every run is untraced, lasts BENCHMARK.json's
run_seconds and is a fresh interpreter started from the checkout root.  The
raw results go to perfbench/results/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    seconds = str(spec["run_seconds"])
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    argv[0] = sys.executable if argv[0] in ("python3", "python") else argv[0]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, workload: str, results: list) -> bool:
    """Print the table for one workload; True when every checked spread is under a third of its bound."""
    ok = True
    shares = {(r["failed"], r["attempted"]) for r in results}
    fail_shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={correct}, failed share(s)={fail_shares}, (failed, attempted)={sorted(shares)}")
    ok &= correct and len(fail_shares) == 1
    print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        flag = ""
        if spread > m["bound"] / 3:
            flag = "  <-- above bound/3"
            ok = False
        print(f"  {m['name']:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3f}{flag}")
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", nargs="+", choices=names, default=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0, help="seeds are seed0 .. seed0 + runs - 1")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    os.makedirs(RESULTS, exist_ok=True)
    ok = True
    for workload in args.workload:
        results = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            results.append(run_once(spec, workload, seed))
        path = os.path.join(RESULTS, f"steady-{workload}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seconds": spec["run_seconds"], "seed0": args.seed0, "results": results}, fh, indent=1)
        ok &= summarize(spec, workload, results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
