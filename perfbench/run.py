"""Benchmark entry point for purestate: one workload in one fresh interpreter, one JSON result line.

    python3 perfbench/run.py --workload mc-local-haar-n10 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``
directory, never from an installed copy.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and the meaning of every metric.
"""

import os

# One thread: set before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 7


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "purestate", "__init__.py")):
        raise SystemExit(f"error: no purestate package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import purestate

    if os.path.dirname(os.path.dirname(os.path.abspath(purestate.__file__))) != SRC:
        raise SystemExit(f"error: purestate was imported from {purestate.__file__}, not from {SRC}")


_import_package()

from spans import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer metric -> (span name, statistic); statistics are per trial of the traced rounds
SPAN_METRICS = (
    ("benchmark.self_s", "benchmark", "self"),
    ("cli.self_s", "cli", "self"),
    ("reconstruction.reconstruct_s", "reconstruction.reconstruct", "total"),
    ("reconstruction.reconstruct_self_s", "reconstruction.reconstruct", "self"),
    ("reconstruction.amplitudes_s", "reconstruction.amplitudes", "total"),
    ("reconstruction.build_system_s", "reconstruction.build_system", "total"),
    ("reconstruction.build_system_calls", "reconstruction.build_system", "calls"),
    ("reconstruction.solve_phase_s", "reconstruction.solve_phase", "total"),
    ("measurement.simulate_self_s", "measurement.simulate", "self"),
    ("measurement.born_probs_s", "measurement.born_probs", "total"),
    ("measurement.sample_s", "measurement.sample", "total"),
    ("measurement.write_counts_s", "measurement.write_counts", "total"),
    ("measurement.read_counts_s", "measurement.read_counts", "total"),
    ("bases.apply_gates_s", "bases.apply_gates", "total"),
    ("states.prepare_s", "states.prepare", "total"),
    ("states.save_state_s", "states.save_state", "total"),
    ("states.load_state_s", "states.load_state", "total"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print 'ready' and exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(name: str, seed: int):
    """Input generation plus one untimed warm-up operation."""
    wl = WORKLOADS[name](seed, RESULTS)
    wl.warm_up()
    return wl


def time_setups(name: str, seed: int) -> list[float]:
    """Seconds from process start to the end of warm-up, each in a fresh interpreter.

    ``setup_s`` is the least of them: start-up noise only ever adds time.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}): {line}{rest}")
        out.append(elapsed)
    return out


def measure(wl, probe: Probe, seconds: float, trace: bool) -> dict:
    """Whole rounds of operations until ``seconds`` have passed; odd rounds are traced when ``trace``.

    The first ``wl.untimed_per_round`` operations of a round are checks only:
    they count in ``attempted`` and ``failed`` but are neither timed nor traced.
    """
    tracer = probe.tracer
    op_nid = tracer.intern("op")
    plain, traced, diags = [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    rnd = 0
    while True:
        tracing_round = trace and rnd % 2 == 1
        for k in range(wl.ops_per_round):
            i = rnd * wl.ops_per_round + k
            timed = k >= wl.untimed_per_round
            tracing = tracing_round and timed
            if tracing and k == wl.untimed_per_round:
                probe.trace()
            attempted += 1
            probe.clear()
            tracer.current_op = i
            gc.collect()  # garbage left by the previous check is not charged to this operation
            try:
                if tracing:
                    span = tracer.begin(op_nid)
                t0 = time.perf_counter()
                out = wl.op(i)
                dt = time.perf_counter() - t0
                if tracing:
                    tracer.finish(span)
                    diags.extend(call[2][1] for call in probe.calls["reconstruct"])
                wl.check(i, out, probe.calls)
            except Exception as e:  # an operation that raises or fails a check counts as failed
                failed += 1
                while tracer.open:
                    tracer.finish(tracer.open[-1])
                print(f"operation {i} failed: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            if timed:
                (traced if tracing else plain).append(dt)
        if tracing_round:
            probe.untrace()
        rnd += 1
        if time.perf_counter() - t_start >= seconds and rnd >= (2 if trace else 1):
            break
    probe.clear()
    return {"attempted": attempted, "failed": failed, "plain": plain, "traced": traced, "diags": diags}


def end_to_end(wl, res: dict, setups: list[float], peak_rss_mib: float) -> dict:
    times, unit = res["plain"], wl.trials_per_op
    return {
        "trials_per_s": (unit * len(times) / sum(times), "trial/s"),
        "trial_s_p50": (statistics.median(times) / unit, "s"),
        "fidelity_median": (statistics.median(wl.fids), "1"),
        "fidelity_mean": (statistics.fmean(wl.fids), "1"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(wl, res: dict, probe: Probe) -> dict:
    trials = len(res["traced"]) * wl.trials_per_op
    totals = probe.tracer.totals()
    out = {}
    for metric, span, stat in SPAN_METRICS:
        calls, total, own = totals.get(span, (0, 0.0, 0.0))
        value = {"calls": calls, "total": total, "self": own}[stat]
        out[metric] = (value / trials, "count" if stat == "calls" else "s")
    counts = probe.tracer.counts
    for key in ("bases.outcome_role_calls", "bases.gate_applications"):
        out[key] = (counts.get(key, 0) / trials, "count")
    systems = sum(len(d.conds) for d in res["diags"])
    fallbacks = sum(d.n_fallbacks for d in res["diags"])
    defaults = sum(d.n_default_phases for d in res["diags"])
    out["reconstruction.systems_solved"] = (systems / trials, "count")
    out["reconstruction.fallbacks"] = (fallbacks / trials, "count")
    out["reconstruction.default_phases"] = (defaults / trials, "count")
    # base: systems solved; a workload that solves none reports 0
    out["reconstruction.ls_share"] = ((systems - fallbacks - defaults) / systems if systems else 0.0, "1")
    traced_op = statistics.median(res["traced"]) / wl.trials_per_op
    plain_op = statistics.median(res["plain"]) / wl.trials_per_op
    out["trace.op_s"] = (traced_op, "s")
    out["trace.untraced_op_s"] = (plain_op, "s")
    out["trace.overhead_s"] = (traced_op - plain_op, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        wl = set_up(args.workload, args.seed)
        wl.close()
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else time_setups(args.workload, args.seed)
    wl = set_up(args.workload, args.seed)
    probe = Probe()
    try:
        probe.capture()
        res = measure(wl, probe, args.seconds, bool(args.trace))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe.undo()
        correct = True
        try:
            wl.check_run()
        except Exception as e:  # reported in the result as correct: false
            correct = False
            print(f"run check failed: {type(e).__name__}: {e}", file=sys.stderr)
    finally:
        probe.undo()
        wl.close()
    if not res["plain"] or (args.trace and not res["traced"]) or not wl.fids:
        print("error: no operation succeeded; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(wl, res, probe)
        os.makedirs(RESULTS, exist_ok=True)
        probe.tracer.save(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = end_to_end(wl, res, setups, peak_rss_mib)
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
