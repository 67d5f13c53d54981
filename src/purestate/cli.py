"""Command-line driver: simulate counts, reconstruct states, run benchmarks.

Exit codes: 0 success, 1 usage error (bad flags, unknown subcommand), 2 data
error (unreadable or inconsistent input files, or data whose phase system
ambiguity_policy 'fail' refuses).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bases import (
    COMPUTATIONAL,
    basis_states,
    default_family,
    emit_circuit,
    emit_qasm,
    entangled_id,
    estimation_basis_ids,
    local_id,
)
from .benchmark import (
    STATE_FAMILIES,
    BenchConfig,
    bench_run,
    bootstrap_ci,
    make_bench_state,
    write_rows_csv,
    write_summary_json,
)
from .measurement import read_counts, seeded_rng, simulate_counts, write_counts
from .reconstruction import AmbiguityError, ReconstructionOptions, estimate_to_dict, reconstruct
from .states import fidelity, load_state, save_state

# keys of a bench config file: the bench flags, with --noise-lambda spelled noise_lambda
CONFIG_KEYS = ("n", "m", "mode", "shots", "trials", "state", "seed", "noise_lambda")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_n_range(text: str) -> list[int]:
    """'4' -> [4]; '2..10' -> [2..10]; '2,5,7' -> [2, 5, 7]."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def read_config(path: str) -> dict:
    """key = value lines; blank lines and #-comment lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_parser() -> _Parser:
    p = _Parser(prog="purestate", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="sample measurement counts from a known state")
    sim.add_argument("--state", default="haar", help=f"one of {'/'.join(STATE_FAMILIES)} or a state JSON file")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--mode", choices=("local", "entangled"), default="local")
    sim.add_argument("--m", type=int, default=2)
    sim.add_argument("--shots", type=int, default=8192)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise-lambda", type=float, default=0.0)
    sim.add_argument("--out", required=True, help="counts JSON output path")
    sim.add_argument("--save-state", help="also write the sampled true state as JSON")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="estimate the state from a counts file")
    rec.add_argument("--in", dest="infile", required=True, help="counts JSON input path")
    rec.add_argument("--out", help="estimate JSON output path")
    rec.add_argument("--mode", choices=("local", "entangled"), help="default: inferred from the records")
    rec.add_argument("--m", type=int, help="default: largest basis index present")
    rec.add_argument("--use-extra-rows", action="store_true")
    rec.add_argument("--null-threshold", type=float)
    rec.add_argument("--cond-threshold", type=float, default=1e6)
    rec.add_argument("--ambiguity-policy", choices=("residual_pick", "fail"), default="residual_pick")
    rec.add_argument("--target", help="named state or state JSON file for a fidelity printout")
    rec.set_defaults(func=cmd_reconstruct)

    ben = sub.add_parser("bench", help="Monte Carlo fidelity benchmark")
    ben.add_argument("--config", help="key=value config file; explicit flags win")
    ben.add_argument("--n", help="qubit counts: '6', '2..10', or '2,4,6'")
    ben.add_argument("--m", type=int)
    ben.add_argument("--mode", choices=("local", "entangled"))
    ben.add_argument("--shots", type=int)
    ben.add_argument("--trials", type=int)
    ben.add_argument("--state", help=f"one of {'/'.join(STATE_FAMILIES)}")
    ben.add_argument("--seed", type=int)
    ben.add_argument("--noise-lambda", type=float)
    ben.add_argument("--csv", help="per-trial results CSV path")
    ben.add_argument("--json", dest="json_out", help="summary JSON path")
    ben.set_defaults(func=cmd_bench)

    bas = sub.add_parser("bases", help="print basis descriptors and circuits")
    bas.add_argument("--n", type=int, required=True)
    bas.add_argument("--m", type=int, default=2)
    bas.add_argument("--mode", choices=("local", "entangled"), default="local")
    bas.add_argument("--basis", help="single basis id like 'local:1:2' or 'entangled:1'")
    bas.add_argument("--qasm", action="store_true", help="standard-assembly output (local bases only)")
    bas.add_argument("--states", action="store_true", help="also print the basis statevectors")
    bas.set_defaults(func=cmd_bases)

    boo = sub.add_parser("bootstrap", help="bootstrap confidence band for a counts file")
    boo.add_argument("--in", dest="infile", required=True)
    boo.add_argument("--target", required=True, help="named state or state JSON file")
    boo.add_argument("--resamples", type=int, default=200)
    boo.add_argument("--seed", type=int, default=0)
    boo.add_argument("--mode", choices=("local", "entangled"))
    boo.add_argument("--m", type=int)
    boo.add_argument("--use-extra-rows", action="store_true")
    boo.set_defaults(func=cmd_bootstrap)
    return p


def _load_target(spec: str, n: int):
    if spec.lower() in STATE_FAMILIES:
        if spec.lower() in ("haar", "separable"):
            raise UsageError("target must be a deterministic named state or a state JSON file")
        return make_bench_state(spec, n, None)
    if os.path.exists(spec):
        return load_state(spec)
    raise UsageError(f"target {spec!r} is neither a named state nor an existing file")


def _infer_mode_m(data, mode, m):
    local_as = [r.basis.a for r in data.records if r.basis.tag == "local"]
    ent_as = [r.basis.a for r in data.records if r.basis.tag == "entangled"]
    if mode is None:
        if local_as:
            mode = "local"
        elif ent_as:
            mode = "entangled"
        else:
            raise ValueError("counts file has no estimation-basis records")
    if m is None:
        pool = local_as if mode == "local" else ent_as
        if not pool:
            raise ValueError(f"counts file has no {mode} records")
        m = max(pool)
    return mode, m


def cmd_simulate(args) -> int:
    if args.state.lower() not in STATE_FAMILIES and not os.path.exists(args.state):
        raise UsageError(f"state {args.state!r} is neither a named family nor an existing file")
    if args.state.lower() in STATE_FAMILIES:
        rng = seeded_rng(args.seed, (args.n, 0))
        state = make_bench_state(args.state, args.n, rng)
    else:
        state = load_state(args.state)
        if state.n != args.n:
            raise ValueError(f"state file has n={state.n}, flag says n={args.n}")
    family = default_family(args.m)
    ids = estimation_basis_ids(args.n, args.m, args.mode)
    data = simulate_counts(
        state, ids, family, args.shots, seed=args.seed, seed_key=(args.n, 0), noise_lambda=args.noise_lambda
    )
    write_counts(args.out, data)
    if args.save_state:
        save_state(state, args.save_state)
    print(f"wrote {len(data.records)} records ({args.mode}, m={args.m}, shots={args.shots}) to {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    data = read_counts(args.infile)
    mode, m = _infer_mode_m(data, args.mode, args.m)
    opts = ReconstructionOptions(
        mode=mode,
        m=m,
        family=tuple(data.family),
        use_extra_rows=args.use_extra_rows,
        null_threshold=args.null_threshold,
        cond_threshold=args.cond_threshold,
        ambiguity_policy=args.ambiguity_policy,
    )
    estimate, diag = reconstruct(data.records, data.n, opts)
    print(
        f"reconstructed n={data.n} ({mode}, m={m}): "
        f"{diag.n_systems} systems, {diag.n_null_branches} null branches, "
        f"{diag.n_fallbacks} fallbacks, {diag.n_default_phases} default phases, cond_max={diag.cond_max:.6g}"
    )
    if args.target:
        target = _load_target(args.target, data.n)
        print(f"fidelity {fidelity(target, estimate):.12g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(estimate_to_dict(estimate, diag), fh, indent=1)
            fh.write("\n")
        print(f"wrote estimate to {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = {} if args.config is None else read_config(args.config)
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s) {', '.join(unknown)}; allowed: {', '.join(CONFIG_KEYS)}")

    def pick(flag, key, cast, fallback=None):
        if flag is not None:
            return flag
        if key in cfg:
            return cast(cfg[key])
        return fallback

    n_text = pick(args.n, "n", str, "4")
    try:
        n_range = parse_n_range(n_text)
    except ValueError as e:
        raise UsageError(str(e))
    given = {
        "m": pick(args.m, "m", int),
        "mode": pick(args.mode, "mode", str),
        "shots": pick(args.shots, "shots", int),
        "trials": pick(args.trials, "trials", int),
        "state_family": pick(args.state, "state", str),
        "seed": pick(args.seed, "seed", int),
        "noise_lambda": pick(args.noise_lambda, "noise_lambda", float),
    }
    # BenchConfig's own defaults fill whatever neither a flag nor the config gives
    config = BenchConfig(n_range=n_range, **{k: v for k, v in given.items() if v is not None})
    result = bench_run(config)
    summary = result.summary()
    for n_key, stats in summary["per_n"].items():
        print(
            f"n={n_key} trials={stats['trials']} median={stats['median']:.6g} "
            f"mean={stats['mean']:.6g} iqr=[{stats['q25']:.6g}, {stats['q75']:.6g}]"
        )
    print(f"runtime {result.runtime_seconds:.2f}s")
    if args.csv:
        write_rows_csv(args.csv, result.rows)
        print(f"wrote per-trial rows to {args.csv}")
    if args.json_out:
        write_summary_json(args.json_out, result)
        print(f"wrote summary to {args.json_out}")
    return 0


def _parse_basis_token(token: str):
    parts = token.split(":")
    try:
        if parts[0] == "computational" and len(parts) == 1:
            return COMPUTATIONAL
        if parts[0] == "local" and len(parts) == 3:
            return local_id(int(parts[1]), int(parts[2]))
        if parts[0] == "entangled" and len(parts) == 2:
            return entangled_id(int(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"bad basis id {token!r}; expected computational, local:a:b, or entangled:a")


def cmd_bases(args) -> int:
    family = default_family(args.m)
    for i, qb in enumerate(family, start=1):
        print(f"family a={i}: u={qb.u:.17g} v={qb.v:.17g} phi={qb.phi:.17g}")
    ids = [_parse_basis_token(args.basis)] if args.basis else estimation_basis_ids(args.n, args.m, args.mode)
    for id in ids:
        if args.qasm and id.tag == "entangled":
            raise UsageError("--qasm covers computational and local bases only")
        print(f"# basis {id}")
        text = emit_qasm(id, args.n, family) if args.qasm else emit_circuit(id, args.n, family)
        if text:
            print(text)
        if args.states:
            for k, st in enumerate(basis_states(args.n, id, family)):
                flat = " ".join(f"{a.real:+.6f}{a.imag:+.6f}j" for a in st.amps)
                print(f"state {k}: {flat}")
    return 0


def cmd_bootstrap(args) -> int:
    data = read_counts(args.infile)
    mode, m = _infer_mode_m(data, args.mode, args.m)
    target = _load_target(args.target, data.n)
    opts = ReconstructionOptions(mode=mode, m=m, family=tuple(data.family), use_extra_rows=args.use_extra_rows)
    point, lo, hi = bootstrap_ci(data.records, data.n, opts, target, args.resamples, args.seed)
    print(f"fidelity {point:.12g} ci16 {lo:.12g} ci84 {hi:.12g}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError, AmbiguityError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
