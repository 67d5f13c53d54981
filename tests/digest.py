"""Bit-identity digests of reconstruct (one per estimator variant, one of its fail policy) and of the file I/O.

A change that must not move any result (a refactor, or a speedup that
keeps the arithmetic) is checked by running this script on both
checkouts and comparing the lines it prints:

    PYTHONPATH=<checkout>/src python tests/digest.py [--n-max N]
    PYTHONPATH=<checkout>/src python tests/digest.py --io [--n-max N]

Each variant's digest covers, for every reconstruction of the grid, the
estimate's amplitudes, Diagnostics.to_dict(), the phases and every array
of every Level.  The grid is the 7 benchmark state families x n = 1..n_max
(default 10; phi4 and ghz from n = 2) x seeds 0 and 1 x three record sets:
the exact tables, 4,096 shots, and 4,096 shots at white-noise weight 0.05.
The seed picks the state of the random families (haar, separable) and the
sampling stream of every family.  The variants are local with extra rows,
local with canonical rows and entangled, all at m = 2.  The fourth line,
fail-policy, runs every variant on the same grid again under
ambiguity_policy="fail" at cond_threshold FAIL_THRESHOLD, where 712 of
the 1,224 runs up to n = 10 raise.  For each run it hashes the
AmbiguityError's (j, beta, message), or the reconstruction as above when
nothing is raised, so it sees where the policy raises, which the other
three never do.

With --io the one digest covers the bytes write_counts and save_state
write and the arrays read_counts and load_state return, over n = 1..n_max
(default 16) x local and entangled bases (m = 2) x 8, 512 and 8,192 shots
x white-noise weight 0 and 0.05, with one Haar state per n.

With --refusals the one digest covers what each boundary that takes
counts records (reconstruct, bootstrap_ci, write_counts) raises for each
case of a fixed malformed-record grid (malformed_records): the
exception's type and message, or that it took the records.  A change
that must refuse exactly what its parent refused prints the same line:

    PYTHONPATH=<checkout>/src python tests/digest.py --refusals
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np

from purestate.bases import default_family, estimation_basis_ids, local_id
from purestate.benchmark import STATE_FAMILIES, bootstrap_ci, make_bench_state
from purestate.measurement import (
    CountsData,
    born_tables,
    exact_record,
    mix_white_noise,
    read_counts,
    sample_tables,
    seeded_rng,
    simulate_counts,
    write_counts,
)
from purestate.reconstruction import AmbiguityError, ReconstructionOptions, reconstruct
from purestate.states import haar_random, load_state, save_state

M = 2
SHOTS = 4096
NOISE = 0.05
SEEDS = (0, 1)
IO_SHOTS = (8, 512, 8192)
VARIANTS = {
    "extra-rows": ReconstructionOptions(mode="local", m=M),
    "canonical-rows": ReconstructionOptions(mode="local", m=M, use_extra_rows=False),
    "entangled": ReconstructionOptions(mode="entangled", m=M),
}
FAIL = "fail-policy"
FAIL_THRESHOLD = 3.0
FAIL_VARIANTS = {
    name: dataclasses.replace(opts, cond_threshold=FAIL_THRESHOLD, ambiguity_policy="fail")
    for name, opts in VARIANTS.items()
}


def update(h, state, diag) -> None:
    """Feed one reconstruction's amplitudes, diagnostics dict, phases and Level arrays to the hash h."""
    h.update(state.amps.tobytes())
    h.update(json.dumps(diag.to_dict(), sort_keys=True).encode())
    h.update(repr(sorted(diag.phases.items())).encode())
    for lv in diag.levels:
        h.update(repr(lv.j).encode())
        for a in lv[1:]:
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(np.ascontiguousarray(a).tobytes())


def update_fail(h, records, n, opts) -> bool:
    """Feed one fail-policy run to h: the AmbiguityError's (j, beta, message), else as update does; True if it raised."""
    try:
        state, diag = reconstruct(records, n, opts)
    except AmbiguityError as e:
        h.update(repr((e.j, e.beta, str(e))).encode())
        return True
    update(h, state, diag)
    return False


def record_sets(kind: str, n: int, seed: int):
    """The local and entangled records of one state: exact, sampled, and sampled from noisy tables."""
    family = default_family(M)
    local, entangled = estimation_basis_ids(n, M, "local"), estimation_basis_ids(n, M, "entangled")
    ids = local + entangled[1:]
    tables = list(born_tables(make_bench_state(kind, n, seeded_rng(seed, (n,))), ids, family))
    noisy = [mix_white_noise(t, NOISE) for t in tables]
    for records in (
        [exact_record(t) for t in tables],
        sample_tables(tables, SHOTS, seed, (n,)),
        sample_tables(noisy, SHOTS, seed, (n, 1)),
    ):
        yield {"local": records[: len(local)], "entangled": records[:1] + records[len(local) :]}


def digests(n_max: int = 10) -> dict:
    """{variant or FAIL: (SHA-256 hex digest, reconstructions)} over the grid up to n_max qubits."""
    hashes = {name: hashlib.sha256() for name in (*VARIANTS, FAIL)}
    runs = dict.fromkeys(hashes, 0)
    for kind in STATE_FAMILIES:
        for n in range(2 if kind in ("phi4", "ghz") else 1, n_max + 1):
            for seed in SEEDS:
                for by_mode in record_sets(kind, n, seed):
                    for name, opts in VARIANTS.items():
                        records = by_mode[opts.mode]
                        update(hashes[name], *reconstruct(records, n, opts))
                        update_fail(hashes[FAIL], records, n, FAIL_VARIANTS[name])
                        runs[name] += 1
                        runs[FAIL] += 1
    return {name: (h.hexdigest(), runs[name]) for name, h in hashes.items()}


def io_digest(n_max: int = 16) -> tuple[str, int]:
    """(SHA-256 hex digest, files written) of the file I/O over the grid up to n_max qubits."""
    h = hashlib.sha256()
    files = 0
    family = default_family(M)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.json")
        for n in range(1, n_max + 1):
            state = haar_random(n, n)
            save_state(state, path)
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(load_state(path).amps.tobytes())
            files += 1
            for mode in ("local", "entangled"):
                ids = estimation_basis_ids(n, M, mode)
                for shots in IO_SHOTS:
                    for lam in (0.0, NOISE):
                        write_counts(path, simulate_counts(state, ids, family, shots, n, noise_lambda=lam))
                        with open(path, "rb") as fh:
                            h.update(fh.read())
                        back = read_counts(path)
                        h.update(repr((back.n, back.family)).encode())
                        for rec in back.records:
                            h.update(repr((rec.basis, rec.shots, rec.counts.dtype.str)).encode())
                            h.update(rec.counts.tobytes())
                        files += 1
    return h.hexdigest(), files


def malformed_records() -> dict:
    """{case: records} of the fixed malformed-record grid, each case one fault in local:1:3 or in the list.

    The records are haar_random(3, 1)'s local ones (m = 2), sampled at
    1,000 shots on seed 0, or its exact tables for the exact cases; the last
    case, exact records, is well formed, and only bootstrap_ci and
    write_counts refuse it.
    """
    n, family = 3, default_family(M)
    ids = estimation_basis_ids(n, M, "local")
    state = haar_random(n, 1)
    sampled = simulate_counts(state, ids, family, 1000, 0).records
    exact = [exact_record(t) for t in born_tables(state, ids, family)]
    i = ids.index(local_id(1, n))
    counts, probs = sampled[i].counts, exact[i].counts

    def edit(records, **fields):
        out = list(records)
        out[i] = dataclasses.replace(out[i], **fields)
        return out

    def put(vec, k, value):
        vec = vec.copy()
        vec[k] = value
        return vec

    return {
        "wrong shape": edit(sampled, counts=counts[:-1]),
        "float counts": edit(sampled, counts=counts.astype(np.float64)),
        "negative count": edit(sampled, counts=put(put(counts, 1, counts[1] + counts[0] + 1), 0, -1)),
        "counts off shots": edit(sampled, counts=put(counts, 0, counts[0] + 2000)),
        "shots None": edit(sampled, shots=None),
        "shots True": edit(sampled, shots=True),
        "negative shots": edit(sampled, shots=-1000),
        "NaN in an exact table": edit(exact, counts=put(probs, 5, np.nan)),
        "-1e-3 in an exact table": edit(exact, counts=put(probs, 5, -1e-3)),
        "repeated basis": sampled + [dataclasses.replace(sampled[i], counts=np.roll(counts, 1))],
        "exact records": exact,
    }


def boundaries(path: str) -> dict:
    """{name: call} of every boundary that takes counts records, run at malformed_records()' n and m; write_counts writes path."""
    n, opts = 3, ReconstructionOptions(mode="local", m=M)
    return {
        "reconstruct": lambda records: reconstruct(records, n, opts),
        "bootstrap_ci": lambda records: bootstrap_ci(records, n, opts, haar_random(n, 1), 100, 0),
        "write_counts": lambda records: write_counts(path, CountsData(n, default_family(M), records)),
    }


def outcome(call, records) -> tuple:
    """(exception type name, message) of what call(records) raises; (None, None) when it takes the records."""
    try:
        call(records)
    except Exception as e:
        return type(e).__name__, str(e)
    return None, None


def refusals() -> dict:
    """{(case, boundary): outcome} over the malformed-record grid."""
    with tempfile.TemporaryDirectory() as tmp:
        calls = boundaries(os.path.join(tmp, "counts.json"))
        return {
            (case, name): outcome(call, records)
            for case, records in malformed_records().items()
            for name, call in calls.items()
        }


def refusal_digest() -> tuple[str, int]:
    """(SHA-256 hex digest, (case, boundary) pairs) of refusals()."""
    h = hashlib.sha256()
    outcomes = refusals()
    for pair, outcome in outcomes.items():
        h.update(repr((pair, outcome)).encode())
    return h.hexdigest(), len(outcomes)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--io", action="store_true", help="print the file I/O digest instead of the reconstruct ones")
    parser.add_argument("--refusals", action="store_true", help="print the digest of the record boundaries' refusals")
    parser.add_argument("--n-max", type=int, help="largest qubit count of the grid (default 10, or 16 with --io)")
    args = parser.parse_args(argv)
    if args.refusals:
        print(f"{'refusals':15s} {' '.join(map(str, refusal_digest()))}")
        return
    if args.io:
        hexdigest, files = io_digest(16 if args.n_max is None else args.n_max)
        print(f"{'file-io':15s} {hexdigest} {files}")
        return
    for name, (hexdigest, runs) in digests(10 if args.n_max is None else args.n_max).items():
        print(f"{name:15s} {hexdigest} {runs}")


if __name__ == "__main__":
    main()
