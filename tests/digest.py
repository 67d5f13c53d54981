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
x white-noise weight 0 and 0.05, with one Haar state per n.  Each counts
data set is read twice: from write_counts' file, and from a foreign
layout (compact json.dumps, outcome keys reversed) that read_counts
reads through json, so both of its paths are covered.

With --refusals the one digest covers what each boundary that takes
counts records (reconstruct, bootstrap_ci, write_counts) raises for each
case of a fixed malformed-record grid (malformed_records), and what
read_counts raises for each file of a fixed one-fault counts-file grid
(counts_files: every edit of EDITS, and every record of
MALFORMED_OUTCOMES in write_counts' layout and in the compact one): the
exception's type and message, or that it took the input.  A change
that must refuse exactly what its parent refused prints the same line:

    PYTHONPATH=<checkout>/src python tests/digest.py --refusals
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import tempfile

import numpy as np

from purestate.bases import default_family, estimation_basis_ids, family_to_dicts, local_id
from purestate.benchmark import STATE_FAMILIES, bootstrap_ci, make_bench_state
from purestate.measurement import (
    CountsData,
    born_tables,
    counts_data_to_dict,
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
        path, foreign = os.path.join(tmp, "file.json"), os.path.join(tmp, "foreign.json")
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
                        data = simulate_counts(state, ids, family, shots, n, noise_lambda=lam)
                        write_counts(path, data)
                        with open(path, "rb") as fh:
                            h.update(fh.read())
                        update_data(h, read_counts(path))
                        with open(foreign, "w") as fh:
                            fh.write(foreign_text(data))
                        update_data(h, read_counts(foreign))
                        files += 2
    return h.hexdigest(), files


def update_data(h, data) -> None:
    """Feed one read data set's n, family, and every record's basis, shots, dtype and counts to the hash h."""
    h.update(repr((data.n, data.family)).encode())
    for rec in data.records:
        h.update(repr((rec.basis, rec.shots, rec.counts.dtype.str)).encode())
        h.update(rec.counts.tobytes())


def foreign_text(data) -> str:
    """data as compact json.dumps text with every record's outcome keys reversed: a layout read_counts reads through json."""
    obj = counts_data_to_dict(data)
    for rec in obj["records"]:
        rec["counts"] = dict(reversed(rec["counts"].items()))
    return json.dumps(obj)


def record(counts, shots=5) -> dict:
    """The JSON form of a computational-basis record with these counts, at n = 2."""
    return {"basis": {"tag": "computational"}, "shots": shots, "counts": counts}


# (record, the message counts_from_dict names at n = 2): outcomes malformed one way or several, first in file order
MALFORMED_OUTCOMES = [
    (record({"0é": 5}), "bad outcome bitstring '0é' for n=2"),
    (record({"\ud8000": 5}), "bad outcome bitstring '\\ud8000' for n=2"),
    (record({"0\ud800": 5}), "bad outcome bitstring '0\\ud800' for n=2"),
    (record({"\U0001f6000": 5}), "bad outcome bitstring '\U0001f6000' for n=2"),
    (record({"0\x00": 5}), "bad outcome bitstring '0\\x00' for n=2"),
    (record({"0,": 5}), "bad outcome bitstring '0,' for n=2"),
    (record({"0": 2, "001": 3}), "bad outcome bitstring '0' for n=2"),
    (record({"00": True}), "count True for outcome '00' is not a non-negative integer"),
    (record({"00": 5.0}), "count 5.0 for outcome '00' is not a non-negative integer"),
    (record({"00": 2**63}), "count 9223372036854775808 for outcome '00' exceeds the record's shots 5"),
    (record({"00": -(2**63) - 1}), "count -9223372036854775809 for outcome '00' is not a non-negative integer"),
    (record({"0x": 1.5, "00": 5}), "bad outcome bitstring '0x' for n=2"),
    (record({"00": 1.5, "0x": 5}), "count 1.5 for outcome '00' is not a non-negative integer"),
    (record({"00": 5, "0x": 1.5}), "bad outcome bitstring '0x' for n=2"),
    (record({"10": 6, "0x": 1}), "count 6 for outcome '10' exceeds the record's shots 5"),
    (record({"0x": 1, "10": 6}), "bad outcome bitstring '0x' for n=2"),
    (
        record({"11": 2**62, "10": 2**62, "01": 2**62}, shots=2**63 - 1),
        "counts sum 13835058055282163712 does not match shots 9223372036854775807",
    ),
    (record({}), "counts sum 0 does not match shots 5"),
]

# one outcome line of a counts object in write_counts' layout: its key, then its count
COUNT = r'(\n    "[01]+": )(\d+)'

# edits of edited_data()'s written file, each to one counts object or to the whole file
EDITS = {
    "repeated outcome": lambda t: re.sub(r'(\n    "[01]+": \d+,)', r"\1\1", t, count=1),
    "outcomes out of order": lambda t: re.sub(r'\n(    "[01]+": \d+),\n(    "[01]+": \d+)', r"\n\2,\n\1", t, count=1),
    "leading zero": lambda t: re.sub(COUNT, r"\g<1>0\2", t, count=1),
    "zero count": lambda t: re.sub(COUNT, r"\g<1>0", t, count=1),
    "count one over shots": lambda t: re.sub(COUNT, r"\g<1>65", t, count=1),
    "count over shots": lambda t: re.sub(COUNT, r"\g<1>99999", t, count=1),
    "nineteen digits": lambda t: re.sub(COUNT, rf"\g<1>{2**63 - 1}", t, count=1),
    "twenty digits": lambda t: re.sub(COUNT, rf"\g<1>{2**64}", t, count=1),
    "float count": lambda t: re.sub(COUNT, r"\1\2.0", t, count=1),
    "negative count": lambda t: re.sub(COUNT, r"\1-\2", t, count=1),
    "short key": lambda t: re.sub(r'\n    "[01]', '\n    "', t, count=1),
    "bad key character": lambda t: re.sub(r'\n    "[01]', '\n    "2', t, count=1),
    "non-ASCII key": lambda t: re.sub(r'\n    "[01]', '\n    "é', t, count=1),
    "escaped key": lambda t: re.sub(r'\n    "[01]', r'\n    "\\u0030', t, count=1),
    "trailing comma": lambda t: t.replace("\n   }", ",\n   }", 1),
    "missing comma": lambda t: re.sub(r"(\n    \"[01]+\": \d+),\n", r"\1\n", t, count=1),
    "semicolon for colon": lambda t: re.sub(r'(\n    "[01]+"): ', r"\1; ", t, count=1),
    "unclosed object": lambda t: t[: t.index('"counts": {\n') + 40] + "\n",
    "other layout": lambda t: json.dumps(json.loads(t), indent=2),
    "compact layout": lambda t: json.dumps(json.loads(t)),
    "n not an integer": lambda t: t.replace('"n": 3', '"n": true', 1),
    "n too large": lambda t: t.replace('"n": 3', '"n": 4', 1),
    "bad n and a malformed object": lambda t: re.sub(r'(\n    "[01]+)"', r"\1]", t.replace('"n": 3', '"n": true', 1), count=1),
    "counts as a string": lambda t: re.sub(r'"counts": \{\n[^}]*\}', '"counts": "\\\\\\\\"', t, count=1),
    "counts as a string, and an object in its basis": lambda t: re.sub(
        r'"counts": \{\n[^}]*\}', r'"counts": "\\\\"', t, count=1
    ).replace('"tag": "computational"', '"tag": "computational", "counts": {\n    "000": 64\n   }', 1),
    "counts in a basis": lambda t: t.replace('"tag": "computational"', '"tag": "computational", "counts": {\n    "000": 1\n   }', 1),
    "shots not an integer": lambda t: t.replace('"shots": 64', '"shots": 64.0', 1),
    "basis out of range": lambda t: t.replace('"a": 1', '"a": 9', 1),
    "repeated record key": lambda t: t.replace('"shots": 64,', '"shots": 64,\n   "shots": 64,', 1),
}


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


def outcome(call, arg) -> tuple:
    """(exception type name, message) of what call(arg) raises; (None, None) when it takes arg."""
    try:
        call(arg)
    except Exception as e:
        return type(e).__name__, str(e)
    return None, None


def edited_data() -> CountsData:
    """The data whose written file EDITS edit: haar_random(3, 3)'s local records (m = 2), 64 shots on seed 3."""
    n = 3
    return simulate_counts(haar_random(n, 3), estimation_basis_ids(n, M, "local"), default_family(M), 64, 3)


def counts_files() -> dict:
    """{case: text} of the fixed one-fault counts-file grid.

    Each edit of EDITS on edited_data()'s file in write_counts' layout
    (json.dumps(..., indent=1) and a newline, the text write_counts writes),
    and each record of MALFORMED_OUTCOMES alone in an n = 2 file in that
    layout and in json's compact one.
    """
    written = json.dumps(counts_data_to_dict(edited_data()), indent=1) + "\n"
    files = {f"edit: {name}": edit(written) for name, edit in EDITS.items()}
    for i, (rec, _) in enumerate(MALFORMED_OUTCOMES):
        obj = {"n": 2, "family": family_to_dicts(default_family(M)), "records": [rec]}
        files[f"outcome {i}, written layout"] = json.dumps(obj, indent=1) + "\n"
        files[f"outcome {i}, compact layout"] = json.dumps(obj)
    return files


def refusals() -> dict:
    """{(case, boundary): outcome} over the malformed-record grid, and {(case, "read_counts"): outcome} over the counts files."""
    with tempfile.TemporaryDirectory() as tmp:
        calls = boundaries(os.path.join(tmp, "counts.json"))
        got = {
            (case, name): outcome(call, records)
            for case, records in malformed_records().items()
            for name, call in calls.items()
        }
        path = os.path.join(tmp, "file.json")
        for case, text in counts_files().items():
            with open(path, "w") as fh:
                fh.write(text)
            got[case, "read_counts"] = outcome(read_counts, path)
        return got


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
