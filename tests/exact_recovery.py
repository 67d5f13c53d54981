"""The exact-recovery yardstick: the worst exact-data infidelity per estimator variant and n.

tests/digest.py checks that a change keeps every bit; this script checks
how close the estimator comes on exact data, where it should recover the
state to rounding.  For each variant and n it reconstructs a fixed set of
Haar states from their exact outcome tables (``reconstruct_from_probs``)
and prints the worst infidelity 1 - F and how many states lie above 1e-8:

    PYTHONPATH=<checkout>/src python tests/exact_recovery.py [--n-min A] [--n-max B]

The states are those of ``purestate simulate --state haar --seed 100000 k``
for k = 0..11 in local mode (both row variants read the same tables), and
``haar_random(n, 1000 + s)`` for s = 0..5 in entangled mode, at m = 2.  The
default range is n = 12..20; n = 20 holds 41 tables of 8 MiB and takes a
few minutes.  Run as a script, numpy gets one BLAS thread, since the last
bits of an estimate can depend on the thread count.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # set before numpy is imported anywhere in this process
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
from typing import NamedTuple

from digest import M, VARIANTS
from purestate.bases import default_family, estimation_basis_ids
from purestate.measurement import born_tables, seeded_rng
from purestate.reconstruction import reconstruct_from_probs
from purestate.states import fidelity, haar_random

LOCAL_STATES = 12
ENTANGLED_STATES = 6
THRESHOLD = 1e-8


class Row(NamedTuple):
    """One (variant, n) line: the states reconstructed, how many lie above THRESHOLD, and the worst of them."""

    variant: str
    n: int
    states: int
    above: int
    worst: float
    worst_state: str


def states(mode: str, n: int):
    """(label, state) of every state the yardstick reconstructs in mode at n."""
    if mode == "local":
        for k in range(LOCAL_STATES):
            yield f"seed {100_000 * k}", haar_random(n, seeded_rng(100_000 * k, (n, 0)))
    else:
        for s in range(ENTANGLED_STATES):
            yield f"haar_random({n}, {1000 + s})", haar_random(n, 1000 + s)


def rows(ns) -> list[Row]:
    """One Row per variant and n in ns, in VARIANTS order for each n."""
    family = default_family(M)
    out = []
    for n in ns:
        infidelities = {name: {} for name in VARIANTS}
        for mode in ("local", "entangled"):
            names = [name for name, opts in VARIANTS.items() if opts.mode == mode]
            ids = estimation_basis_ids(n, M, mode)
            for label, state in states(mode, n):
                tables = list(born_tables(state, ids, family))
                for name in names:
                    est, _ = reconstruct_from_probs(tables, n, VARIANTS[name])
                    infidelities[name][label] = 1.0 - fidelity(state, est)
                del tables  # at n = 20 a state's tables are 328 MiB: free them before the next state's are built
        for name, by_state in infidelities.items():
            label = max(by_state, key=by_state.get)
            above = sum(v > THRESHOLD for v in by_state.values())
            out.append(Row(name, n, len(by_state), above, by_state[label], label))
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=12, help="smallest qubit count (default 12)")
    parser.add_argument("--n-max", type=int, default=20, help="largest qubit count (default 20)")
    args = parser.parse_args(argv)
    print(f"{'variant':15s} {'n':>2s} {'states':>6s} {'above':>5s} {'worst':>9s}  worst state")
    for row in rows(range(args.n_min, args.n_max + 1)):
        print(f"{row.variant:15s} {row.n:2d} {row.states:6d} {row.above:5d} {row.worst:9.2e}  {row.worst_state}")


if __name__ == "__main__":
    main()
