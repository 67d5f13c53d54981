"""The four benchmark workloads.

A workload builds its inputs from the run's seed, warms up with one untimed
operation, then serves numbered operations.  Every operation is checked by
``check`` outside the timed region; ``check_run`` holds the checks made once
per run.  ``fidelities`` come from the first round only, so they do not depend
on how long a run lasts.

The package is reached only through its public API and its CLI, and always
through module attributes (``benchmark.run_trial``, not a bound name), so the
wrappers in ``spans`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import numpy as np

import purestate.bases as bases
import purestate.benchmark as benchmark
import purestate.cli as cli
import purestate.measurement as measurement
import purestate.reconstruction as reconstruction
import purestate.states as states

import checks
from checks import CheckFailed

M = 2
# Far beyond any trial index a run reaches, so the warm-up trial is never timed.
WARM_UP_TRIAL = 1_000_000


def _one_call(calls: dict, key: str):
    got = calls[key]
    if len(got) != 1:
        raise CheckFailed(f"expected one {key} call in the operation, saw {len(got)}")
    return got[0]


def _basis_params(family, basis_id):
    if basis_id.tag == "computational":
        return None
    qb = family[basis_id.a - 1]
    return qb.u, qb.v, qb.phi


def _check_born(state, ids, family) -> list:
    """born_probs against the direct computation for every basis; returns the package's tables."""
    tables = []
    for basis_id in ids:
        table = measurement.born_probs(state, basis_id, family)
        want = checks.own_probs(state.amps, state.n, basis_id.tag, basis_id.b, _basis_params(family, basis_id))
        checks.check_born(table.probs, want, str(basis_id))
        tables.append(table)
    return tables


class Workload:
    name = ""
    # trials per operation: the unit of trials_per_s and trial_s_p50
    trials_per_op = 1
    ops_per_round = 1
    # the first operations of each round are checks only: counted, never timed or traced
    untimed_per_round = 0

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.fids: list[float] = []

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out, calls: dict) -> None:
        raise NotImplementedError

    def check_run(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class MonteCarlo(Workload):
    """One ``run_trial`` per operation; trial i of the run's seed, so every operation has a fresh state."""

    ops_per_round = 16
    fidelity_window = None

    def __init__(self, seed, work_dir, n, mode, kind, shots):
        super().__init__(seed, work_dir)
        self.n, self.mode, self.kind, self.shots = n, mode, kind, shots
        self.cfg = benchmark.BenchConfig(
            n_range=(n,), m=M, mode=mode, shots=shots, trials=1, state_family=kind, seed=seed
        )

    def warm_up(self):
        benchmark.run_trial(self.cfg, self.n, WARM_UP_TRIAL)

    def op(self, i):
        return benchmark.run_trial(self.cfg, self.n, i)

    def check(self, i, out, calls):
        row, truth, est = out
        (records, n, _opts), _, (estimate, diag) = _one_call(calls, "reconstruct")
        if estimate is not est or n != self.n:
            raise CheckFailed("run_trial returned an estimate other than the one reconstruct produced")
        checks.check_reconstruction(est.amps, diag, self.n, records, self.shots)
        checks.check_fidelity(row.fidelity, truth.amps, est.amps)
        if i < self.ops_per_round:
            self.fids.append(row.fidelity)

    def check_run(self):
        family = bases.default_family(M)
        state = benchmark.make_bench_state(self.kind, self.n, measurement.seeded_rng(self.seed, (self.n, 0)))
        tables = _check_born(state, bases.estimation_basis_ids(self.n, M, self.mode), family)
        opts = reconstruction.ReconstructionOptions(
            mode=self.mode, m=M, family=tuple(family), use_extra_rows=(self.mode == "local")
        )
        est, diag = reconstruction.reconstruct_from_probs(tables, self.n, opts)
        checks.check_reconstruction(est.amps, diag, self.n, [])
        checks.check_exact_recovery(state.amps, est.amps)
        if self.fidelity_window is not None:
            lo, hi = self.fidelity_window
            med = float(np.median(self.fids))
            if not lo <= med <= hi:
                raise CheckFailed(f"fidelity median {med!r} outside [{lo}, {hi}]")


class LocalHaarN10(MonteCarlo):
    name = "mc-local-haar-n10"
    # acceptance criterion 1: the paper's 0.88 +- 0.05 at n=10, m=2
    fidelity_window = (0.83, 0.93)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir, n=10, mode="local", kind="haar", shots=8192)


class EntangledPhi1N12(MonteCarlo):
    name = "mc-entangled-phi1-n12"

    def __init__(self, seed, work_dir):
        # At 8192 shots n=12 leaves ~2 counts per outcome; 65536 keeps the fidelity off the shot-noise floor.
        super().__init__(seed, work_dir, n=12, mode="entangled", kind="phi1", shots=65536)


class BootstrapGhz4(Workload):
    """One ``bootstrap_ci`` call with B=200 per operation, on noisy 4-qubit GHZ counts.

    The counts come from the run's seed; the calls cycle through a fixed set
    of bootstrap seeds, so later rounds must repeat the first bit for bit.
    """

    name = "bootstrap-ghz4-noisy"
    B = 200
    trials_per_op = B
    ops_per_round = 8
    n = 4
    shots = 8192

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.family = bases.default_family(M)
        self.target = benchmark.make_bench_state("ghz", self.n, None)
        self.ids = bases.estimation_basis_ids(self.n, M, "local")
        lam = benchmark.prep_noise_lambda("phi4", self.n)
        data = measurement.simulate_counts(
            self.target, self.ids, self.family, self.shots, seed=seed, seed_key=(self.n, 0), noise_lambda=lam
        )
        self.records = data.records
        self.opts = reconstruction.ReconstructionOptions(
            mode="local", m=M, family=tuple(self.family), use_extra_rows=True
        )
        self.bands: dict[int, tuple] = {}

    def _call(self, boot_seed):
        return benchmark.bootstrap_ci(self.records, self.n, self.opts, self.target, self.B, boot_seed)

    def warm_up(self):
        self._call(self.ops_per_round)

    def op(self, i):
        return self._call(i % self.ops_per_round)

    def check(self, i, out, calls):
        point, lo, hi = out
        checks.check_band(point, lo, hi)
        recs = calls["reconstruct"]
        if len(recs) != self.B:
            raise CheckFailed(f"bootstrap_ci ran {len(recs)} reconstructions, expected B={self.B}")
        fids = []
        for (records, n, _opts), _, (estimate, diag) in recs:
            checks.check_reconstruction(estimate.amps, diag, self.n, records, self.shots)
            fids.append(checks.fidelity_raw(self.target.amps, estimate.amps))
        checks.check_band_matches(fids, point, lo, hi)
        key = i % self.ops_per_round
        if key in self.bands:
            if self.bands[key] != (point, lo, hi):
                raise CheckFailed(f"bootstrap seed {key} gave {(point, lo, hi)}, earlier {self.bands[key]}")
        else:
            self.bands[key] = (point, lo, hi)
            self.fids.append(point)

    def check_run(self):
        checks.check_records(self.records, self.shots)
        tables = _check_born(self.target, self.ids, self.family)
        est, diag = reconstruction.reconstruct_from_probs(tables, self.n, self.opts)
        checks.check_reconstruction(est.amps, diag, self.n, [])
        checks.check_exact_recovery(self.target.amps, est.amps)


class SimulateCliN16(Workload):
    """In-process ``purestate simulate`` at n=16, then ``read_counts`` and ``load_state`` of its files.

    A round is one untimed exact-data reconstruction followed by COMMANDS
    timed commands.  Command i uses seed ``seed * SEED_STRIDE + i`` and
    writes two new files, which its check deletes: rewriting one path would
    time the file system's handling of a truncated file with unwritten pages,
    which drifts within a run.  The files live in a temporary directory
    removed by ``close``.

    The exact-data reconstruction rebuilds the state of ``simulate --seed
    EXACT_SEED`` from its Born probabilities with canonical rows.  Its input
    does not depend on the run's seed.  Canonical rows at n=16 recover about
    half of all Haar states only to 1e-11..1e-3 infidelity (see CHANGES.md),
    this one to about 3e-3, so the operation fails in every round until that
    is mended.
    """

    name = "simulate-cli-n16"
    n = 16
    shots = 8192
    SEED_STRIDE = 100_000
    EXACT_SEED = 100_000
    COMMANDS = 6
    untimed_per_round = 1
    ops_per_round = untimed_per_round + COMMANDS
    # the command whose counts give the fidelity set and whose state is cross-checked against born_probs
    FIRST_COMMAND = untimed_per_round

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        os.makedirs(work_dir, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(prefix="simulate-", dir=work_dir)
        self.family = bases.default_family(M)
        self.ids = bases.estimation_basis_ids(self.n, M, "local")
        self.exact_state = checks.haar_draw(self.EXACT_SEED, (self.n, 0), self.n)
        self.exact_opts = reconstruction.ReconstructionOptions(
            mode="local", m=M, family=tuple(self.family), use_extra_rows=False
        )

    def _paths(self, cmd_seed):
        stem = os.path.join(self.tmp.name, str(cmd_seed))
        return stem + "-counts.json", stem + "-state.json"

    def _command(self, cmd_seed):
        counts_path, state_path = self._paths(cmd_seed)
        argv = [
            "simulate", "--state", "haar", "--n", str(self.n), "--m", str(M), "--shots", str(self.shots),
            "--seed", str(cmd_seed), "--out", counts_path, "--save-state", state_path,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.cli_main(argv)
        return rc, measurement.read_counts(counts_path), states.load_state(state_path)

    def _exact(self):
        state = states.PureState(n=self.n, amps=self.exact_state)
        tables = [measurement.born_probs(state, basis_id, self.family) for basis_id in self.ids]
        return reconstruction.reconstruct_from_probs(tables, self.n, self.exact_opts)

    def warm_up(self):
        self._command(self.SEED_STRIDE - 1)

    def op(self, i):
        if i % self.ops_per_round < self.untimed_per_round:
            return self._exact()
        return self._command(self.seed * self.SEED_STRIDE + i)

    def check(self, i, out, calls):
        if i % self.ops_per_round < self.untimed_per_round:
            est, diag = out
            checks.check_reconstruction(est.amps, diag, self.n, [])
            checks.check_exact_recovery(self.exact_state, est.amps)
            return
        cmd_seed = self.seed * self.SEED_STRIDE + i
        try:
            self._check(i, cmd_seed, out, calls)
        finally:
            for path in self._paths(cmd_seed):
                if os.path.exists(path):
                    os.remove(path)

    def _check(self, i, cmd_seed, out, calls):
        rc, data, state = out
        if rc != 0:
            raise CheckFailed(f"simulate exited with {rc}")
        (_path, written), _, _ = _one_call(calls, "write_counts")
        _one_call(calls, "save_state")
        checks.check_counts_round_trip(data, written)
        if [(qb.u, qb.v, qb.phi) for qb in data.family] != [(qb.u, qb.v, qb.phi) for qb in self.family]:
            raise CheckFailed("counts file family differs from the default family")
        if [rec.basis for rec in data.records] != self.ids:
            raise CheckFailed("counts file does not hold the estimation bases in order")
        checks.check_records(data.records, self.shots)
        if state.n != self.n:
            raise CheckFailed(f"saved state reloaded with n={state.n}")
        f = checks.fidelity_raw(checks.haar_draw(cmd_seed, (self.n, 0), self.n), state.amps)
        if not abs(f - 1.0) <= checks.FIDELITY_TOL:
            raise CheckFailed(f"saved state has fidelity {f!r} to the state drawn from the same seed")
        if i == self.FIRST_COMMAND:
            tables = _check_born(state, self.ids, self.family)
            self.fids = [
                checks.classical_fidelity(rec.counts, rec.shots, t.probs) for rec, t in zip(data.records, tables)
            ]

    def check_run(self):
        # The Born cross-check ran on the first command; exact-data recovery is checked every round.
        if not self.fids:
            raise CheckFailed("the first command was not checked")

    def close(self):
        self.tmp.cleanup()


WORKLOADS = {w.name: w for w in (LocalHaarN10, EntangledPhi1N12, BootstrapGhz4, SimulateCliN16)}
