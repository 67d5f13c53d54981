"""Self-tests for the benchmark's correctness checks: each check must reject a doctored output.

    python3 -m pytest perfbench/test_checks.py -q

Every test runs a real operation through the workload's own ``check`` and
first shows that the untouched output passes, so a check that rejects
everything fails here too.  Sizes are small (n <= 4) to keep the tests fast.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import purestate.reconstruction as reconstruction  # noqa: E402
from purestate.measurement import CountsRecord, read_counts  # noqa: E402
from purestate.states import PureState  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Probe  # noqa: E402
from workloads import BootstrapGhz4, MonteCarlo, SimulateCliN16  # noqa: E402


def run_captured(wl, i):
    probe = Probe()
    probe.capture()
    try:
        out = wl.op(i)
    finally:
        probe.undo()
    return out, {key: list(sink) for key, sink in probe.calls.items()}


class SmallSimulate(SimulateCliN16):
    n = 4


@pytest.fixture
def trial(tmp_path):
    wl = MonteCarlo(3, str(tmp_path), n=4, mode="local", kind="haar", shots=8192)
    out, calls = run_captured(wl, 1)
    wl.check(1, out, calls)
    return wl, out, calls


def flip_block(est):
    """The estimate with the relative phase of block (j=2, beta=0) flipped by pi."""
    amps = np.array(est.amps)
    amps[2:4] *= -1.0
    return PureState(n=est.n, amps=amps)


def test_phase_flip_is_rejected(trial):
    wl, (row, truth, est), calls = trial
    (args, kwargs, (_, diag)), = calls["reconstruct"]
    flipped = flip_block(est)
    with pytest.raises(CheckFailed, match="fidelity"):
        wl.check(1, (row, truth, flipped), {**calls, "reconstruct": [(args, kwargs, (flipped, diag))]})


def test_phase_flip_with_consistent_fidelity_fails_exact_recovery(trial, monkeypatch):
    wl, (row, truth, est), calls = trial
    (args, kwargs, (_, diag)), = calls["reconstruct"]
    flipped = flip_block(est)
    row = dataclasses.replace(row, fidelity=checks.fidelity_raw(truth.amps, flipped.amps))
    # A sampled trial that reports the fidelity of its own flipped estimate passes the per-trial checks ...
    wl.check(1, (row, truth, flipped), {**calls, "reconstruct": [(args, kwargs, (flipped, diag))]})
    # ... so the flip has to be caught on exact-probability data, once per run.
    wl.check_run()
    exact = reconstruction.reconstruct_from_probs

    def flipped_exact(*a, **kw):
        est, diag = exact(*a, **kw)
        return flip_block(est), diag

    monkeypatch.setattr(reconstruction, "reconstruct_from_probs", flipped_exact)
    with pytest.raises(CheckFailed, match="exact-probability data"):
        wl.check_run()


def test_record_one_count_short_is_rejected(trial):
    wl, out, calls = trial
    (args, kwargs, result), = calls["reconstruct"]
    records = list(args[0])
    rec = records[3]
    counts = np.array(rec.counts)
    counts[np.argmax(counts)] -= 1
    records[3] = CountsRecord(basis=rec.basis, shots=rec.shots, counts=counts)
    with pytest.raises(CheckFailed, match="sum to 8191"):
        wl.check(1, out, {**calls, "reconstruct": [((records, *args[1:]), kwargs, result)]})


def test_bootstrap_band_out_of_order_is_rejected(tmp_path):
    wl = BootstrapGhz4(5, str(tmp_path))
    (point, lo, hi), calls = run_captured(wl, 0)
    assert lo < hi
    with pytest.raises(CheckFailed, match="band"):
        wl.check(0, (point, hi, lo), calls)
    wl.check(0, (point, lo, hi), calls)


def test_bootstrap_band_must_repeat_for_equal_seeds(tmp_path):
    wl = BootstrapGhz4(5, str(tmp_path))
    band, calls = run_captured(wl, 0)
    wl.check(0, band, calls)
    point, lo, hi = band
    nudged = (point, np.nextafter(lo, 0.0), hi)
    with pytest.raises(CheckFailed, match="earlier"):
        wl.check(wl.ops_per_round, nudged, {"reconstruct": calls["reconstruct"]})


def _alter_one_count(path, keep_sum):
    with open(path) as fh:
        obj = json.load(fh)
    counts = obj["records"][2]["counts"]
    keys = sorted(counts)
    counts[keys[0]] += 1
    if keep_sum:
        counts[keys[1]] -= 1
    with open(path, "w") as fh:
        json.dump(obj, fh)


def test_counts_file_with_one_count_altered_is_rejected(tmp_path):
    wl = SmallSimulate(2, str(tmp_path))
    try:
        i = 1
        (rc, data, state), calls = run_captured(wl, i)
        counts_path, _ = wl._paths(wl.seed * wl.SEED_STRIDE + i)
        _alter_one_count(counts_path, keep_sum=True)
        with pytest.raises(CheckFailed, match="changed in the round trip"):
            checks.check_counts_round_trip(read_counts(counts_path), calls["write_counts"][0][0][1])
        _alter_one_count(counts_path, keep_sum=False)
        with pytest.raises(ValueError, match="does not match shots"):
            read_counts(counts_path)
        wl.check(i, (rc, data, state), calls)
    finally:
        wl.close()


def test_altered_counts_fail_the_simulate_operation(tmp_path):
    wl = SmallSimulate(2, str(tmp_path))
    try:
        (rc, _, state), calls = run_captured(wl, 1)
        counts_path, _ = wl._paths(wl.seed * wl.SEED_STRIDE + 1)
        _alter_one_count(counts_path, keep_sum=True)
        with pytest.raises(CheckFailed):
            wl.check(1, (rc, read_counts(counts_path), state), calls)
    finally:
        wl.close()


def test_exact_data_operation_rejects_a_phase_flip(tmp_path):
    wl = SmallSimulate(2, str(tmp_path))
    try:
        i = wl.ops_per_round  # the exact-data reconstruction that opens the second round
        (est, diag), calls = run_captured(wl, i)
        with pytest.raises(CheckFailed, match="exact-probability data"):
            wl.check(i, (flip_block(est), diag), calls)
        wl.check(i, (est, diag), calls)
    finally:
        wl.close()


def test_percentile_is_numpy_linear():
    values = np.random.default_rng(0).random(37)
    for q in (0.0, 16.0, 50.0, 84.0, 100.0):
        assert checks.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-15)
