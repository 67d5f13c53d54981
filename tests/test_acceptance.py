"""Acceptance gate: the nine headline checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass;
the whole module takes a few minutes. Every tolerance is pinned here and the
underlying benchmark seeds are fixed, so reruns are bit-reproducible.
"""

import numpy as np
import pytest

from purestate.states import fidelity, haar_random
from purestate.bases import default_family, estimation_basis_ids
from purestate.measurement import (
    born_probs,
    exact_record,
    read_counts,
    seeded_rng,
    simulate_counts,
    write_counts,
)
from purestate.reconstruction import ReconstructionOptions, reconstruct, solve_phase
from purestate.benchmark import BenchConfig, bench_run, prep_noise_lambda
from reference import oracle_grid_reconstruct


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _median_at(cfg: BenchConfig, n: int) -> float:
    return float(np.median(bench_run(cfg).fidelities(n)))


def test_criterion_1_local_haar_medians():
    windows = {2: (0.88, 0.05), 3: (0.915, 0.05), 4: (0.93, 0.05)}
    medians = {}
    for m, (center, tol) in windows.items():
        cfg = BenchConfig(n_range=tuple(range(2, 11)), m=m, mode="local",
                          shots=8192, trials=100, state_family="haar", seed=0)
        medians[m] = _median_at(cfg, 10)
    ok = all(abs(medians[m] - c) <= t for m, (c, t) in windows.items())
    detail = ", ".join(f"m={m}: {medians[m]:.4f}" for m in windows)
    _report(1, "local-basis Haar medians at n=10 within windows", ok, detail)


def test_criterion_2_local_separable_medians():
    windows = {2: (0.95, 0.03), 3: (0.955, 0.03), 4: (0.96, 0.03)}
    medians = {}
    for m in windows:
        cfg = BenchConfig(n_range=tuple(range(2, 11)), m=m, mode="local",
                          shots=8192, trials=100, state_family="separable", seed=0)
        medians[m] = _median_at(cfg, 10)
    ok = all(abs(medians[m] - c) <= t for m, (c, t) in windows.items())
    detail = ", ".join(f"m={m}: {medians[m]:.4f}" for m in windows)
    _report(2, "local-basis separable medians at n=10 within windows", ok, detail)


def test_criterion_3_entangled_haar_medians():
    windows = {2: (0.2, 0.15), 3: (0.6, 0.15), 4: (0.8, 0.15)}
    medians = {}
    for m in windows:
        cfg = BenchConfig(n_range=(6,), m=m, mode="entangled",
                          shots=8192, trials=100, state_family="haar", seed=0)
        medians[m] = _median_at(cfg, 6)
    in_windows = all(abs(medians[m] - c) <= t for m, (c, t) in windows.items())
    monotone = medians[2] < medians[3] < medians[4]
    detail = ", ".join(f"m={m}: {medians[m]:.4f}" for m in windows)
    _report(3, "entangled-basis Haar medians at n=6 within windows and strictly increasing in m",
            in_windows and monotone, detail)


def test_criterion_4_entangled_separable_medians():
    windows = {2: (0.75, 0.1), 3: (0.95, 0.1), 4: (0.95, 0.1)}
    medians = {}
    for m in windows:
        cfg = BenchConfig(n_range=(6,), m=m, mode="entangled",
                          shots=8192, trials=100, state_family="separable", seed=0)
        medians[m] = _median_at(cfg, 6)
    ok = all(abs(medians[m] - c) <= t for m, (c, t) in windows.items())
    detail = ", ".join(f"m={m}: {medians[m]:.4f}" for m in windows)
    _report(4, "entangled-basis separable medians at n=6 within windows", ok, detail)


def test_criterion_5_exact_probabilities_recover_everything():
    family = default_family(2)
    worst = 1.0
    fallbacks = 0
    opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=False)
    for n in range(2, 7):
        ids = estimation_basis_ids(n, 2, "local")
        for i in range(100):
            state = haar_random(n, seeded_rng(500, (n, i)))
            records = [exact_record(born_probs(state, id, family)) for id in ids]
            est, diag = reconstruct(records, n, opts)
            worst = min(worst, fidelity(state, est))
            fallbacks += diag.n_fallbacks
    ok = worst >= 1 - 1e-8 and fallbacks == 0
    _report(5, "exact-probability runs reach fidelity >= 1 - 1e-8 with zero fallbacks",
            ok, f"worst {worst:.3e}, fallbacks {fallbacks}")


def test_criterion_6_grid_oracle_equivalence():
    family = default_family(2)
    ids = estimation_basis_ids(2, 2, "local")
    opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
    worst = 1.0
    for i in range(50):
        truth = haar_random(2, seed=1000 + i)
        data = simulate_counts(truth, ids, family, 8192, seed=i)
        est, _ = reconstruct(data.records, 2, opts)
        grid = oracle_grid_reconstruct(data.records, 2)
        worst = min(worst, fidelity(est, grid))
    ok = worst >= 0.999
    _report(6, "iterative and grid-search estimates agree on 50 sampled instances",
            ok, f"worst {worst:.6f}")


def test_criterion_7_unit_circle_and_normalization_invariants():
    tol = 1e-12
    worst_norm = 0.0
    worst_circle = 0.0

    # direct solve_phase outputs over random systems, every third ill-conditioned
    opts = ReconstructionOptions()
    rng = np.random.default_rng(77)
    for i in range(200):
        rows = rng.standard_normal((int(rng.integers(1, 6)), 2))
        if i % 3 == 0:
            rows[1:] = rows[0] * rng.standard_normal((rows.shape[0] - 1, 1))
        t = rng.uniform(0, 2 * np.pi)
        rhs = rows @ np.array([np.cos(t), np.sin(t)]) + 0.01 * rng.standard_normal(rows.shape[0])
        c, s_ = solve_phase(np.vstack([rows.T, rhs])[:, None], opts.cond_threshold)[1].view(np.float64)
        worst_circle = max(worst_circle, abs(c * c + s_ * s_ - 1.0))

    # reconstruct outputs across the estimation matrix
    cases = []
    for n in (2, 3, 4):
        for mode in ("local", "entangled"):
            for m in (2, 3):
                cases.append((n, mode, m))
    cases += [(8, "local", 2), (10, "local", 2)]
    for n, mode, m in cases:
        family = default_family(m)
        ids = estimation_basis_ids(n, m, mode)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=(mode == "local"))
        for shots, seed in ((512, 21), (8192, 22), (0, 23)):
            state = haar_random(n, seeded_rng(700, (n, m, shots)))
            if shots:
                records = simulate_counts(state, ids, family, shots, seed=seed, seed_key=(n, m)).records
            else:
                records = [exact_record(born_probs(state, id, family)) for id in ids]
            est, diag = reconstruct(records, n, opts)
            worst_norm = max(worst_norm, abs(np.linalg.norm(est.amps) - 1.0))
            for c, s_ in diag.phases.values():
                worst_circle = max(worst_circle, abs(c * c + s_ * s_ - 1.0))
    ok = worst_norm <= tol and worst_circle <= tol
    _report(7, "unit-circle and normalization invariants at 1e-12 across the matrix",
            ok, f"norm dev {worst_norm:.2e}, circle dev {worst_circle:.2e}")


def test_criterion_8_gate_noise_degrades_fidelity_monotonically():
    ok = True
    details = []
    for kind, ns in (("phi3", (2, 4, 6)), ("phi4", (2, 3, 4, 5))):
        noisy_medians = []
        for n in ns:
            lam = prep_noise_lambda(kind, n)
            noisy = BenchConfig(n_range=(n,), state_family=kind, shots=8192,
                                trials=25, seed=0, noise_lambda=lam)
            clean = BenchConfig(n_range=(n,), state_family=kind, shots=8192,
                                trials=25, seed=0)
            f_noisy = _median_at(noisy, n)
            f_clean = _median_at(clean, n)
            ok = ok and f_clean >= f_noisy
            noisy_medians.append(f_noisy)
        ok = ok and all(b < a for a, b in zip(noisy_medians, noisy_medians[1:]))
        details.append(f"{kind}: " + "/".join(f"{v:.4f}" for v in noisy_medians))
    _report(8, "composed gate noise gives monotone fidelity decay, bounded by noiseless runs",
            ok, "; ".join(details))


def test_criterion_9_counts_round_trip(tmp_path):
    ok = True
    for i in range(20):
        rng = np.random.default_rng(9000 + i)
        n = int(rng.integers(2, 5))
        mode = "local" if rng.integers(2) else "entangled"
        m = int(rng.integers(2, 4))
        shots = int(rng.choice([17, 256, 1024]))  # low shot counts force sparse zeros
        state = haar_random(n, seed=int(rng.integers(1 << 30)))
        data = simulate_counts(state, estimation_basis_ids(n, m, mode),
                               default_family(m), shots, seed=9000 + i)
        path = tmp_path / f"counts_{i}.json"
        write_counts(path, data)
        back = read_counts(path)
        ok = ok and back.n == data.n
        ok = ok and all(
            (a.u, a.v, a.phi) == (b.u, b.v, b.phi) for a, b in zip(back.family, data.family)
        )
        ok = ok and len(back.records) == len(data.records)
        for ra, rb in zip(back.records, data.records):
            ok = ok and ra.basis == rb.basis and ra.shots == rb.shots
            ok = ok and np.array_equal(ra.counts, rb.counts)
    _report(9, "counts files round-trip bit-exact on 20 random record sets", ok)
