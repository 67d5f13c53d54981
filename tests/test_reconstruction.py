"""Tests for amplitude extraction, phase systems, solving, and full reconstruction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import purestate.bases as bases
import purestate.reconstruction as reconstruction
from purestate.states import (
    fidelity,
    haar_random,
    make_state,
    named_state,
    random_separable,
)
from purestate.bases import (
    COMPUTATIONAL,
    default_family,
    entangled_id,
    estimation_basis_ids,
    local_id,
    make_qubit_basis,
    outcome_role,
    role_state,
)
from purestate.measurement import (
    CountsRecord,
    ProbTable,
    born_probs,
    exact_record,
    seeded_rng,
    simulate_counts,
    to_empirical,
)
from purestate.reconstruction import (
    AmbiguityError,
    Diagnostics,
    PhaseSystem,
    ReconstructionOptions,
    amplitudes_from_counts,
    build_system,
    estimate_to_dict,
    phase_ls,
    reconstruct,
    reconstruct_from_probs,
    solve_phase,
)


def comp_record(counts, shots):
    return CountsRecord(basis=COMPUTATIONAL, shots=shots, counts=np.asarray(counts))


def exact_tables(state, mode, m):
    fam = default_family(m)
    ids = estimation_basis_ids(state.n, m, mode)
    return [born_probs(state, id, fam) for id in ids]


def sampled_records(state, mode, m, shots, seed, family=None, noise_lambda=0.0):
    ids = estimation_basis_ids(state.n, m, mode)
    family = default_family(m) if family is None else family
    return simulate_counts(state, ids, family, shots, seed=seed, noise_lambda=noise_lambda).records


def role_index(role):
    """Where build_system's probability layout holds an outcome: [a-1, pivot-sign bit, tail bits], a set bit meaning -."""
    tail = sum(1 << q for q, sign in enumerate(reversed(role.tail)) if sign == -1)
    return role.a - 1, int(role.sign0 == -1), tail


def block_probs(st, j, beta, family):
    """Every outcome probability of block (j, beta) in the local bases of family, gathered through outcome_role."""
    probs = np.empty((len(family), 2, 1 << (j - 1)))
    for a, qb in enumerate(family, start=1):
        for k in range(beta << j, (beta + 1) << j):
            role = outcome_role(local_id(a, j), k, st.n)
            probs[role_index(role)] = abs(np.vdot(role_state(st.n, role, qb).amps, st.amps)) ** 2
    return probs


def make_system(rows, rhs, cond=None):
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if cond is None:
        s = np.linalg.svd(rows, compute_uv=False)
        cond = float(s[0] / s[-1]) if len(s) > 1 and s[-1] > 0 else np.inf
    return PhaseSystem(j=1, beta=0, rows=rows, rhs=rhs, cond=cond)


class TestAmplitudesFromCounts:
    def test_point_mass(self):
        c = amplitudes_from_counts(comp_record([8192, 0], 8192), 1)
        assert np.array_equal(c, [1.0, 0.0])

    def test_quarter_split(self):
        c = amplitudes_from_counts(comp_record([2048, 6144], 8192), 1)
        assert np.allclose(c, [0.5, np.sqrt(0.75)], atol=1e-15)

    def test_exact_ghz_probabilities(self):
        table = born_probs(named_state("Phi4", 2), COMPUTATIONAL, default_family(2))
        c = amplitudes_from_counts(exact_record(table), 2)
        s = 1 / np.sqrt(2)
        assert np.allclose(c, [s, 0.0, 0.0, s], atol=1e-12)

    def test_explicit_threshold_clamps_small_probabilities(self):
        c = amplitudes_from_counts(comp_record([8189, 1, 2, 0], 8192), 2, null_threshold=1.5 / 8192)
        assert c[1] == 0.0
        assert c[2] > 0.0

    def test_auto_threshold_keeps_single_counts(self):
        # one observed count is above the 0.5/shots clamp line
        c = amplitudes_from_counts(comp_record([8191, 1], 8192), 1)
        assert c[1] > 0.0

    def test_exact_records_keep_tiny_probabilities(self):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([1.0 - 1e-9, 1e-9]))
        c = amplitudes_from_counts(exact_record(table), 1)
        assert c[1] > 0.0

    def test_wrong_basis_rejected(self):
        rec = CountsRecord(basis=local_id(1, 1), shots=8, counts=np.array([8, 0]))
        with pytest.raises(ValueError):
            amplitudes_from_counts(rec, 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            amplitudes_from_counts(comp_record([8, 0], 8), 2)


class TestBuildSystem:
    def test_unit_children_give_unit_determinant(self):
        # scalar children of modulus 1 turn the m=2 canonical rows into the identity
        fam = default_family(2)
        sys = build_system(1, 0, [1.0], [1.0], [0.5, 0.5], fam)
        assert np.allclose(sys.rows, np.eye(2), atol=1e-12)
        assert np.isclose(np.linalg.det(sys.rows), 1.0, atol=1e-12)
        assert np.isclose(sys.cond, 1.0, atol=1e-12)

    def test_circular_state_first_level_system(self):
        # state (|0> + i|1>)/sqrt(2): P(+_1) = 1/2, P(+_2) = 1, solution (0, 1)
        fam = default_family(2)
        st = make_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        c = np.abs(st.amps)
        probs = [float(born_probs(st, local_id(a, 1), fam).probs[0]) for a in (1, 2)]
        sys = build_system(1, 0, c[:1], c[1:], probs, fam)
        # |c_0 c_1| = 1/2 scales both rows and right-hand sides
        assert np.allclose(sys.rows, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert np.allclose(sys.rhs, [0.0, 0.5], atol=1e-12)
        cos_d, sin_d, flags = solve_phase(sys, ReconstructionOptions())
        assert np.isclose(cos_d, 0.0, atol=1e-12)
        assert np.isclose(sin_d, 1.0, atol=1e-12)
        assert not (flags.fallback or flags.default_phase)

    def test_true_slices_solve_every_sign_pattern(self):
        # children cut straight from the state have relative phase 0, so the
        # exact probabilities must satisfy rows . (1, 0) = rhs for all patterns
        fam = default_family(3)
        st = haar_random(3, seed=17)
        for j, beta in ((1, 2), (2, 1), (3, 0)):
            lo, half = beta << j, 1 << (j - 1)
            probs = block_probs(st, j, beta, fam)
            sys = build_system(j, beta, st.amps[lo : lo + half], st.amps[lo + half : lo + 2 * half], probs, fam)
            assert sys.rows.shape == (3 << j, 2)
            assert np.allclose(sys.rows @ np.array([1.0, 0.0]), sys.rhs, atol=1e-12)

    def test_rows_track_an_injected_relative_phase(self):
        fam = default_family(2)
        st = haar_random(3, seed=23)
        delta = 2.1
        j, beta = 2, 1
        # rotating the stored child by -delta makes delta the true relative phase
        childB = st.amps[6:8] * np.exp(-1j * delta)
        sys = build_system(j, beta, st.amps[4:6], childB, block_probs(st, j, beta, fam), fam)
        x = np.array([np.cos(delta), np.sin(delta)])
        assert np.allclose(sys.rows @ x, sys.rhs, atol=1e-12)
        cos_d, sin_d, _ = solve_phase(sys, ReconstructionOptions())
        assert np.isclose(cos_d, np.cos(delta), atol=1e-10)
        assert np.isclose(sin_d, np.sin(delta), atol=1e-10)

    def test_rows_follow_the_outcome_order(self):
        # the canonical outcome (sign bit 0, tail bits 3) is row 3 of each basis's 8 rows in the full system
        fam = default_family(2)
        st = haar_random(3, seed=29)
        j, beta = 3, 0
        probs = block_probs(st, j, beta, fam)
        full = build_system(j, beta, st.amps[:4], st.amps[4:], probs, fam)
        canon = build_system(j, beta, st.amps[:4], st.amps[4:], probs[:, 0, 3], fam)
        assert np.array_equal(full.rows[[3, 11]], canon.rows)
        assert np.array_equal(full.rhs[[3, 11]], canon.rhs)

    def test_orthogonal_child_yields_zero_information_row(self):
        # childB proportional to |+_1> is invisible through the all-minus tail
        fam = default_family(2)
        qb = fam[0]
        sys = build_system(2, 0, qb.minus_ket(), qb.plus_ket(), [0.4], [qb])
        assert np.allclose(sys.rows[0], [0.0, 0.0], atol=1e-15)
        assert sys.cond == np.inf

    def test_condition_number_matches_svd(self):
        fam = default_family(3)
        rng = np.random.default_rng(31)
        for trial in range(10):
            st = haar_random(2, seed=300 + trial)
            sys = build_system(1, 0, st.amps[:1], st.amps[1:2], rng.uniform(0, 1, size=3), fam)
            s = np.linalg.svd(sys.rows, compute_uv=False)
            assert np.isclose(sys.cond, s[0] / s[1], rtol=1e-9)

    def test_validation_errors(self):
        fam = default_family(2)
        one = [1.0]
        with pytest.raises(ValueError):
            build_system(1, 0, [0.0], one, [0.5, 0.5], fam)  # null child
        with pytest.raises(ValueError):
            build_system(1, 0, one, [0.0], [0.5, 0.5], fam)
        with pytest.raises(ValueError):
            build_system(1, 0, [1.0, 0.0], one, [0.5, 0.5], fam)  # child of the wrong level
        with pytest.raises(ValueError):
            build_system(2, 0, [1.0, 0.0], one, [0.5, 0.5], fam)
        for probs in (np.empty(0), np.empty((2, 2, 2)), np.empty((2, 2)), np.empty((2, 1, 1)), 0.5):
            with pytest.raises(ValueError):
                build_system(1, 0, one, one, probs, fam)
        with pytest.raises(ValueError):
            build_system(1, 0, one, one, [0.5, 0.5], fam[:1])  # more bases than the family


class TestPhaseLs:
    def test_matches_lstsq_on_random_systems(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            rows = rng.normal(size=(k, 2))
            rhs = rng.normal(size=k)
            sys = make_system(rows, rhs)
            expected, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
            assert np.allclose(phase_ls(sys), expected, atol=1e-10)


class TestSolvePhase:
    def test_identity_rows_pass_through(self):
        cos_d, sin_d, flags = solve_phase(make_system(np.eye(2), [0.0, 1.0]), ReconstructionOptions())
        assert (cos_d, sin_d) == pytest.approx((0.0, 1.0), abs=1e-15)
        assert not flags.fallback
        cos_d, sin_d, _ = solve_phase(make_system(np.eye(2), [1.0, 0.0]), ReconstructionOptions())
        assert (cos_d, sin_d) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_least_squares_solution_is_projected_radially(self):
        cos_d, sin_d, flags = solve_phase(make_system(np.eye(2), [0.3, 0.4]), ReconstructionOptions())
        assert (cos_d, sin_d) == pytest.approx((0.6, 0.8), abs=1e-12)
        assert not flags.fallback

    def test_single_row_intersects_the_circle(self):
        cos_d, sin_d, flags = solve_phase(make_system([[1.0, 0.0]], [0.6]), ReconstructionOptions())
        # both intersections share cos = 0.6; the tie breaks to sin >= 0
        assert (cos_d, sin_d) == pytest.approx((0.6, 0.8), abs=1e-12)
        assert flags.fallback and not flags.clamped

    def test_tie_breaks_toward_larger_cosine(self):
        cos_d, sin_d, flags = solve_phase(make_system([[0.0, 1.0]], [0.6]), ReconstructionOptions())
        assert (cos_d, sin_d) == pytest.approx((0.8, 0.6), abs=1e-12)
        assert flags.fallback

    def test_residual_over_remaining_rows_decides(self):
        # second row is too weak to fix the solve but selects the negative branch
        opts = ReconstructionOptions(cond_threshold=100.0)
        sys = make_system([[1.0, 0.0], [0.0, 1e-3]], [0.6, -0.8e-3])
        cos_d, sin_d, flags = solve_phase(sys, opts)
        assert (cos_d, sin_d) == pytest.approx((0.6, -0.8), abs=1e-9)
        assert flags.fallback

    def test_unreachable_rhs_clamps_to_the_nearest_point(self):
        cos_d, sin_d, flags = solve_phase(make_system([[0.5, 0.0]], [0.75]), ReconstructionOptions())
        assert (cos_d, sin_d) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert flags.clamped and flags.fallback
        cos_d, sin_d, flags = solve_phase(make_system([[0.5, 0.0]], [-0.75]), ReconstructionOptions())
        assert (cos_d, sin_d) == pytest.approx((-1.0, 0.0), abs=1e-12)
        assert flags.clamped

    def test_zero_rows_give_flagged_default_phase(self):
        sys = make_system([[0.0, 0.0], [0.0, 0.0]], [0.1, 0.2], cond=np.inf)
        cos_d, sin_d, flags = solve_phase(sys, ReconstructionOptions())
        assert (cos_d, sin_d) == (1.0, 0.0)
        assert flags.default_phase and not flags.fallback

    def test_least_squares_at_origin_gives_default_phase(self):
        cos_d, sin_d, flags = solve_phase(make_system(np.eye(2), [0.0, 0.0]), ReconstructionOptions())
        assert (cos_d, sin_d) == (1.0, 0.0)
        assert flags.default_phase

    def test_fail_policy_raises_with_location(self):
        opts = ReconstructionOptions(ambiguity_policy="fail")
        sys = PhaseSystem(j=3, beta=5, rows=np.array([[1.0, 0.0]]), rhs=np.array([0.6]), cond=np.inf)
        with pytest.raises(AmbiguityError) as err:
            solve_phase(sys, opts)
        assert err.value.j == 3
        assert err.value.beta == 5

    def test_fail_policy_leaves_clean_systems_alone(self):
        opts = ReconstructionOptions(ambiguity_policy="fail")
        cos_d, sin_d, _ = solve_phase(make_system(np.eye(2), [0.6, 0.8]), opts)
        assert (cos_d, sin_d) == pytest.approx((0.6, 0.8), abs=1e-12)

    def test_empty_system_rejected(self):
        sys = PhaseSystem(j=1, beta=0, rows=np.empty((0, 2)), rhs=np.empty(0), cond=np.inf)
        with pytest.raises(ValueError):
            solve_phase(sys, ReconstructionOptions())

    def test_every_solution_lies_on_the_unit_circle(self):
        rng = np.random.default_rng(41)
        opts = ReconstructionOptions()
        for trial in range(200):
            k = int(rng.integers(1, 5))
            rows = rng.normal(size=(k, 2))
            if trial % 3 == 0:
                rows[:, 1] *= 1e-9  # force ill-conditioned fallbacks
            rhs = rng.normal(size=k)
            cos_d, sin_d, _ = solve_phase(make_system(rows, rhs), opts)
            assert abs(np.hypot(cos_d, sin_d) - 1.0) <= 1e-12


class TestReconstructExactStatistics:
    def test_local_mode_recovers_haar_states(self):
        for n in (2, 3, 4):
            st = haar_random(n, seed=500 + n)
            opts = ReconstructionOptions(mode="local", m=2)
            est, diag = reconstruct_from_probs(exact_tables(st, "local", 2), n, opts)
            assert fidelity(st, est) >= 1 - 1e-10
            assert diag.n_fallbacks == 0

    def test_entangled_mode_recovers_haar_states(self):
        for m in (2, 3):
            st = haar_random(3, seed=600 + m)
            opts = ReconstructionOptions(mode="entangled", m=m)
            est, diag = reconstruct_from_probs(exact_tables(st, "entangled", m), 3, opts)
            if diag.n_fallbacks == 0:
                assert fidelity(st, est) >= 1 - 1e-10

    def test_extra_rows_agree_at_infinite_statistics(self):
        st = haar_random(3, seed=77)
        tables = exact_tables(st, "local", 2)
        base, _ = reconstruct_from_probs(tables, 3, ReconstructionOptions(mode="local", m=2))
        extra, _ = reconstruct_from_probs(tables, 3, ReconstructionOptions(mode="local", m=2, use_extra_rows=True))
        assert fidelity(base, extra) >= 1 - 1e-9

    def test_ghz_null_accounting(self):
        # GHZ at n=2: two first-level blocks are half-dead, one real system remains
        st = named_state("Phi4", 2)
        opts = ReconstructionOptions(mode="local", m=2)
        est, diag = reconstruct_from_probs(exact_tables(st, "local", 2), 2, opts)
        assert fidelity(st, est) >= 1 - 1e-10
        assert sorted(diag.null_branches) == [(1, 0), (1, 1)]
        assert list(diag.conds) == [(2, 0)]
        assert len(diag.conds) + diag.n_null_branches == (1 << 2) - 1

    def test_null_child_embeds_with_zero_phase(self):
        # level 2: childA = (0, 0) is null, so childB enters the estimate as solved at level 1
        st = make_state([0.0, 0.0, 0.6, 0.8j])
        est, diag = reconstruct_from_probs(exact_tables(st, "local", 2), 2, ReconstructionOptions(mode="local", m=2))
        assert np.allclose(est.amps, st.amps, atol=1e-12)
        assert diag.null_branches == [(1, 0), (2, 0)]
        assert list(diag.phases) == [(1, 1)]

    def test_reconstruct_from_probs_equals_exact_records(self):
        st = haar_random(3, seed=88)
        tables = exact_tables(st, "local", 2)
        opts = ReconstructionOptions(mode="local", m=2)
        a, _ = reconstruct_from_probs(tables, 3, opts)
        b, _ = reconstruct([exact_record(t) for t in tables], 3, opts)
        assert np.array_equal(a.amps, b.amps)


class TestReconstructSampled:
    def test_deterministic_bit_identical(self):
        st = haar_random(3, seed=91)
        records = sampled_records(st, "local", 2, 8192, seed=14)
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        a, _ = reconstruct(records, 3, opts)
        b, _ = reconstruct(records, 3, opts)
        assert np.array_equal(a.amps, b.amps)

    def test_output_is_normalized_with_positive_pivot(self):
        for mode, m in (("local", 2), ("entangled", 2)):
            st = haar_random(3, seed=97)
            records = sampled_records(st, mode, m, 4096, seed=15)
            est, diag = reconstruct(records, 3, ReconstructionOptions(mode=mode, m=m))
            assert abs(np.linalg.norm(est.amps) - 1.0) <= 1e-12
            pivot = est.amps[np.flatnonzero(np.abs(est.amps) > 1e-10)[0]]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0
            for cos_d, sin_d in diag.phases.values():
                assert abs(np.hypot(cos_d, sin_d) - 1.0) <= 1e-12

    def test_extra_rows_rescue_a_collapsed_run(self):
        # with canonical rows only, one bad low-level phase poisons the merge tree
        st = haar_random(5, seed=3)
        records = sampled_records(st, "local", 2, 8192, seed=3)
        base, _ = reconstruct(records, 5, ReconstructionOptions(mode="local", m=2))
        extra, _ = reconstruct(records, 5, ReconstructionOptions(mode="local", m=2, use_extra_rows=True))
        f_base = fidelity(st, base)
        f_extra = fidelity(st, extra)
        assert f_extra > 0.9
        assert f_extra >= f_base - 1e-9

    def test_accounting_invariant_across_runs(self):
        for n, mode, m, seed in ((2, "local", 2, 1), (3, "local", 3, 2), (3, "entangled", 2, 3), (4, "local", 2, 4)):
            st = haar_random(n, seed=700 + seed)
            records = sampled_records(st, mode, m, 2048, seed=seed)
            _, diag = reconstruct(records, n, ReconstructionOptions(mode=mode, m=m))
            assert len(diag.conds) + diag.n_null_branches == (1 << n) - 1
            assert set(diag.fallbacks).isdisjoint(diag.default_phases)
            assert set(diag.conds) == set(diag.phases)

    def test_dead_blocks_stay_dead(self):
        st = make_state([0.8, 0.0, 0.6, 0.0])
        records = sampled_records(st, "local", 2, 4096, seed=21)
        est, diag = reconstruct(records, 2, ReconstructionOptions(mode="local", m=2))
        assert est.amps[1] == 0.0
        assert est.amps[3] == 0.0
        assert fidelity(st, est) > 0.99
        assert diag.n_null_branches == 2

    def test_missing_record_rejected(self):
        st = haar_random(2, seed=31)
        records = sampled_records(st, "local", 2, 1024, seed=5)
        with pytest.raises(ValueError):
            reconstruct(records[:-1], 2, ReconstructionOptions(mode="local", m=2))

    def test_missing_computational_record_rejected(self):
        st = haar_random(2, seed=31)
        records = sampled_records(st, "local", 2, 1024, seed=5)
        with pytest.raises(ValueError):
            reconstruct(records[1:], 2, ReconstructionOptions(mode="local", m=2))

    def test_wrong_record_length_rejected(self):
        st = haar_random(2, seed=31)
        records = sampled_records(st, "local", 2, 1024, seed=5)
        with pytest.raises(ValueError):
            reconstruct(records, 3, ReconstructionOptions(mode="local", m=2))

    def test_fail_policy_surfaces_ambiguous_systems(self):
        # a condition threshold at the floor forces every solve onto the fallback path
        st = haar_random(2, seed=37)
        records = sampled_records(st, "entangled", 2, 2048, seed=6)
        opts = ReconstructionOptions(mode="entangled", m=2, cond_threshold=1.0, ambiguity_policy="fail")
        with pytest.raises(AmbiguityError):
            reconstruct(records, 2, opts)

    def test_residual_pick_still_returns_a_state_under_the_same_threshold(self):
        st = haar_random(2, seed=37)
        records = sampled_records(st, "entangled", 2, 2048, seed=6)
        opts = ReconstructionOptions(mode="entangled", m=2, cond_threshold=1.0)
        est, diag = reconstruct(records, 2, opts)
        assert abs(np.linalg.norm(est.amps) - 1.0) <= 1e-12
        # every system above the floor threshold went down the fallback path
        above = [key for key, v in diag.conds.items() if v > 1.0]
        assert above
        assert sorted(diag.fallbacks) == sorted(above)


class TestRowMonotonicity:
    def test_adding_rows_never_improves_the_shared_fit(self):
        # x_can minimizes the canonical rows, x_ext the extended rows; each is
        # optimal for its own objective
        fam = default_family(2)
        st = haar_random(3, seed=101)
        records = sampled_records(st, "local", 2, 1024, seed=7)
        emp = {str(r.basis): to_empirical(r) for r in records}
        j, beta = 2, 0
        probs = np.stack([emp[str(local_id(a, j))][:4].reshape(2, 2) for a in (1, 2)])
        sys_can = build_system(j, beta, st.amps[0:2], st.amps[2:4], probs[:, 0, 1], fam)
        sys_ext = build_system(j, beta, st.amps[0:2], st.amps[2:4], probs, fam)
        x_can = phase_ls(sys_can)
        x_ext = phase_ls(sys_ext)

        def resid(sys, x):
            return float(np.sum((sys.rows @ x - sys.rhs) ** 2))

        assert resid(sys_ext, x_ext) <= resid(sys_ext, x_can) + 1e-12
        assert resid(sys_can, x_can) <= resid(sys_can, x_ext) + 1e-12


class TestDiagnosticsSerialization:
    def test_infinite_conditions_become_strings(self):
        diag = Diagnostics(n=2)
        diag.conds[(1, 0)] = 2.5
        diag.conds[(2, 0)] = np.inf
        diag.null_branches.append((1, 1))
        diag.fallbacks.append((2, 0))
        diag.default_phases.append((1, 0))
        obj = diag.to_dict()
        assert obj["cond"]["1,0"] == 2.5
        assert obj["cond"]["2,0"] == "inf"
        assert obj["fallbacks"] == 1
        assert obj["null_branches"] == 1
        assert obj["default_phases"] == 1
        json.dumps(obj)  # must be serializable as-is

    def test_estimate_dict_shape(self):
        st = haar_random(2, seed=111)
        records = sampled_records(st, "local", 2, 1024, seed=9)
        est, diag = reconstruct(records, 2, ReconstructionOptions(mode="local", m=2))
        obj = estimate_to_dict(est, diag)
        assert set(obj) == {"n", "amps", "diagnostics"}
        assert set(obj["diagnostics"]) == {"cond", "fallbacks", "null_branches", "default_phases"}
        assert obj["diagnostics"]["default_phases"] == diag.n_default_phases
        assert len(obj["amps"]) == 4
        json.dumps(obj)


class TestOptionsValidation:
    def test_mode_and_policy_choices(self):
        with pytest.raises(ValueError):
            ReconstructionOptions(mode="global")
        with pytest.raises(ValueError):
            ReconstructionOptions(ambiguity_policy="guess")

    def test_family_size_floor(self):
        with pytest.raises(ValueError):
            ReconstructionOptions(m=1)
        with pytest.raises(ValueError):
            ReconstructionOptions(m=3, family=tuple(default_family(2)))

    def test_threshold_signs(self):
        with pytest.raises(ValueError):
            ReconstructionOptions(null_threshold=0.0)
        with pytest.raises(ValueError):
            ReconstructionOptions(cond_threshold=0.0)

    def test_default_family_resolution(self):
        opts = ReconstructionOptions(m=3)
        fam = opts.resolved_family()
        assert len(fam) == 3
        assert fam[1].phi == pytest.approx(np.pi / 3, abs=1e-15)


def reference_reconstruct(records, n, opts):
    """The per-block estimator: one build_system + solve_phase per non-null block, in (j, beta) order.

    reconstruct must agree with it: same null / fallback / default-phase
    lists, same systems, and the same amplitudes up to rounding.
    """
    family = opts.resolved_family()
    emp = {str(rec.basis): to_empirical(rec) for rec in records}
    work = amplitudes_from_counts(next(r for r in records if r.basis == COMPUTATIONAL), n, opts.null_threshold)
    work = work.astype(np.complex128)
    diag = Diagnostics(n=n)
    for j in range(1, n + 1):
        half = 1 << (j - 1)
        for beta in range(1 << (n - j)):
            lo = beta << j
            if not work[lo : lo + half].any() or not work[lo + half : lo + 2 * half].any():
                diag.null_branches.append((j, beta))
                continue
            # every outcome this block reads, placed through outcome_role rather than the kernel's gather
            extra = opts.mode == "local" and opts.use_extra_rows
            probs = np.empty((opts.m, 2, half) if extra else opts.m)
            for a in range(1, opts.m + 1):
                if opts.mode == "local":
                    id = local_id(a, j)
                    ks = range(lo, lo + 2 * half) if extra else [lo + half - 1]
                else:
                    id = entangled_id(a)
                    ks = [(1 << n) - (1 << (n - j + 1)) + beta]
                for k in ks:
                    role = outcome_role(id, k, n)
                    assert (role.j, role.beta, role.a) == (j, beta, a)
                    assert extra or role.is_canonical
                    probs[role_index(role) if extra else a - 1] = emp[str(id)][k]
            sys = build_system(j, beta, work[lo : lo + half], work[lo + half : lo + 2 * half], probs, family)
            cos_d, sin_d, flags = solve_phase(sys, opts)
            diag.conds[(j, beta)] = sys.cond
            diag.phases[(j, beta)] = (cos_d, sin_d)
            if flags.fallback:
                diag.fallbacks.append((j, beta))
            if flags.default_phase:
                diag.default_phases.append((j, beta))
            work[lo + half : lo + 2 * half] *= cos_d + 1j * sin_d
    work /= np.linalg.norm(work)
    idx = np.flatnonzero(np.abs(work) > 1e-10)[0]
    return work * (abs(work[idx]) / work[idx]), diag


def assert_matches_reference(records, n, opts, amp_tol):
    est, diag = reconstruct(records, n, opts)
    ref_amps, ref = reference_reconstruct(records, n, opts)
    assert diag.null_branches == ref.null_branches
    assert diag.fallbacks == ref.fallbacks
    assert diag.default_phases == ref.default_phases
    assert list(diag.conds) == list(ref.conds)
    assert list(diag.phases) == list(ref.phases)
    for key, want in ref.conds.items():
        got = diag.conds[key]
        assert type(got) is float
        # a Gram-based condition number carries a relative rounding error of about eps * cond^2
        big = max(got, want)
        assert got == want or abs(got - want) <= (1e-8 + 64 * np.finfo(float).eps * big**2) * big, (key, got, want)
    for cos_d, sin_d in diag.phases.values():
        assert type(cos_d) is float and type(sin_d) is float
    assert np.max(np.abs(est.amps - ref_amps)) <= amp_tol
    return diag


UNBALANCED = (
    make_qubit_basis(0.6, 0.8, 0.4),
    make_qubit_basis(0.8, 0.6, 2.0),
    make_qubit_basis(np.sqrt(0.3), np.sqrt(0.7), 4.1),
)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["local", "entangled"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_haar_exact_and_sampled(self, n, mode, m, extra):
        st = haar_random(n, seed=1000 + 10 * n + m)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=extra)
        exact = [exact_record(t) for t in exact_tables(st, mode, m)]
        assert_matches_reference(exact, n, opts, 1e-12)
        assert_matches_reference(sampled_records(st, mode, m, 2048, seed=n + m), n, opts, 1e-9)

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unbalanced_family_keeps_canonical_scaling(self, n, extra):
        # u != v makes the canonical rows' 1/(2uv) weight visible in conds and solutions
        st = haar_random(n, seed=1100 + n)
        opts = ReconstructionOptions(mode="local", m=3, family=UNBALANCED, use_extra_rows=extra)
        exact = [exact_record(born_probs(st, id, list(UNBALANCED))) for id in estimation_basis_ids(n, 3, "local")]
        assert_matches_reference(exact, n, opts, 1e-12)
        records = sampled_records(st, "local", 3, 1024, seed=n, family=list(UNBALANCED))
        assert_matches_reference(records, n, opts, 1e-9)

    @pytest.mark.parametrize("kind", ["Phi1", "Phi2", "Phi3", "Phi4", "separable"])
    @pytest.mark.parametrize("mode", ["local", "entangled"])
    def test_structured_states_through_the_flagged_path(self, kind, mode):
        flagged = 0
        for n in (4, 5, 6):
            st = random_separable(n, seed=n) if kind == "separable" else named_state(kind, n)
            for extra in (False, True):
                opts = ReconstructionOptions(mode=mode, m=2, use_extra_rows=extra)
                exact = [exact_record(t) for t in exact_tables(st, mode, 2)]
                diag = assert_matches_reference(exact, n, opts, 1e-12)
                flagged += diag.n_fallbacks + diag.n_default_phases
                for lam in (0.0, 0.06):
                    records = sampled_records(st, mode, 2, 1024, seed=n, noise_lambda=lam)
                    diag = assert_matches_reference(records, n, opts, 1e-9)
                    flagged += diag.n_fallbacks + diag.n_default_phases
        if kind in ("Phi3", "Phi4"):
            assert flagged > 0

    @pytest.mark.parametrize("threshold", [1.0, 2.0, 5.0, 20.0, 1e9, np.inf])
    def test_fail_policy_raises_at_the_same_block(self, threshold):
        raised = 0
        for seed in range(6):
            st = haar_random(5, seed=1200 + seed)
            records = sampled_records(st, "local", 2, 1024, seed=seed)
            opts = ReconstructionOptions(mode="local", m=2, cond_threshold=threshold, ambiguity_policy="fail")
            try:
                reference_reconstruct(records, 5, opts)
            except AmbiguityError as e:
                with pytest.raises(AmbiguityError) as got:
                    reconstruct(records, 5, opts)
                assert (got.value.j, got.value.beta) == (e.j, e.beta)
                raised += 1
            else:
                assert_matches_reference(records, 5, opts, 1e-9)
        if threshold < 5.0:
            assert raised > 0

    def test_per_block_path_runs_only_for_flagged_blocks(self, monkeypatch):
        calls = []
        build = reconstruction.build_system
        monkeypatch.setattr(reconstruction, "build_system", lambda *a, **k: calls.append(a[:2]) or build(*a, **k))
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        st = haar_random(6, seed=1300)
        reconstruct_from_probs(exact_tables(st, "local", 2), 6, opts)
        assert calls == []
        _, diag = reconstruct_from_probs(exact_tables(named_state("Phi3", 6), "local", 2), 6, opts)
        assert diag.fallbacks
        assert calls == sorted(diag.fallbacks + diag.default_phases)

    @pytest.mark.parametrize("threshold", [1e9, 1e12, np.inf])
    def test_thresholds_above_the_default(self, threshold, monkeypatch):
        # a large (or infinite) threshold must neither flood the per-block path nor change any result
        calls = []
        build = reconstruction.build_system
        monkeypatch.setattr(reconstruction, "build_system", lambda *a, **k: calls.append(a[:2]) or build(*a, **k))
        for extra in (False, True):
            opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=extra, cond_threshold=threshold)
            for seed in range(3):
                st = haar_random(6, seed=1400 + seed)
                reconstruct_from_probs(exact_tables(st, "local", 2), 6, opts)
                reconstruct(sampled_records(st, "local", 2, 2048, seed=seed), 6, opts)
        assert calls == []
        for extra in (False, True):
            opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=extra, cond_threshold=threshold)
            for kind in ("Phi3", "Phi4"):
                st = named_state(kind, 6)
                assert_matches_reference([exact_record(t) for t in exact_tables(st, "local", 2)], 6, opts, 1e-12)
                assert_matches_reference(sampled_records(st, "local", 2, 1024, seed=6, noise_lambda=0.06), 6, opts, 1e-9)
            st = haar_random(5, seed=1410)
            assert_matches_reference([exact_record(t) for t in exact_tables(st, "local", 2)], 5, opts, 1e-12)

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("kind", ["Phi3", "Phi4"])
    def test_flagged_blocks_never_decode_outcome_roles(self, kind, extra, monkeypatch):
        # flagged blocks take their rows from the level's gathered probabilities
        st = named_state(kind, 6)
        records = sampled_records(st, "local", 2, 1024, seed=6, noise_lambda=0.06)
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=extra, cond_threshold=5.0)
        ref_amps, ref = reference_reconstruct(records, 6, opts)

        def no_decoding(*args):
            raise AssertionError("outcome_role called")

        for module in (bases, reconstruction):
            monkeypatch.setattr(module, "outcome_role", no_decoding, raising=False)
        est, diag = reconstruct(records, 6, opts)
        assert diag.fallbacks == ref.fallbacks and diag.fallbacks
        assert np.max(np.abs(est.amps - ref_amps)) <= 1e-9

    def test_no_module_level_caches(self):
        state = [k for k, v in vars(reconstruction).items() if not k.startswith("__") and isinstance(v, (dict, list, set))]
        assert state == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 6),
        shots=hst.integers(1, 20000),
        m=hst.integers(2, 4),
        mode=hst.sampled_from(["local", "entangled"]),
        extra=hst.booleans(),
    )
    def test_random_haar_data(self, seed, n, shots, m, mode, extra):
        st = haar_random(n, seed=seed)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=extra)
        assert_matches_reference(sampled_records(st, mode, m, shots, seed=seed), n, opts, 1e-9)


class TestLargeSystems:
    def test_exact_recovery_at_sixteen_qubits_with_extra_rows(self):
        st = haar_random(16, seeded_rng(100000, (16, 0)))
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        est, diag = reconstruct_from_probs(exact_tables(st, "local", 2), 16, opts)
        assert fidelity(st, est) >= 1 - 1e-8
        assert len(diag.conds) + diag.n_null_branches == (1 << 16) - 1
