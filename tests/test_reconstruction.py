"""Tests for amplitude extraction, phase systems, solving, and full reconstruction."""

import json
import tracemalloc
from functools import reduce

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
    QubitBasis,
    default_family,
    estimation_basis_ids,
    local_id,
    make_qubit_basis,
)
from purestate.benchmark import bootstrap_ci
from purestate.measurement import (
    CountsData,
    CountsRecord,
    ProbTable,
    born_probs,
    counts_to_dict,
    exact_record,
    read_counts,
    seeded_rng,
    simulate_counts,
    to_empirical,
    write_counts,
)
from purestate.reconstruction import (
    AmbiguityError,
    Diagnostics,
    Level,
    ReconstructionOptions,
    amplitudes_from_counts,
    build_system,
    estimate_to_dict,
    reconstruct,
    reconstruct_from_probs,
    solve_phase,
)
from reference import block_probs, reference_reconstruct, solve_one


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


def transforms(family, extra, *children):
    """Each child's transform for every basis of family, from dense Kronecker products.

    A child of 2^k amplitudes maps to (m, 2^k), U_a^dagger^{x k} child, with
    extra rows, else to (m,), <-_a|^{x k} child.
    """
    out = []
    for child in children:
        child = np.asarray(child, dtype=np.complex128)
        k = child.size.bit_length() - 1
        factors = [qb.unitary().conj().T if extra else qb.minus_ket().conj()[None] for qb in family]
        mats = [reduce(np.kron, [f] * k, np.eye(1)) for f in factors]
        out.append(np.array([M @ child if extra else (M @ child)[0] for M in mats]))
    return out


def build_from_children(j, beta, childA, childB, probs, family):
    """build_system on the block's raw children, transformed from scratch for the bases probs covers."""
    ta, tb = transforms(family[: len(probs)], np.ndim(probs) == 3, childA, childB)
    return build_system(j, beta, ta, tb, probs, family)


UNBALANCED = (
    make_qubit_basis(0.6, 0.8, 0.4),
    make_qubit_basis(0.8, 0.6, 2.0),
    make_qubit_basis(np.sqrt(0.3), np.sqrt(0.7), 4.1),
)


def make_system(rows, rhs):
    """The (3, 1, k) rows of one block whose k equations are rows (k, 2) . x = rhs (k,)."""
    rows = np.asarray(rows, dtype=float)
    return np.vstack([rows.T, rhs])[:, None]


def stack_systems(systems):
    """The rows of single-block systems that share k, stacked as one level's blocks."""
    return np.concatenate(systems, axis=1)


def level_one_failure(monkeypatch, sys, n, betas):
    """reconstruct under ambiguity_policy='fail', level 1's live blocks betas solved as sys by a stubbed solve_phase.

    The AmbiguityError's (j, beta, message), or None when reconstruct returns.
    """
    amps = np.zeros((1 << (n - 1), 2))
    amps[betas] = 1.0
    st = make_state(amps / np.linalg.norm(amps))
    records = [exact_record(t) for t in exact_tables(st, "local", 2)]
    monkeypatch.setattr(reconstruction, "solve_phase", lambda rows, threshold: solve_phase(sys, threshold))
    try:
        reconstruct(records, n, ReconstructionOptions(ambiguity_policy="fail"))
    except AmbiguityError as e:
        return e.j, e.beta, str(e)
    return None


def rows_of(sys):
    """The (k, 2) rows of a one-block system."""
    return sys[:2, 0].T


def rhs_of(sys):
    return sys[2, 0]


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
        sys = build_from_children(1, 0, [1.0], [1.0], [0.5, 0.5], fam)
        assert sys.shape == (3, 1, 2)
        assert np.allclose(rows_of(sys), np.eye(2), atol=1e-12)
        assert np.isclose(np.linalg.det(rows_of(sys)), 1.0, atol=1e-12)
        assert np.isclose(solve_one(sys)[4], 1.0, atol=1e-12)

    def test_circular_state_first_level_system(self):
        # state (|0> + i|1>)/sqrt(2): P(+_1) = 1/2, P(+_2) = 1, solution (0, 1)
        fam = default_family(2)
        st = make_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        c = np.abs(st.amps)
        probs = [float(born_probs(st, local_id(a, 1), fam).probs[0]) for a in (1, 2)]
        sys = build_from_children(1, 0, c[:1], c[1:], probs, fam)
        # |c_0 c_1| = 1/2 scales both rows and right-hand sides
        assert np.allclose(rows_of(sys), [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert np.allclose(rhs_of(sys), [0.0, 0.5], atol=1e-12)
        cos_d, sin_d, fallback, default, _ = solve_one(sys)
        assert np.isclose(cos_d, 0.0, atol=1e-12)
        assert np.isclose(sin_d, 1.0, atol=1e-12)
        assert not (fallback or default)

    @pytest.mark.parametrize("fam", [default_family(3), list(UNBALANCED)], ids=["balanced", "unbalanced"])
    def test_true_slices_solve_every_sign_pattern(self, fam):
        # children cut straight from the state have relative phase 0, so the
        # exact probabilities must satisfy rows . (1, 0) = rhs for all patterns;
        # with u != v this also pins the canonical rows' 1/(2uv) weight
        st = haar_random(3, seed=17)
        for j, beta in ((1, 2), (2, 1), (3, 0)):
            lo, half = beta << j, 1 << (j - 1)
            probs = block_probs(st, j, beta, fam)
            sys = build_from_children(j, beta, st.amps[lo : lo + half], st.amps[lo + half : lo + 2 * half], probs, fam)
            assert sys.shape == (3, 1, 3 << j)
            assert np.allclose(rows_of(sys) @ np.array([1.0, 0.0]), rhs_of(sys), atol=1e-12)

    @pytest.mark.parametrize("fam", [default_family(2), list(UNBALANCED)], ids=["balanced", "unbalanced"])
    def test_rows_track_an_injected_relative_phase(self, fam):
        st = haar_random(3, seed=23)
        delta = 2.1
        j, beta = 2, 1
        # rotating the stored child by -delta makes delta the true relative phase
        childB = st.amps[6:8] * np.exp(-1j * delta)
        sys = build_from_children(j, beta, st.amps[4:6], childB, block_probs(st, j, beta, fam), fam)
        x = np.array([np.cos(delta), np.sin(delta)])
        assert np.allclose(rows_of(sys) @ x, rhs_of(sys), atol=1e-12)
        cos_d, sin_d, *_ = solve_one(sys)
        assert np.isclose(cos_d, np.cos(delta), atol=1e-10)
        assert np.isclose(sin_d, np.sin(delta), atol=1e-10)

    def test_rows_follow_the_outcome_order(self):
        # the canonical outcome (sign bit 0, tail bits 3) is row 3 of each basis's 8 rows in the full system
        fam = default_family(2)
        st = haar_random(3, seed=29)
        j, beta = 3, 0
        probs = block_probs(st, j, beta, fam)
        ta, tb = transforms(fam, True, st.amps[:4], st.amps[4:])
        full = build_system(j, beta, ta, tb, probs, fam)
        # the all-minus tail entry of the full transform is the canonical outcome's
        canon = build_system(j, beta, ta[:, 3], tb[:, 3], probs[:, 0, 3], fam)
        assert np.array_equal(full[:, :, [3, 11]], canon)

    def test_orthogonal_child_yields_zero_information_row(self):
        # childB proportional to |+_1> is invisible through the all-minus tail
        fam = default_family(2)
        qb = fam[0]
        sys = build_from_children(2, 0, qb.minus_ket(), qb.plus_ket(), [0.4], [qb])
        assert np.allclose(rows_of(sys)[0], [0.0, 0.0], atol=1e-15)
        assert solve_one(sys)[4] == np.inf

    def test_condition_number_matches_svd(self):
        fam = default_family(3)
        rng = np.random.default_rng(31)
        for trial in range(10):
            st = haar_random(2, seed=300 + trial)
            sys = build_from_children(1, 0, st.amps[:1], st.amps[1:2], rng.uniform(0, 1, size=3), fam)
            s = np.linalg.svd(rows_of(sys), compute_uv=False)
            assert np.isclose(solve_one(sys)[4], s[0] / s[1], rtol=1e-9)

    def test_validation_errors(self):
        fam = default_family(2)
        one = np.ones(2)
        wrong = ((np.ones(1), one), (one, np.ones(3)), (np.ones((2, 1)), one), (np.ones((2, 2)), np.ones((2, 2))))
        for ta, tb in wrong:
            with pytest.raises(ValueError, match="transforms of block"):  # not (m,) for canonical rows
                build_system(1, 0, ta, tb, [0.5, 0.5], fam)
        with pytest.raises(ValueError, match="transforms of block"):  # extra rows at j=2 need (m, 2)
            build_system(2, 0, one, one, np.full((2, 2, 2), 0.25), fam)
        with pytest.raises(ValueError, match="transforms of block"):
            build_system(2, 0, np.ones((2, 1)), np.ones((2, 1)), np.full((2, 2, 2), 0.25), fam)
        for probs in (np.empty(0), np.empty((2, 2, 2)), np.empty((2, 2)), np.empty((2, 1, 1)), 0.5):
            with pytest.raises(ValueError, match="probabilities of shape"):
                build_system(1, 0, one, one, probs, fam)
        with pytest.raises(ValueError, match="the family has 1"):
            build_system(1, 0, one, one, [0.5, 0.5], fam[:1])  # more bases than the family

    def test_null_transforms_give_zero_rows(self):
        # a zero transform pins nothing: every row is zero, and solve_phase gives the default phase
        fam = default_family(2)
        sys = build_system(1, 0, np.zeros(2), np.ones(2), [0.5, 0.5], fam)
        assert np.array_equal(rows_of(sys), np.zeros((2, 2)))
        assert solve_one(sys)[3]


class TestSolvePhase:
    def test_identity_rows_pass_through(self):
        cos_d, sin_d, fallback, _, _ = solve_one(make_system(np.eye(2), [0.0, 1.0]))
        assert (cos_d, sin_d) == pytest.approx((0.0, 1.0), abs=1e-15)
        assert not fallback
        cos_d, sin_d, *_ = solve_one(make_system(np.eye(2), [1.0, 0.0]))
        assert (cos_d, sin_d) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_least_squares_solution_is_projected_radially(self):
        cos_d, sin_d, fallback, _, _ = solve_one(make_system(np.eye(2), [0.3, 0.4]))
        assert (cos_d, sin_d) == pytest.approx((0.6, 0.8), abs=1e-12)
        assert not fallback
        # random overdetermined systems: the direction of np.linalg.lstsq's solution
        rng = np.random.default_rng(37)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            rows = rng.normal(size=(k, 2))
            rhs = rng.normal(size=k)
            expected, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
            cos_d, sin_d, fallback, default, _ = solve_one(make_system(rows, rhs))
            assert not (fallback or default)
            assert np.allclose((cos_d, sin_d), expected / np.hypot(*expected), atol=1e-10)

    def test_single_row_intersects_the_circle(self):
        cos_d, sin_d, fallback, _, _ = solve_one(make_system([[1.0, 0.0]], [0.6]))
        # both intersections share cos = 0.6; the tie breaks to sin >= 0
        assert (cos_d, sin_d) == pytest.approx((0.6, 0.8), abs=1e-12)
        assert fallback

    def test_tie_breaks_toward_larger_cosine(self):
        cos_d, sin_d, fallback, _, _ = solve_one(make_system([[0.0, 1.0]], [0.6]))
        assert (cos_d, sin_d) == pytest.approx((0.8, 0.6), abs=1e-12)
        assert fallback

    def test_residual_over_remaining_rows_decides(self):
        # second row is too weak to fix the solve but selects the negative branch
        opts = ReconstructionOptions(cond_threshold=100.0)
        sys = make_system([[1.0, 0.0], [0.0, 1e-3]], [0.6, -0.8e-3])
        cos_d, sin_d, fallback, _, _ = solve_one(sys, opts)
        assert (cos_d, sin_d) == pytest.approx((0.6, -0.8), abs=1e-9)
        assert fallback

    def test_unreachable_rhs_clamps_to_the_nearest_point(self):
        cos_d, sin_d, fallback, _, _ = solve_one(make_system([[0.5, 0.0]], [0.75]))
        assert (cos_d, sin_d) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert fallback
        cos_d, sin_d, *_ = solve_one(make_system([[0.5, 0.0]], [-0.75]))
        assert (cos_d, sin_d) == pytest.approx((-1.0, 0.0), abs=1e-12)

    def test_zero_rows_give_a_default_phase(self):
        cos_d, sin_d, fallback, default, cond = solve_one(make_system([[0.0, 0.0], [0.0, 0.0]], [0.1, 0.2]))
        assert (cos_d, sin_d) == (1.0, 0.0)
        assert default and not fallback
        assert cond == np.inf

    def test_least_squares_at_origin_gives_default_phase(self):
        cos_d, sin_d, _, default, _ = solve_one(make_system(np.eye(2), [0.0, 0.0]))
        assert (cos_d, sin_d) == (1.0, 0.0)
        assert default

    def test_fail_policy_raises_with_location(self):
        # solve_phase flags the block; reconstruct raises with its level and block index
        _, _, fallback, default = solve_phase(make_system([[1.0, 0.0]], [0.6]), ReconstructionOptions().cond_threshold)
        assert fallback.tolist() == [True] and default.tolist() == [False]
        # block (2, 1)'s B child is |+_2>, orthogonal to <-_2|: its canonical rows have rank 1
        amps = np.array([0.3, 0.2j, 0.4, -0.1, 0.3, 0.5j, 0.6, 0.6j])
        st = make_state(amps / np.linalg.norm(amps))
        records = [exact_record(t) for t in exact_tables(st, "local", 2)]
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=False, ambiguity_policy="fail")
        with pytest.raises(AmbiguityError) as err:
            reconstruct(records, 3, opts)
        assert err.value.j == 2
        assert err.value.beta == 1
        assert "condition number inf above threshold" in str(err.value)

    def test_fail_policy_raises_at_the_first_ill_conditioned_block(self, monkeypatch):
        # zero rows come first but get the default phase; the raise names the next block
        plain = make_system(np.eye(2), [0.6, 0.8])
        zero = make_system(np.zeros((2, 2)), [0.1, 0.2])
        ill = make_system([[1.0, 0.0], [2.0, 0.0]], [0.6, 1.2])
        sys = stack_systems([plain, zero, ill, ill])
        threshold = ReconstructionOptions().cond_threshold
        _, _, fallback, default = solve_phase(sys, threshold)
        assert fallback.tolist() == [False, False, True, True] and default.tolist() == [False, True, False, False]
        # level 1 of n = 4 with live blocks 2, 3, 5 and 7: the raise names block 5
        j, beta, message = level_one_failure(monkeypatch, sys, 4, [2, 3, 5, 7])
        assert (j, beta) == (1, 5)
        assert "condition number inf above threshold" in message
        _, _, fallback, default = solve_phase(stack_systems([plain, zero, plain]), threshold)
        assert default.tolist() == [False, True, False] and not fallback.any()

    def test_fail_policy_leaves_clean_systems_alone(self, monkeypatch):
        cos_d, sin_d, fallback, default, _ = solve_one(make_system(np.eye(2), [0.6, 0.8]))
        assert (cos_d, sin_d) == pytest.approx((0.6, 0.8), abs=1e-12)
        assert not (fallback or default)
        assert level_one_failure(monkeypatch, make_system(np.eye(2), [0.6, 0.8]), 1, [0]) is None

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            solve_phase(np.empty((3, 1, 0)), ReconstructionOptions().cond_threshold)

    def test_every_solution_lies_on_the_unit_circle(self):
        rng = np.random.default_rng(41)
        opts = ReconstructionOptions()
        for trial in range(200):
            k = int(rng.integers(1, 5))
            rows = rng.normal(size=(k, 2))
            if trial % 3 == 0:
                rows[:, 1] *= 1e-9  # force ill-conditioned fallbacks
            rhs = rng.normal(size=k)
            cos_d, sin_d, *_ = solve_one(make_system(rows, rhs), opts)
            assert abs(np.hypot(cos_d, sin_d) - 1.0) <= 1e-12

    @pytest.mark.parametrize("threshold", [100.0, np.inf])
    def test_a_batch_mixing_every_branch_solves_each_block_as_alone(self, threshold):
        systems = {
            "least squares": make_system(np.eye(2), [0.3, 0.4]),
            "zero rows": make_system(np.zeros((2, 2)), [0.1, 0.2]),
            "at the origin": make_system(np.eye(2), [0.0, 0.0]),
            "rank-deficient": make_system([[1.0, 0.0], [2.0, 0.0]], [0.6, 1.2]),
            "overflowing Gram determinant": make_system(1e100 * np.eye(2), [0.6e100, 0.8e100]),
            "clamped": make_system([[0.5, 0.0], [0.0, 0.0]], [0.75, 0.0]),
            "two candidates": make_system([[1.0, 0.0], [0.0, 1e-3]], [0.6, -0.8e-3]),
            "cosine tie": make_system([[0.0, 1.0], [0.0, 0.0]], [0.6, 0.0]),
        }
        opts = ReconstructionOptions(cond_threshold=threshold)
        batch = solve_phase(stack_systems(list(systems.values())), opts.cond_threshold)
        for i, (name, sys) in enumerate(systems.items()):
            alone = solve_phase(sys, opts.cond_threshold)
            for got, want in zip(batch, alone):
                assert got[i] == want[0] and type(got[i]) is type(want[0]), name
        cond, phase, fallback, default = batch
        cos_d, sin_d = phase.real, phase.imag
        paths = {name: ("fallback" if f else "default" if d else "ls") for name, f, d in zip(systems, fallback, default)}
        expected = {
            "least squares": ("ls", 0.6, 0.8),
            "zero rows": ("default", 1.0, 0.0),
            "at the origin": ("default", 1.0, 0.0),
            "overflowing Gram determinant": ("ls", 0.6, 0.8),
        }
        if threshold == np.inf:
            # every nonzero system is solved by least squares; rank deficiency goes through np.linalg.lstsq
            expected |= {
                "rank-deficient": ("ls", 1.0, 0.0),
                "clamped": ("ls", 1.0, 0.0),
                "two candidates": ("ls", 0.6, -0.8),
                "cosine tie": ("ls", 0.0, 1.0),
            }
        else:
            expected |= {
                "rank-deficient": ("fallback", 0.6, 0.8),
                "clamped": ("fallback", 1.0, 0.0),
                "two candidates": ("fallback", 0.6, -0.8),
                "cosine tie": ("fallback", 0.8, 0.6),
            }
        for i, name in enumerate(systems):
            path, c, s_ = expected[name]
            assert paths[name] == path, name
            assert (cos_d[i], sin_d[i]) == pytest.approx((c, s_), abs=1e-9), name


def fallback_candidates(rows, rhs):
    """The dominant row's two circle points (clamped to the nearest one when the line misses), worked out in reals."""
    i = np.argmax((rows**2).sum(axis=1))
    (a, b), d = rows[i], rhs[i]
    norm = np.hypot(a, b)
    t = min(max(d / norm, -1.0), 1.0)
    h = np.sqrt(1.0 - t * t)
    ua, ub = a / norm, b / norm
    return np.array([[t * ua - h * ub, t * ub + h * ua], [t * ua + h * ub, t * ub - h * ua]])


def rank_one_plus_noise(rng, noise):
    """A k x 2 system near rank 1 (cond about 1/noise) whose rhs fits a random phase up to 10 % noise."""
    k = int(rng.integers(2, 12))
    base = rng.normal(size=k)
    rows = np.column_stack([base, rng.normal() * base + noise * rng.normal(size=k)])
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return rows, rows @ [np.cos(theta), np.sin(theta)] + 0.1 * np.abs(rows).mean() * rng.normal(size=k)


class TestFallbackPick:
    """The fallback picks between its two circle points by the circle objective's gap, relative to the block's scale."""

    def test_scaling_the_rows_keeps_the_pick_bit_for_bit(self):
        # the residual gap of the weak row shrinks as 4^-k; an absolute tie would flip to the sine rule
        systems = [(make_system([[1.0, 0.0], [0.0, 1e-3]], [0.6, -0.8e-3]), ReconstructionOptions(cond_threshold=100.0))]
        rng = np.random.default_rng(83)
        systems += [(make_system(*rank_one_plus_noise(rng, 1e-9)), ReconstructionOptions()) for _ in range(10)]
        systems += [(make_system(*rank_one_plus_noise(rng, 1e-2)), ReconstructionOptions(cond_threshold=10.0)) for _ in range(10)]
        for sys, opts in systems:
            _, phase0, fallback, _ = solve_phase(sys, opts.cond_threshold)
            assert fallback[0]
            for k in range(41):
                _, phase, fallback, _ = solve_phase(sys * 2.0**-k, opts.cond_threshold)
                assert fallback[0] and (phase[0].real, phase[0].imag) == (phase0[0].real, phase0[0].imag), k

    def test_a_clear_gap_picks_the_point_of_smaller_residual(self):
        rng = np.random.default_rng(84)
        opts = ReconstructionOptions(cond_threshold=10.0)
        compared = 0
        for _ in range(400):
            rows, rhs = rank_one_plus_noise(rng, 10.0 ** rng.uniform(-4, -1.5))
            cands = fallback_candidates(rows, rhs)
            res = ((cands @ rows.T - rhs) ** 2).sum(axis=1)
            cos_d, sin_d, fallback, _, _ = solve_one(make_system(rows, rhs), opts)
            assert fallback
            if abs(res[1] - res[0]) <= 1e-9 * (rhs @ rhs):
                continue
            compared += 1
            assert (cos_d, sin_d) == pytest.approx(tuple(cands[np.argmin(res)]), abs=1e-12)
        assert compared >= 300

    @pytest.mark.parametrize("scale", [1.0, 2.0**-30])
    def test_mirrored_candidates_tie_toward_delta_zero_then_non_negative_sine(self, scale):
        # the two weak rows mirror each other across the dominant row's normal, so the two points' residuals
        # are equal exactly: the tie goes to the larger cosine, and with equal cosines to sin >= 0
        eps = 1e-7
        sys = make_system(scale * np.array([[0.0, 2.0], [eps, 0.5], [-eps, 0.5]]), scale * np.array([1.2, 0.3, 0.3]))
        assert solve_one(sys)[:3] == pytest.approx((0.8, 0.6, True), abs=1e-12)
        sys = make_system(scale * np.array([[2.0, 0.0], [0.5, eps], [0.5, -eps]]), scale * np.array([1.2, 0.3, 0.3]))
        assert solve_one(sys)[:3] == pytest.approx((0.6, 0.8, True), abs=1e-12)


def oracle_systems(seed, count):
    """Random real k x 2 systems, k = 1..64, with the kind of each: generic, rank-1, near-singular on
    either side of the default threshold, zero rows, a zero least-squares point, rows partly divided
    by an unbalanced basis's 2uv (as canonical rows are), or the whole system scaled by 2^-e."""
    rng = np.random.default_rng(seed)
    two_uv = 2.0 * UNBALANCED[2].u * UNBALANCED[2].v
    kinds = ("generic", "rank-1", "near-singular", "ill", "zero rows", "at the origin", "canonical weight", "scaled")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        k = int(rng.integers(1, 65))
        rows = rng.normal(size=(k, 2))
        if kind == "rank-1":
            rows = np.outer(rng.normal(size=k), rng.normal(size=2))
        elif kind in ("near-singular", "ill"):
            k = max(k, 3)
            base = rng.normal(size=k)
            # cond about 1/gap: 10..1e4 stays on least squares, 1e8..1e12 falls back
            gap = 10.0 ** (rng.uniform(-4, -1) if kind == "near-singular" else rng.uniform(-12, -8))
            rows = np.column_stack([base, rng.normal() * base + gap * rng.normal(size=k)])
        elif kind == "zero rows":
            rows = np.zeros((k, 2))
        elif kind == "canonical weight":
            rows[: (k + 1) // 2] /= two_uv
        elif kind == "scaled":
            rows *= 2.0 ** -int(rng.integers(0, 60))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rhs = rows @ [np.cos(theta), np.sin(theta)] + 0.1 * np.abs(rows).mean() * rng.normal(size=k)
        if kind == "at the origin":
            # rhs orthogonal to both columns: the least-squares point is 0
            q, _ = np.linalg.qr(np.column_stack([rows, rng.normal(size=k)]))
            rhs = q[:, 2] if k > 2 else np.zeros(k)
        yield kind, rows, rhs


class TestClosedForm:
    """solve_phase's closed complex form against oracles that share none of its arithmetic."""

    THRESHOLD = ReconstructionOptions().cond_threshold

    def expected_path(self, rows, rhs):
        # solve_phase's documented rule, on numpy's cond and lstsq: zero rows pin nothing, cond above
        # the threshold falls back, a least-squares point within ZERO_SOLUTION_EPS of the origin pins nothing
        if not rows.any():
            return "default", None
        cond = np.linalg.cond(rows) if rows.shape[0] > 1 else np.inf
        if not cond <= self.THRESHOLD:
            return "fallback", cond
        x = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        return ("default" if np.hypot(*x) < reconstruction.ZERO_SOLUTION_EPS else "ls"), cond

    def test_phase_and_cond_match_lstsq_and_numpy_cond(self):
        seen = {}
        for kind, rows, rhs in oracle_systems(70, 800):
            path, cond_ref = self.expected_path(rows, rhs)
            if cond_ref is not None and self.THRESHOLD / 100 < cond_ref < self.THRESHOLD * 100:
                continue  # too near the threshold for the two cond computations to agree on the side
            cond, phase, fallback, default = solve_phase(make_system(rows, rhs), self.THRESHOLD)
            cos_d, sin_d = phase.real, phase.imag
            got = "fallback" if fallback[0] else "default" if default[0] else "ls"
            assert got == path, kind
            seen[kind, path] = seen.get((kind, path), 0) + 1
            if path != "ls":
                continue
            x = np.linalg.lstsq(rows, rhs, rcond=None)[0]
            # the normal equations lose about eps cond^2; at cond <= 10 that is within 1e-12
            tol = max(1e-12, 1e-13 * cond_ref**2)
            assert np.hypot(cos_d[0] - x[0] / np.hypot(*x), sin_d[0] - x[1] / np.hypot(*x)) <= tol, kind
            assert abs(cond[0] / cond_ref - 1.0) <= max(1e-9, 1e-13 * cond_ref**2), kind
        # every kind reached the path it was built for
        on_ls = {kind for kind, path in seen if path == "ls"}
        assert on_ls >= {"generic", "near-singular", "canonical weight", "scaled"}
        assert {kind for kind, path in seen if path == "fallback"} >= {"rank-1", "ill"}
        assert {kind for kind, path in seen if path == "default"} >= {"zero rows", "at the origin"}

    def test_fail_policy_raises_exactly_where_the_oracle_falls_back(self, monkeypatch):
        for kind, rows, rhs in oracle_systems(71, 200):
            path, cond_ref = self.expected_path(rows, rhs)
            if cond_ref is not None and self.THRESHOLD / 100 < cond_ref < self.THRESHOLD * 100:
                continue
            _, _, fallback, _ = solve_phase(make_system(rows, rhs), self.THRESHOLD)
            assert fallback[0] == (path == "fallback"), kind
            # through reconstruct at n = 1: the one block raises exactly when it falls back
            failure = level_one_failure(monkeypatch, make_system(rows, rhs), 1, [0])
            assert (failure is not None) == (path == "fallback"), kind

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 16, 17, 64])
    def test_a_block_gets_the_same_bits_alone_and_in_a_batch(self, k):
        # the Gram sums are written into a (3, L, 2) buffer whose complex view the closed form reads;
        # each block must still be summed over its own rows alone
        systems = [make_system(rows, rhs) for _, rows, rhs in oracle_systems(72 + k, 96) if rows.shape[0] == k]
        systems += [make_system(rows[:k], rhs[:k]) for _, rows, rhs in oracle_systems(90 + k, 48) if rows.shape[0] > k]
        for threshold in (1e6, np.inf):
            batch = solve_phase(stack_systems(systems), threshold)
            for i, sys in enumerate(systems):
                for got, want in zip(batch, solve_phase(sys, threshold)):
                    assert got[i] == want[0] or (np.isnan(got[i]) and np.isnan(want[0]))

    def test_a_zero_determinant_over_a_rounding_residue_goes_to_lstsq(self):
        # proportional columns: S1 - |S2| is exactly 0, but the closed form's numerator is a
        # rounding residue of 1e-17, so z is infinite; under cond_threshold=inf lstsq solves it
        rows, rhs = np.array([[0.21, -0.147], [0.36, -0.252]]), np.array([-0.13, 0.78])
        cond, phase, fallback, default = solve_phase(make_system(rows, rhs), np.inf)
        x = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        assert cond[0] == np.inf and not (fallback[0] or default[0])
        assert np.allclose((phase[0].real, phase[0].imag), x / np.hypot(*x), rtol=0, atol=1e-12)

    def test_the_phases_are_unit_complex_numbers(self):
        plain, single, zero = np.eye(2), [[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2))
        systems = [make_system(plain, [0.3, 0.4]), make_system(single, [0.6, 0.0]), make_system(zero, [1.0, 0.0])]
        cond, phase, fallback, default = solve_phase(stack_systems(systems), ReconstructionOptions().cond_threshold)
        assert phase.dtype == np.complex128 and phase.shape == (3,)
        assert np.allclose(phase, [0.6 + 0.8j, 0.6 + 0.8j, 1.0], atol=1e-15)


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
        base, _ = reconstruct_from_probs(tables, 3, ReconstructionOptions(mode="local", m=2, use_extra_rows=False))
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
        base, _ = reconstruct(records, 5, ReconstructionOptions(mode="local", m=2, use_extra_rows=False))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-3])
    @pytest.mark.parametrize("position", [0, 3])
    def test_exact_records_must_be_finite_and_non_negative(self, bad, position):
        # position 0 is the computational record, position 3 local:1:3
        st = haar_random(3, seed=41)
        tables = exact_tables(st, "local", 2)
        probs = tables[position].probs.copy()
        probs[5] = bad
        tables[position] = ProbTable(n=3, basis=tables[position].basis, probs=probs)
        name = str(tables[position].basis)
        message = f"^exact record {name} holds probabilities that are not finite reals >= 0$"
        with pytest.raises(ValueError, match=message):
            reconstruct_from_probs(tables, 3, ReconstructionOptions(mode="local", m=2))
        with pytest.raises(ValueError, match=f"record {name} "):
            reconstruct([exact_record(t) for t in tables], 3, ReconstructionOptions(mode="local", m=2))

    def test_float_counts_of_sampled_records_are_checked_too(self):
        st = haar_random(2, seed=42)
        records = sampled_records(st, "entangled", 2, 512, seed=1)
        counts = records[1].counts.astype(float)
        counts[0] = np.nan
        records[1] = CountsRecord(basis=records[1].basis, shots=512, counts=counts)
        with pytest.raises(ValueError, match="record entangled:1 holds"):
            reconstruct(records, 2, ReconstructionOptions(mode="entangled", m=2))

    @pytest.mark.parametrize("position", [0, 3])
    def test_duplicate_records_are_refused(self, position):
        # a second record for one basis used to replace the first without a word
        st = haar_random(3, seed=43)
        records = sampled_records(st, "local", 2, 1024, seed=2)
        rec = records[position]
        shifted = CountsRecord(basis=rec.basis, shots=rec.shots, counts=np.roll(rec.counts, 1))
        with pytest.raises(ValueError, match=f"^duplicate record for basis {rec.basis}$"):
            reconstruct(records + [shifted], 3, ReconstructionOptions(mode="local", m=2))

    def test_counts_off_their_shots_are_refused_as_every_boundary_refuses_them(self, tmp_path):
        # local:1:3's probabilities summed to 3 and reconstructed to fidelity 0.6543, not 0.9968, without a word
        st = haar_random(3, seed=1)
        opts = ReconstructionOptions(mode="local", m=2)
        data = simulate_counts(st, estimation_basis_ids(3, 2, "local"), default_family(2), 1000, seed=0)
        records = list(data.records)
        i = [str(rec.basis) for rec in records].index("local:1:3")
        counts = records[i].counts.copy()
        counts[0] += 2000
        records[i] = CountsRecord(basis=records[i].basis, shots=1000, counts=counts)
        boundaries = (
            lambda: reconstruct(records, 3, opts),
            lambda: bootstrap_ci(records, 3, opts, st, 100, seed=0),
            lambda: write_counts(tmp_path / "counts.json", CountsData(3, data.family, records)),
            lambda: counts_to_dict(records[i], 3),
        )
        message = f"^record local:1:3 holds counts summing to {counts.sum()}, not its shots 1000$"
        for call in boundaries:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("shots", [-1000, -1, 1000.0, True, "1000", None])
    @pytest.mark.parametrize("position", [0, 3])
    def test_shots_must_be_a_non_negative_integer(self, shots, position):
        # -1000 at local:1:3 used to turn its counts into negative probabilities: fidelity 0.9803, not 0.9968
        st = haar_random(3, seed=1)
        records = sampled_records(st, "local", 2, 1000, seed=0)
        rec = records[position]
        records[position] = CountsRecord(basis=rec.basis, shots=shots, counts=rec.counts)
        with pytest.raises(ValueError, match=f"{rec.basis}"):
            reconstruct(records, 3, ReconstructionOptions(mode="local", m=2))

    def test_integer_shots_of_any_integer_type_and_exact_records_are_taken(self):
        st = haar_random(3, seed=1)
        opts = ReconstructionOptions(mode="local", m=2)
        records = sampled_records(st, "local", 2, 1000, seed=0)
        est = reconstruct(records, 3, opts)[0]
        assert fidelity(st, est) == pytest.approx(0.9968, abs=1e-4)
        numpy_shots = [CountsRecord(basis=r.basis, shots=np.int64(r.shots), counts=r.counts) for r in records]
        assert np.array_equal(reconstruct(numpy_shots, 3, opts)[0].amps, est.amps)
        exact = [exact_record(t) for t in exact_tables(st, "local", 2)]
        assert fidelity(st, reconstruct(exact, 3, opts)[0]) > 1 - 1e-12

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
        sys_can = build_from_children(j, beta, st.amps[0:2], st.amps[2:4], probs[:, 0, 1], fam)
        sys_ext = build_from_children(j, beta, st.amps[0:2], st.amps[2:4], probs, fam)
        x_can = np.linalg.lstsq(rows_of(sys_can), rhs_of(sys_can), rcond=None)[0]
        x_ext = np.linalg.lstsq(rows_of(sys_ext), rhs_of(sys_ext), rcond=None)[0]

        def resid(sys, x):
            return float(np.sum((rows_of(sys) @ x - rhs_of(sys)) ** 2))

        assert resid(sys_ext, x_ext) <= resid(sys_ext, x_can) + 1e-12
        assert resid(sys_can, x_can) <= resid(sys_can, x_ext) + 1e-12


def level(j, nulls, betas, cond, cos, sin, fallback, default):
    """A Level record from plain lists, as reconstruct appends one per level."""
    arrays = [np.array(nulls, dtype=np.int64), np.array(betas, dtype=np.int64)]
    arrays += [np.array(v, dtype=np.float64) for v in (cond, cos, sin)]
    arrays += [np.array(v, dtype=bool) for v in (fallback, default)]
    return Level(j, *arrays)


class TestDiagnosticsSerialization:
    def test_infinite_conditions_become_strings(self):
        diag = Diagnostics()
        diag.levels.append(level(1, [1], [0], [2.5], [1.0], [0.0], [False], [True]))
        diag.levels.append(level(2, [], [0], [np.inf], [0.6], [0.8], [True], [False]))
        with pytest.raises(TypeError):
            diag.conds[(1, 0)] = 3.0
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

    @pytest.mark.parametrize("m", [2.5, "3", True, None])
    def test_m_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            ReconstructionOptions(m=m)

    @pytest.mark.parametrize("name", ["cond_threshold", "null_threshold"])
    @pytest.mark.parametrize("value", ["5", True, np.True_, 1 + 0j])
    def test_thresholds_must_be_real_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a positive"):
            ReconstructionOptions(**{name: value})

    def test_threshold_values_at_the_edges(self):
        assert ReconstructionOptions(cond_threshold=np.inf).cond_threshold == np.inf
        assert ReconstructionOptions(null_threshold=None).null_threshold is None
        assert ReconstructionOptions(cond_threshold=np.float32(5.0), null_threshold=1).null_threshold == 1
        with pytest.raises(ValueError, match="cond_threshold must be a positive real number or inf"):
            ReconstructionOptions(cond_threshold=None)
        for kwargs in ({"cond_threshold": np.nan}, {"null_threshold": np.nan}, {"null_threshold": np.inf}):
            with pytest.raises(ValueError):
                ReconstructionOptions(**kwargs)

    @pytest.mark.parametrize(
        "family", [(1, 2), ("x", "y"), (None, None), tuple(default_family(2))[:1] + (0.5,), 5, default_family(2)[0]]
    )
    def test_family_must_hold_qubit_bases(self, family):
        with pytest.raises(ValueError, match="family must be a tuple or list of QubitBasis"):
            ReconstructionOptions(family=family)

    @pytest.mark.parametrize(
        "entry",
        [
            QubitBasis(np.nan, 0.5, 0.0),
            QubitBasis(0.5, 0.5, 0.0),  # u^2 + v^2 = 1/2
            QubitBasis(-np.sqrt(0.5), np.sqrt(0.5), 0.0),
            QubitBasis(1.0, 0.0, 0.0),  # the computational basis
            QubitBasis(np.sqrt(0.5), np.sqrt(0.5), np.inf),
            QubitBasis(np.sqrt(0.5), np.sqrt(0.5), "0"),
        ],
    )
    def test_family_entries_obey_the_basis_rules(self, entry):
        family = (default_family(2)[0], entry)
        with pytest.raises(ValueError, match=r"family entry 1 QubitBasis"):
            ReconstructionOptions(family=family)
        with pytest.raises(ValueError, match=r"family entry 1 QubitBasis"):
            ReconstructionOptions(m=3, family=default_family(3)[:1] + [entry, default_family(3)[2]])

    def test_family_entries_within_the_norm_tolerance_are_kept(self):
        s = np.sqrt(0.5)
        family = (QubitBasis(s, s, 0.0), QubitBasis(s * (1 + 1e-14), s, 1.0))
        assert ReconstructionOptions(family=family).family == family

    def test_family_entries_are_kept_reduced_so_a_file_round_trip_reconstructs_alike(self, tmp_path):
        # the entries were validated, then kept as given: phi 7.0 and the 0.7168... a file holds
        # reconstructed the same records 2.1e-15 apart
        s = np.sqrt(0.5)
        family = (QubitBasis(s, s, 7.0), QubitBasis(s, s, 1.0))
        opts = ReconstructionOptions(mode="local", m=2, family=family)
        assert opts.family == (make_qubit_basis(s, s, 7.0), family[1])
        data = simulate_counts(haar_random(5, 1), estimation_basis_ids(5, 2, "local"), family, 1000, seed=0)
        path = tmp_path / "counts.json"
        write_counts(path, data)
        back = read_counts(path)
        est = reconstruct(data.records, 5, opts)[0]
        est_back = reconstruct(back.records, 5, ReconstructionOptions(mode="local", m=2, family=tuple(back.family)))[0]
        assert np.array_equal(est.amps, est_back.amps)

    def test_family_arrays_are_built_once_per_options(self, monkeypatch):
        built = []
        arrays = reconstruction._FamilyArrays
        monkeypatch.setattr(reconstruction, "_FamilyArrays", lambda fam: built.append(fam) or arrays(fam))
        st = haar_random(3, seed=40)
        records = [exact_record(t) for t in exact_tables(st, "local", 2)]
        opts = ReconstructionOptions(mode="local", m=2)
        first = reconstruct(records, 3, opts)[0]
        assert np.array_equal(reconstruct(records, 3, opts)[0].amps, first.amps)
        assert len(built) == 1
        reconstruct(records, 3, ReconstructionOptions(mode="local", m=2))
        assert len(built) == 2

    def test_default_family_resolution(self):
        opts = ReconstructionOptions(m=3)
        fam = opts.resolved_family()
        assert len(fam) == 3
        assert fam[1].phi == pytest.approx(np.pi / 3, abs=1e-15)


def assert_matches_reference(records, n, opts):
    est, diag = reconstruct(records, n, opts)
    ref_amps, ref = reference_reconstruct(records, n, opts)
    assert_diagnostics_equal(diag, ref)
    assert np.array_equal(est.amps, ref_amps), np.max(np.abs(est.amps - ref_amps))
    return diag


def assert_diagnostics_equal(diag, ref):
    """diag's views and lists hold exactly ref's entries, in ref's order, as Python ints and floats."""
    for labels, want in (
        (diag.null_branches, ref.null_branches),
        (diag.fallbacks, ref.fallbacks),
        (diag.default_phases, ref.default_phases),
    ):
        assert type(labels) is list and labels == want
        assert all(type(j) is int and type(beta) is int for j, beta in labels)
    counts = (diag.n_null_branches, diag.n_fallbacks, diag.n_default_phases)
    assert counts == (len(ref.null_branches), len(ref.fallbacks), len(ref.default_phases))
    assert all(type(c) is int for c in counts)
    assert diag.n_systems == len(ref.conds) and type(diag.n_systems) is int
    for view, want, is_value in (
        (diag.conds, ref.conds, lambda v: type(v) is float),
        (diag.phases, ref.phases, lambda v: type(v) is tuple and len(v) == 2 and all(type(x) is float for x in v)),
    ):
        got = dict(view)  # through keys and lookups
        assert got == want and list(got) == list(want) and len(view) == len(want)
        assert list(view.items()) == list(want.items())
        assert list(view.values()) == list(want.values())
        assert all(type(j) is int and type(beta) is int for j, beta in view)
        assert all(map(is_value, got.values())) and all(map(is_value, view.values()))
    assert diag.cond_max == max(ref.conds.values(), default=0.0)
    assert type(diag.cond_max) is float
    assert diag.to_dict() == ref.to_dict()
    assert json.dumps(diag.to_dict()) == json.dumps(ref.to_dict())


class TestKernelMatchesReference:
    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["local", "entangled"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_haar_exact_and_sampled(self, n, mode, m, extra):
        st = haar_random(n, seed=1000 + 10 * n + m)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=extra)
        exact = [exact_record(t) for t in exact_tables(st, mode, m)]
        assert_matches_reference(exact, n, opts)
        assert_matches_reference(sampled_records(st, mode, m, 2048, seed=n + m), n, opts)

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unbalanced_family_keeps_canonical_scaling(self, n, extra):
        # u != v makes the canonical rows' 1/(2uv) weight visible in conds and solutions
        st = haar_random(n, seed=1100 + n)
        opts = ReconstructionOptions(mode="local", m=3, family=UNBALANCED, use_extra_rows=extra)
        exact = [exact_record(born_probs(st, id, list(UNBALANCED))) for id in estimation_basis_ids(n, 3, "local")]
        assert_matches_reference(exact, n, opts)
        records = sampled_records(st, "local", 3, 1024, seed=n, family=list(UNBALANCED))
        assert_matches_reference(records, n, opts)

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("mode", ["local", "entangled"])
    def test_records_of_mixed_kinds_stacked_together_keep_their_own_bits(self, mode, extra):
        # records are stacked and normalized together (a level's, or all of them in one pass); exact
        # tables (shots 0) and counts of other shots and dtypes must each still give the bits
        # to_empirical gives them one by one
        n, m = 4, 3
        st = haar_random(n, seed=1150)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=extra)
        exact = [exact_record(t) for t in exact_tables(st, mode, m)]
        sampled = sampled_records(st, mode, m, 1000, seed=4)
        records = [exact[0]]
        for i, (rec, s) in enumerate(zip(exact[1:], sampled[1:])):
            dtype = np.int32 if i % 3 == 1 else np.int64
            records.append(rec if i % 3 == 0 else CountsRecord(rec.basis, 3 * s.shots, (3 * s.counts).astype(dtype)))
        assert_matches_reference(records, n, opts)

    @pytest.mark.parametrize("kind", ["Phi1", "Phi2", "Phi3", "Phi4", "separable"])
    @pytest.mark.parametrize("mode", ["local", "entangled"])
    def test_structured_states_through_the_fallback_path(self, kind, mode):
        off_ls = 0
        for n in (4, 5, 6):
            st = random_separable(n, seed=n) if kind == "separable" else named_state(kind, n)
            for extra in (False, True):
                opts = ReconstructionOptions(mode=mode, m=2, use_extra_rows=extra)
                exact = [exact_record(t) for t in exact_tables(st, mode, 2)]
                diag = assert_matches_reference(exact, n, opts)
                off_ls += diag.n_fallbacks + diag.n_default_phases
                for lam in (0.0, 0.06):
                    records = sampled_records(st, mode, 2, 1024, seed=n, noise_lambda=lam)
                    diag = assert_matches_reference(records, n, opts)
                    off_ls += diag.n_fallbacks + diag.n_default_phases
        if kind in ("Phi3", "Phi4"):
            assert off_ls > 0

    @pytest.mark.parametrize("threshold", [1.0, 2.0, 5.0, 20.0, 1e9, np.inf])
    def test_fail_policy_raises_at_the_same_block(self, threshold):
        raised = 0
        for seed in range(6):
            st = haar_random(5, seed=1200 + seed)
            records = sampled_records(st, "local", 2, 1024, seed=seed)
            opts = ReconstructionOptions(
                mode="local", m=2, use_extra_rows=False, cond_threshold=threshold, ambiguity_policy="fail"
            )
            try:
                reference_reconstruct(records, 5, opts)
            except AmbiguityError as e:
                with pytest.raises(AmbiguityError) as got:
                    reconstruct(records, 5, opts)
                assert (got.value.j, got.value.beta) == (e.j, e.beta)
                raised += 1
            else:
                assert_matches_reference(records, 5, opts)
        if threshold < 5.0:
            assert raised > 0

    @pytest.mark.parametrize(
        "st, mode, m, threshold, data",
        [
            (named_state("Phi3", 7), "entangled", 3, np.inf, "noisy"),
            (named_state("Phi4", 7), "entangled", 2, np.inf, "noisy"),
            (haar_random(4, seed=126), "local", 2, 1e6, "exact"),
            (haar_random(4, seed=126), "entangled", 2, 1e6, "exact"),
        ],
        ids=["phi3-n7-entangled-m3", "phi4-n7-entangled-m2", "haar4-local", "haar4-entangled"],
    )
    def test_inputs_where_rebuilt_rows_diverged(self, st, mode, m, threshold, data):
        # a second, differently rounded row assembly for the blocks off the
        # least-squares path once moved these estimates by 1.6e-12 to 5.1e-2
        # from the per-block loop
        if data == "exact":
            records = [exact_record(t) for t in exact_tables(st, mode, m)]
        else:
            records = sampled_records(st, mode, m, 1024, seed=7, noise_lambda=0.06)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=False, cond_threshold=threshold)
        assert_matches_reference(records, st.n, opts)

    def test_fallback_blocks_are_solved_without_build_system(self, monkeypatch):
        def no_rebuild(*args, **kwargs):
            raise AssertionError("build_system called")

        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        records = [exact_record(t) for t in exact_tables(named_state("Phi3", 6), "local", 2)]
        with monkeypatch.context() as patch:
            patch.setattr(reconstruction, "build_system", no_rebuild)
            est, diag = reconstruct(records, 6, opts)
        assert diag.fallbacks
        ref_amps, ref = reference_reconstruct(records, 6, opts)
        assert (diag.fallbacks, diag.default_phases, dict(diag.conds)) == (ref.fallbacks, ref.default_phases, ref.conds)
        assert np.array_equal(est.amps, ref_amps)

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_level_rows_equal_build_system_per_block(self, j, m, extra):
        # a block's rows, rhs and cond are the same bits alone (build_system) as in a batch of blocks
        # the kernel's layout is (m, L, s, h) probabilities and (m, L, h) transforms; build_system
        # takes every outcome as (m, 2, half) and the canonical one as (m,)
        half = 1 << (j - 1)
        fam = default_family(m)
        L = 16
        rng = np.random.default_rng(j * m)
        s, h = (2, half) if extra else (1, 1)
        ta, tb = rng.normal(size=(2, m, L, h)) + 1j * rng.normal(size=(2, m, L, h))
        p = rng.uniform(0.0, 1.0, size=(m, L, s, h))
        rows = reconstruction._level_rows(ta, tb, p, reconstruction._FamilyArrays(fam))
        threshold = ReconstructionOptions(m=m).cond_threshold
        level = solve_phase(rows, threshold)
        assert rows.shape == (3, L, m * s * h)
        assert rows.flags.c_contiguous
        t_shape, p_shape = ((m, half), (m, 2, half)) if extra else ((m,), (m,))
        for i in range(L):
            ta_i, tb_i = ta[:, i].reshape(t_shape), tb[:, i].reshape(t_shape)
            sys = build_system(j, i, ta_i, tb_i, p[:, i].reshape(p_shape), fam)
            assert np.array_equal(sys, rows[:, i : i + 1])
            for got, want in zip(level, solve_phase(sys, threshold)):
                assert got[i] == want[0]

    @pytest.mark.parametrize("threshold", [1e9, 1e12, np.inf])
    def test_thresholds_above_the_default(self, threshold):
        # a large (or infinite) threshold must neither send Haar blocks off least squares nor change any result
        for extra in (False, True):
            opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=extra, cond_threshold=threshold)
            for seed in range(3):
                st = haar_random(6, seed=1400 + seed)
                exact = [exact_record(t) for t in exact_tables(st, "local", 2)]
                for records in (exact, sampled_records(st, "local", 2, 2048, seed=seed)):
                    diag = assert_matches_reference(records, 6, opts)
                    assert diag.fallbacks == [] and diag.default_phases == []
        for extra in (False, True):
            opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=extra, cond_threshold=threshold)
            for kind in ("Phi3", "Phi4"):
                st = named_state(kind, 6)
                assert_matches_reference([exact_record(t) for t in exact_tables(st, "local", 2)], 6, opts)
                assert_matches_reference(sampled_records(st, "local", 2, 1024, seed=6, noise_lambda=0.06), 6, opts)
            st = haar_random(5, seed=1410)
            assert_matches_reference([exact_record(t) for t in exact_tables(st, "local", 2)], 5, opts)

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("kind", ["Phi3", "Phi4"])
    def test_fallback_blocks_never_decode_outcome_roles(self, kind, extra, monkeypatch):
        # blocks that fall back take their rows from the level's gathered probabilities
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
        assert np.array_equal(est.amps, ref_amps)

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
        assert_matches_reference(sampled_records(st, mode, m, shots, seed=seed), n, opts)


def assert_levels_partition_blocks(diag, n):
    """One Level per j in order; its null and live betas split the level's 2^(n-j) blocks."""
    assert [lv.j for lv in diag.levels] == list(range(1, n + 1))
    for lv in diag.levels:
        both = np.concatenate([lv.nulls, lv.betas])
        assert np.array_equal(np.sort(both), np.arange(1 << (n - lv.j)))
        assert all(a.shape == lv.betas.shape for a in (lv.cond, lv.cos, lv.sin, lv.fallback, lv.default))
    assert len(diag.conds) + diag.n_null_branches == (1 << n) - 1
    assert len(diag.phases) == len(diag.conds)


class TestDiagnosticsViews:
    def test_one_qubit(self):
        st = haar_random(1, seed=1700)
        opts = ReconstructionOptions(mode="local", m=2)
        diag = assert_matches_reference([exact_record(t) for t in exact_tables(st, "local", 2)], 1, opts)
        assert_levels_partition_blocks(diag, 1)
        assert list(diag.conds) == [(1, 0)] and diag.null_branches == []
        assert diag.cond_max == diag.conds[(1, 0)]

    def test_cond_max_is_zero_when_no_system_is_solved(self):
        for amps in ([1.0, 0.0], [0, 0, 0, 0, 0, 1j, 0, 0]):
            st = make_state(amps)
            records = [exact_record(t) for t in exact_tables(st, "local", 2)]
            diag = assert_matches_reference(records, st.n, ReconstructionOptions(mode="local", m=2))
            assert_levels_partition_blocks(diag, st.n)
            assert diag.cond_max == 0.0 and type(diag.cond_max) is float
            assert len(diag.conds) == 0 and diag.n_null_branches == (1 << st.n) - 1
            assert diag.to_dict() == {"cond": {}, "fallbacks": 0, "null_branches": (1 << st.n) - 1, "default_phases": 0}

    def test_level_with_no_live_block(self):
        st = make_state([0.0, 0.0, 0.6, 0.8j])
        records = [exact_record(t) for t in exact_tables(st, "local", 2)]
        diag = assert_matches_reference(records, 2, ReconstructionOptions(mode="local", m=2))
        assert_levels_partition_blocks(diag, 2)
        assert diag.levels[1].betas.size == 0 and diag.levels[1].nulls.tolist() == [0]
        assert diag.null_branches == [(1, 0), (2, 0)]
        assert list(diag.conds) == list(diag.phases) == [(1, 1)]
        assert (1, 1) in diag.conds and "2,0" not in diag.phases
        for null in diag.null_branches:  # (1, 0) sits in a level with a live block, (2, 0) in one without
            assert null not in diag.conds and diag.conds.get(null) is None
            with pytest.raises(KeyError):
                diag.phases[null]
        assert diag.phases[(1, 1)] == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_zero_row_default_phase_keeps_an_infinite_cond(self):
        # level 1 leaves childA orthogonal to |-_1> and childB to |-_2>, exactly:
        # every level-2 row is zero, so block (2, 0) gets the default phase with cond inf
        fam = (make_qubit_basis(np.sqrt(0.5), np.sqrt(0.5), 0.0), make_qubit_basis(0.6, 0.8, 0.0))
        comp = np.array([0.375, 0.375, (0.5 * 0.6) ** 2, (0.5 * 0.8) ** 2])
        records = [
            CountsRecord(basis=id, shots=0, counts=comp if id == COMPUTATIONAL else np.full(4, 0.9))
            for id in estimation_basis_ids(2, 2, "local")
        ]
        opts = ReconstructionOptions(mode="local", m=2, family=fam, use_extra_rows=False, cond_threshold=np.inf)
        diag = assert_matches_reference(records, 2, opts)
        assert diag.default_phases == [(2, 0)] and diag.fallbacks == []
        assert diag.conds[(2, 0)] == np.inf and diag.phases[(2, 0)] == (1.0, 0.0)
        assert diag.cond_max == np.inf
        obj = diag.to_dict()
        assert obj["cond"]["2,0"] == "inf" and obj["default_phases"] == 1
        json.dumps(obj)

    @pytest.mark.parametrize("threshold", [1.0, 2.0, 5.0])
    def test_fail_policy_raises_at_the_first_fallback_label(self, threshold):
        # under "fail" the first block residual_pick sends down the fallback path raises instead
        raised = 0
        for seed in range(4):
            st = haar_random(5, seed=1800 + seed)
            records = sampled_records(st, "local", 2, 1024, seed=seed)
            opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=False, cond_threshold=threshold)
            _, diag = reconstruct(records, 5, opts)
            fail = ReconstructionOptions(
                mode="local", m=2, use_extra_rows=False, cond_threshold=threshold, ambiguity_policy="fail"
            )
            if not diag.fallbacks:
                reconstruct(records, 5, fail)
                continue
            with pytest.raises(AmbiguityError) as got:
                reconstruct(records, 5, fail)
            assert (got.value.j, got.value.beta) == diag.fallbacks[0]
            raised += 1
        assert raised > 0

    def test_twelve_qubits_entangled(self):
        # the shape of the mc-entangled-phi1-n12 benchmark: Phi1, m=2, 65536 shots
        st = named_state("Phi1", 12)
        records = sampled_records(st, "entangled", 2, 65536, seed=12)
        diag = assert_matches_reference(records, 12, ReconstructionOptions(mode="entangled", m=2))
        assert_levels_partition_blocks(diag, 12)


class TestCarriedTransforms:
    @pytest.mark.parametrize("variant", ["canonical", "extra", "entangled"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_carried_transforms_match_from_scratch(self, n, variant, monkeypatch):
        # every level's children transforms, as the kernel carries them, against dense
        # U_a^dagger^{x(j-1)} (or <-_a|^{x(j-1)}) products of the children rebuilt from the solved phases
        mode, extra = ("entangled" if variant == "entangled" else "local"), variant == "extra"
        st = haar_random(n, seed=1900 + n)
        opts = ReconstructionOptions(mode=mode, m=3, use_extra_rows=extra)
        records = [exact_record(t) for t in exact_tables(st, mode, 3)]
        seen = []
        level_rows = reconstruction._level_rows

        def capture(ta, tb, *args):
            seen.append((ta.copy(), tb.copy()))  # the kernel then phases its carried B halves in place
            return level_rows(ta, tb, *args)

        monkeypatch.setattr(reconstruction, "_level_rows", capture)
        est, diag = reconstruct(records, n, opts)
        assert fidelity(st, est) > 1 - 1e-10
        assert len(seen) == n
        family = opts.resolved_family()
        work = amplitudes_from_counts(records[0], n).astype(np.complex128)
        for lv, got in zip(diag.levels, seen):
            blocks = work.reshape(-1, 2, 1 << (lv.j - 1))[lv.betas]
            for half, t in zip((blocks[:, 0], blocks[:, 1]), got):
                # the kernel's (m, L, h) layout: h = 1, the one all-minus tail, without extra rows
                want = np.stack(transforms(family, extra, *half), axis=1).reshape(len(family), lv.betas.size, -1)
                assert np.allclose(np.broadcast_to(t, want.shape), want, rtol=0, atol=1e-12)
            work.reshape(-1, 2, 1 << (lv.j - 1))[lv.betas, 1] *= (lv.cos + 1j * lv.sin)[:, None]

    @pytest.mark.parametrize("variant", ["canonical", "extra", "entangled"])
    def test_only_levels_with_a_null_block_gather(self, variant, monkeypatch):
        # one zero amplitude makes level 1 hold a null block; the levels above it whose blocks are
        # all live read the carried transforms through slices, so both halves are views of one buffer
        n = 6
        mode, extra = ("entangled" if variant == "entangled" else "local"), variant == "extra"
        amps = haar_random(n, seed=1960).amps.copy()
        amps[5] = 0.0
        st = make_state(amps / np.linalg.norm(amps))
        opts = ReconstructionOptions(mode=mode, m=2, use_extra_rows=extra)
        records = [exact_record(t) for t in exact_tables(st, mode, 2)]
        shared = []
        level_rows = reconstruction._level_rows

        def capture(ta, tb, *args):
            shared.append(np.may_share_memory(ta, tb))
            return level_rows(ta, tb, *args)

        monkeypatch.setattr(reconstruction, "_level_rows", capture)
        est, diag = reconstruct(records, n, opts)
        assert fidelity(st, est) > 1 - 1e-10
        assert [lv.nulls.size > 0 for lv in diag.levels] == [True] + [False] * (n - 1)
        assert shared == [False] + [True] * (n - 1)

    def test_extra_rows_read_each_level_s_tables_when_they_get_to_them(self):
        # exact_record shares each of the 29 tables, and the level pass holds about 41 tables' worth
        # at its peak; stacking all 28 local tables up front would add 28, and copying the tables 29
        n = 14
        tables = exact_tables(haar_random(n, seed=1950), "local", 2)
        table_bytes = tables[0].probs.nbytes
        tracemalloc.start()
        try:
            reconstruct_from_probs(tables, n, ReconstructionOptions(mode="local", m=2, use_extra_rows=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 52 * table_bytes, peak / table_bytes

    def test_canonical_rows_stack_the_local_tables_one_level_at_a_time(self):
        # exact_record shares each of the 29 tables, and the level pass holds about 18
        # tables' worth at its peak; stacking all 28 local tables at once would add 28
        n = 14
        tables = exact_tables(haar_random(n, seed=1950), "local", 2)
        table_bytes = tables[0].probs.nbytes
        tracemalloc.start()
        try:
            reconstruct_from_probs(tables, n, ReconstructionOptions(mode="local", m=2, use_extra_rows=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * table_bytes, peak / table_bytes

    def test_exact_tables_are_read_in_place(self):
        # exact_record views each table; at n = 12 the canonical level pass holds about 18 tables'
        # worth, less than the 25 tables themselves, which a copy of each would add
        n = 12
        tables = exact_tables(haar_random(n, seed=1951), "local", 2)
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=False)
        tracemalloc.start()
        try:
            reconstruct_from_probs(tables, n, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(t.probs.nbytes for t in tables), peak / tables[0].probs.nbytes


def outcome_is_read(id, k, n, extra):
    """Whether a variant reads outcome k of basis id, decided from the outcome's role alone.

    The computational record is read whole; of the other bases, every
    phase-bearing outcome with extra rows, else the canonical ones (pivot +,
    all-minus tail).
    """
    if id.tag == "computational":
        return True
    role = bases.outcome_role(id, k, n)
    return role is not None and (extra or (role.sign0 == 1 and set(role.tail) <= {-1}))


def read_variant_records(variant, n, m, shots):
    """(mode, extra, ids, records) of a Haar state's exact (shots 0) or sampled records, for one variant."""
    mode, extra = ("entangled" if variant == "entangled" else "local"), variant == "extra"
    st = haar_random(n, seed=2100)
    ids = estimation_basis_ids(n, m, "local") + estimation_basis_ids(n, m, "entangled")[1:]
    if shots:
        records = simulate_counts(st, ids, default_family(m), shots, seed=7).records
    else:
        records = [exact_record(born_probs(st, id, default_family(m))) for id in ids]
    return mode, extra, ids, records


class TestOutcomeRead:
    """Each level reads only its own records, through one selection of their outcomes."""

    @pytest.mark.parametrize("shots", [0, 4096])
    @pytest.mark.parametrize("variant", ["canonical", "extra", "entangled"])
    def test_outcomes_the_variant_does_not_read_leave_the_estimate_bit_identical(self, variant, shots):
        # the records of the other mode's bases are not read either, so they are overwritten too
        n, m = 5, 2
        mode, extra, ids, records = read_variant_records(variant, n, m, shots)
        rng = np.random.default_rng(2101)
        overwritten, changed, moved = [], 0, 0
        for id, rec in zip(ids, records):
            counts = np.array(rec.counts)
            unread = ~np.array([outcome_is_read(id, k, n, extra) for k in range(1 << n)])
            if id.tag != "computational" and (id.tag == "entangled") != (mode == "entangled"):
                unread[:] = True
            if shots:  # a sampled record's unread counts trade places, so it still sums to its shots
                counts[unread] = np.roll(counts[unread], 1)
            else:
                counts[unread] += rng.uniform(0.1, 1.0, counts.size)[unread]
            changed += np.count_nonzero(unread)
            moved += np.count_nonzero(counts != rec.counts)
            overwritten.append(CountsRecord(basis=rec.basis, shots=rec.shots, counts=counts))
        # canonical rows skip all but 2^(n-j) outcomes of each L_aj, entangled mode E_a's terminal all-minus one
        other_mode = (m << n) if mode == "local" else m * n << n
        skipped = {"extra": 0, "canonical": m * sum((1 << n) - (1 << (n - j)) for j in range(1, n + 1)), "entangled": m}
        assert changed == other_mode + skipped[variant]
        # an unread count may meet its own value in the roll, and E_a's one unread outcome cannot move at fixed shots
        assert moved == changed if not shots else moved > 0.9 * changed, (moved, changed)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=extra)
        est, diag = reconstruct(records, n, opts)
        got, got_diag = reconstruct(overwritten, n, opts)
        assert np.array_equal(got.amps, est.amps)
        assert got_diag.to_dict() == diag.to_dict()
        assert dict(got_diag.phases) == dict(diag.phases)

    @pytest.mark.parametrize("shots", [0, 4096])
    @pytest.mark.parametrize("variant", ["canonical", "extra", "entangled"])
    def test_an_outcome_read_at_the_last_level_moves_only_that_level(self, variant, shots):
        # extra rows read L_1n's outcome 0 (pivot +, all-plus tail), which canonical rows skip
        n, m = 5, 2
        mode, extra, ids, records = read_variant_records(variant, n, m, shots)
        pos = ids.index(local_id(1, n) if mode == "local" else bases.entangled_id(1))
        rec = records[pos]
        read = [k for k in range(1 << n) if outcome_is_read(rec.basis, k, n, extra)]
        k = next(k for k in read if bases.outcome_role(rec.basis, k, n).j == n)
        assert k == (0 if extra else (1 << (n - 1)) - 1 if mode == "local" else (1 << n) - 2)
        counts = np.array(rec.counts)
        if shots:  # 50 counts come from an outcome no lower level reads, so the record still sums to its shots
            src = next(d for d in range(1 << n) if d != k and counts[d] >= 50 and not (
                outcome_is_read(rec.basis, d, n, extra) and bases.outcome_role(rec.basis, d, n).j < n))
            counts[src] -= 50
            counts[k] += 50
        else:
            counts[k] += 0.05
        moved = list(records)
        moved[pos] = CountsRecord(basis=rec.basis, shots=rec.shots, counts=counts)
        opts = ReconstructionOptions(mode=mode, m=m, use_extra_rows=extra)
        est, diag = reconstruct(records, n, opts)
        got, got_diag = reconstruct(moved, n, opts)
        assert not np.array_equal(got.amps, est.amps)
        for lv, ref in zip(got_diag.levels[:-1], diag.levels[:-1]):
            assert np.array_equal(lv.cos, ref.cos) and np.array_equal(lv.sin, ref.sin)
        assert got_diag.levels[-1].cos[0] != diag.levels[-1].cos[0]


class TestEmptyLevels:
    @pytest.mark.parametrize("variant", ["canonical", "extra", "entangled"])
    @pytest.mark.parametrize("kind", ["Phi3", "Phi4"])
    def test_a_level_with_no_live_block_builds_and_solves_nothing(self, kind, variant, monkeypatch):
        # the short-circuit is for speed, not results: without it, an exact GHZ (Phi4) n=4 reconstruct,
        # whose levels 1-3 hold only null blocks, took 551-685 us instead of 274-385 us (2-core x86-64)
        n = 6
        mode = "entangled" if variant == "entangled" else "local"
        opts = ReconstructionOptions(mode=mode, m=2, use_extra_rows=variant == "extra")
        records = [exact_record(t) for t in exact_tables(named_state(kind, n), mode, 2)]
        built, solved = [], []
        level_rows, solve = reconstruction._level_rows, reconstruction.solve_phase

        def count_rows(ta, *args):
            built.append(ta.shape[1])
            return level_rows(ta, *args)

        def count_solves(rows, *args):
            solved.append(rows.shape[1])
            return solve(rows, *args)

        monkeypatch.setattr(reconstruction, "_level_rows", count_rows)
        monkeypatch.setattr(reconstruction, "solve_phase", count_solves)
        est, diag = reconstruct(records, n, opts)
        live = [lv.j for lv in diag.levels if lv.betas.size]
        assert 0 < len(live) < n
        assert solved == [lv.betas.size for lv in diag.levels if lv.betas.size]
        assert 0 not in built and len(built) == len(live)
        assert fidelity(named_state(kind, n), est) > 1 - 1e-12


class TestLargeSystems:
    def test_exact_recovery_at_sixteen_qubits_with_extra_rows(self):
        st = haar_random(16, seeded_rng(100000, (16, 0)))
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        est, diag = reconstruct_from_probs(exact_tables(st, "local", 2), 16, opts)
        assert fidelity(st, est) >= 1 - 1e-8
        assert_levels_partition_blocks(diag, 16)

    def test_exact_entangled_recovery_through_a_fallback_at_eighteen_qubits(self):
        # level 3 falls back; its two circle points' residuals differ by about 2e-23, which is 2e-11 of
        # the block's own terms but far below an absolute tie of 1e-12
        st = haar_random(18, 1000)
        est, diag = reconstruct_from_probs(exact_tables(st, "entangled", 2), 18, ReconstructionOptions(mode="entangled"))
        assert diag.n_fallbacks == 1
        assert fidelity(st, est) >= 1 - 1e-6
