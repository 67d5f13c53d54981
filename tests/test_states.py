"""Tests for state construction, named benchmark states, and serialization."""

import json

import numpy as np
import pytest

from purestate.states import (
    PureState,
    fidelity,
    global_phase_normalize,
    haar_random,
    load_state,
    make_state,
    named_state,
    random_separable,
    save_state,
    state_from_dict,
    state_to_dict,
)


class TestMakeState:
    def test_accepts_list_and_normalizes_exactly(self):
        st = make_state([0.6, 0.8j])
        assert st.n == 1
        assert st.dim == 2
        assert np.isclose(np.linalg.norm(st.amps), 1.0, atol=1e-15)
        assert np.allclose(st.amps, [0.6, 0.8j])

    def test_renormalizes_slightly_off_input(self):
        amps = np.array([0.6, 0.8]) * (1.0 + 5e-7)
        st = make_state(amps)
        assert np.isclose(np.linalg.norm(st.amps), 1.0, atol=1e-15)

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            make_state([1.0, 0.0, 0.0])

    def test_rejects_scalar_length(self):
        with pytest.raises(ValueError):
            make_state([1.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            make_state([0.0, 0.0])

    def test_rejects_badly_normalized_vector(self):
        with pytest.raises(ValueError):
            make_state([0.5, 0.0])

    def test_rejects_non_finite_entries(self):
        for bad in ([np.nan, 1.0], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]):
            with pytest.raises(ValueError):
                make_state(bad)

    def test_amplitudes_are_frozen(self):
        st = make_state([1.0, 0.0])
        assert st.amps.dtype == np.complex128
        with pytest.raises(ValueError):
            st.amps[0] = 0.0


class TestHaarRandom:
    def test_unit_norm_and_determinism(self):
        a = haar_random(3, seed=7)
        b = haar_random(3, seed=7)
        c = haar_random(3, seed=8)
        assert np.array_equal(a.amps, b.amps)
        assert not np.array_equal(a.amps, c.amps)
        assert np.isclose(np.linalg.norm(a.amps), 1.0, atol=1e-12)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            haar_random(0, seed=1)

    def test_single_probability_moments(self):
        # For Haar states p_0 = |<0|psi>|^2 ~ Beta(1, d-1):
        # mean 1/d, variance (d-1) / (d^2 (d+1)).
        d = 4
        n_samples = 10_000
        p0 = np.array([abs(haar_random(2, seed=[41, i]).amps[0]) ** 2 for i in range(n_samples)])
        mean_exp = 1.0 / d
        var_exp = (d - 1) / (d**2 * (d + 1))
        # 3 sigma bands from the exact second/fourth Beta moments
        assert abs(p0.mean() - mean_exp) < 3 * np.sqrt(var_exp / n_samples)
        assert abs(p0.var() - var_exp) < 0.005


class TestRandomSeparable:
    def test_every_bipartition_has_schmidt_rank_one(self):
        st = random_separable(4, seed=3)
        for cut in range(1, 4):
            mat = st.amps.reshape(1 << (4 - cut), 1 << cut)
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[0] > 0
            assert s[1] < 1e-10

    def test_determinism(self):
        assert np.array_equal(random_separable(3, seed=5).amps, random_separable(3, seed=5).amps)


class TestNamedStates:
    def test_product_families_match_kron_closed_form(self):
        for kind, sign in (("Phi1", -1.0), ("Phi2", 1.0)):
            q = np.array([1.0, sign * np.exp(1j * np.pi / 4)]) / np.sqrt(2)
            expected = np.kron(np.kron(q, q), q)
            st = named_state(kind, 3)
            assert np.allclose(st.amps, expected, atol=1e-15)

    def test_bell_chain_even(self):
        st = named_state("Phi3", 4)
        expected = np.zeros(16)
        expected[[0, 3, 12, 15]] = 0.5
        assert np.allclose(st.amps, expected, atol=1e-15)

    def test_bell_chain_odd_appends_zero_qubit(self):
        st = named_state("Phi3", 3)
        expected = np.zeros(8)
        expected[[0, 6]] = 1 / np.sqrt(2)
        assert np.allclose(st.amps, expected, atol=1e-15)

    def test_ghz(self):
        st = named_state("Phi4", 3)
        expected = np.zeros(8)
        expected[[0, 7]] = 1 / np.sqrt(2)
        assert np.allclose(st.amps, expected, atol=1e-15)

    def test_ghz_needs_two_qubits(self):
        with pytest.raises(ValueError):
            named_state("Phi4", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            named_state("Phi9", 2)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        st = haar_random(3, seed=2)
        assert np.isclose(fidelity(st, st), 1.0, atol=1e-12)

    def test_orthogonal_states(self):
        a = make_state([1.0, 0.0])
        b = make_state([0.0, 1.0])
        assert np.isclose(fidelity(a, b), 0.0, atol=1e-15)

    def test_global_phase_invariance(self):
        a = haar_random(2, seed=9)
        b = PureState(n=2, amps=a.amps * np.exp(1j * 1.234))
        assert np.isclose(fidelity(a, b), 1.0, atol=1e-12)

    def test_matches_overlap_by_hand(self):
        a = haar_random(2, seed=11)
        b = haar_random(2, seed=12)
        assert np.isclose(fidelity(a, b), abs(np.vdot(a.amps, b.amps)) ** 2, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(haar_random(2, seed=1), haar_random(3, seed=1))


class TestGlobalPhaseNormalize:
    def test_pivot_becomes_real_positive(self):
        st = haar_random(3, seed=13)
        rotated = PureState(n=3, amps=st.amps * np.exp(1j * 0.77))
        out = global_phase_normalize(rotated)
        pivot = out.amps[np.flatnonzero(np.abs(out.amps) > 1e-10)[0]]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0
        assert np.isclose(fidelity(out, st), 1.0, atol=1e-12)

    def test_idempotent_to_float_precision(self):
        st = global_phase_normalize(haar_random(2, seed=3))
        again = global_phase_normalize(st)
        assert np.max(np.abs(again.amps - st.amps)) < 1e-15

    def test_negligible_leading_amplitudes_are_skipped(self):
        amps = np.array([1e-12, 0.8j, 0.6, 0.0])
        out = global_phase_normalize(PureState(n=2, amps=amps))
        # pivot is index 1; the phase -pi/2 rotates onto index 2
        assert np.isclose(out.amps[1], 0.8, atol=1e-14)
        assert np.isclose(out.amps[2], -0.6j, atol=1e-14)


class TestSerialization:
    def test_dict_round_trip_is_exact(self):
        st = haar_random(3, seed=21)
        back = state_from_dict(state_to_dict(st))
        assert back.n == st.n
        assert np.array_equal(back.amps, st.amps)

    def test_awkward_floats_survive_17_digits(self):
        amps = np.array([np.sqrt(1 / 3), np.sqrt(2 / 3) * np.exp(1j / 3)])
        st = make_state(amps)
        back = state_from_dict(json.loads(json.dumps(state_to_dict(st))))
        assert np.array_equal(back.amps, st.amps)

    def test_json_text_matches_17_digit_reference(self):
        amps = np.array([np.sqrt(1 / 3), -0.0, 1e-300j, np.sqrt(2 / 3) * np.exp(1j / 3)])
        for st in (make_state(amps), haar_random(4, seed=34)):
            want = {"n": st.n, "amps": [[float(f"{z.real:.17g}"), float(f"{z.imag:.17g}")] for z in st.amps]}
            assert json.dumps(state_to_dict(st)) == json.dumps(want)

    def test_file_round_trip(self, tmp_path):
        st = haar_random(2, seed=33)
        path = tmp_path / "state.json"
        save_state(st, path)
        assert np.array_equal(load_state(path).amps, st.amps)

    def test_inconsistent_dict_rejected(self):
        obj = state_to_dict(haar_random(2, seed=1))
        obj["n"] = 3
        with pytest.raises(ValueError):
            state_from_dict(obj)

    def test_ill_typed_or_non_finite_dict_rejected(self):
        for mutate in (
            lambda o: o.update(n=True),
            lambda o: o.update(n=2.0),
            lambda o: o.update(n="2"),
            lambda o: o["amps"][1].__setitem__(0, "0.5"),
            lambda o: o["amps"][1].__setitem__(0, True),
            lambda o: o["amps"][1].__setitem__(1, float("nan")),
            lambda o: o["amps"][2].append(0.0),
            lambda o: o["amps"].__setitem__(3, 0.5),
        ):
            obj = json.loads(json.dumps(state_to_dict(haar_random(2, seed=1))))
            mutate(obj)
            with pytest.raises(ValueError):
                state_from_dict(obj)

    def test_json_nan_is_rejected_on_load(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"n": 1, "amps": [[NaN, 0.0], [1.0, 0.0]]}')
        with pytest.raises(ValueError):
            load_state(path)
