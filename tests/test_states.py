"""Tests for state construction, named benchmark states, and serialization."""

import json
import re
from functools import reduce

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

    def test_amplitudes_are_z_over_its_norm_bit_for_bit(self):
        # the documented draw: 2^n real parts, then 2^n imaginary parts, divided by the norm once
        for n in range(1, 13):
            for seed in (0, 7, [41, n]):
                rng = np.random.default_rng(seed)
                z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
                assert np.array_equal(haar_random(n, seed).amps, z / np.linalg.norm(z)), (n, seed)

    def test_a_keyed_stream_gives_z_over_its_norm(self):
        # purestate simulate passes a PCG64 generator keyed by (seed, (n, 0)); n=16 is the benchmark's size
        def stream():
            return np.random.Generator(np.random.PCG64(np.random.SeedSequence(100_000, spawn_key=(16, 0))))

        rng = stream()
        z = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
        assert np.array_equal(haar_random(16, stream()).amps, z / np.linalg.norm(z))

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

    def test_equals_the_kron_chain_bit_for_bit(self):
        for n in range(1, 15):
            rng = np.random.default_rng(n)
            factors = []
            for _ in range(n):
                z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                factors.append(z / np.linalg.norm(z))
            assert np.array_equal(random_separable(n, seed=n).amps, make_state(reduce(np.kron, factors)).amps), n


class TestNamedStates:
    def test_product_families_match_kron_closed_form(self):
        for kind, sign in (("Phi1", -1.0), ("Phi2", 1.0)):
            q = np.array([1.0, sign * np.exp(1j * np.pi / 4)]) / np.sqrt(2)
            expected = np.kron(np.kron(q, q), q)
            st = named_state(kind, 3)
            assert np.allclose(st.amps, expected, atol=1e-15)

    def test_products_equal_the_kron_chain_bit_for_bit(self):
        bell = np.zeros(4, dtype=np.complex128)
        bell[0] = bell[3] = 1.0 / np.sqrt(2)
        zero = np.array([1.0, 0.0], dtype=np.complex128)
        for n in range(1, 15):
            for kind, sign in (("Phi1", -1.0), ("Phi2", 1.0)):
                q = np.array([1.0, sign * np.exp(1j * np.pi / 4)]) / np.sqrt(2)
                assert np.array_equal(named_state(kind, n).amps, make_state(reduce(np.kron, [q] * n)).amps)
            chain = make_state(reduce(np.kron, [bell] * (n // 2) + [zero] * (n % 2))).amps
            assert np.array_equal(named_state("Phi3", n).amps, chain), n

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


class TestQubitCountRule:
    MAKERS = {
        "haar_random": lambda n: haar_random(n, 0),
        "random_separable": lambda n: random_separable(n, 0),
        "named_state": lambda n: named_state("Phi1", n),
    }

    @pytest.mark.parametrize("maker", MAKERS)
    @pytest.mark.parametrize("n", [True, 2.0, "2", None])
    def test_n_must_be_an_integer(self, maker, n):
        # True used to build a state whose n was True, and 2.0 to fail with a TypeError
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            self.MAKERS[maker](n)

    @pytest.mark.parametrize("maker", MAKERS)
    @pytest.mark.parametrize("n", [0, -3])
    def test_n_must_be_at_least_one(self, maker, n):
        with pytest.raises(ValueError, match=f"^n={n}: a system needs at least 1 qubit$"):
            self.MAKERS[maker](n)

    @pytest.mark.parametrize("maker", MAKERS)
    def test_numpy_integers_are_taken(self, maker):
        assert np.array_equal(self.MAKERS[maker](np.int64(3)).amps, self.MAKERS[maker](3).amps)


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

    def test_file_text_is_the_one_line_dump(self, tmp_path):
        # n = 13 spans several of save_state's write slices
        amps = np.array([np.sqrt(1 / 3), -0.0, 1e-300j, np.sqrt(2 / 3) * np.exp(1j / 3)])
        for k, st in enumerate((make_state(amps), haar_random(1, seed=5), haar_random(13, seed=35))):
            path = tmp_path / f"state{k}.json"
            save_state(st, path)
            assert path.read_text() == json.dumps(state_to_dict(st)) + "\n"

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

    @pytest.mark.parametrize("key", ["n", "amps"])
    def test_a_missing_key_is_named(self, tmp_path, key):
        path = tmp_path / "state.json"
        save_state(haar_random(2, seed=1), path)
        obj = json.loads(path.read_text())
        del obj[key]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"^state has no '{key}' key$"):
            load_state(path)

    def test_json_nan_is_rejected_on_load(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"n": 1, "amps": [[NaN, 0.0], [1.0, 0.0]]}')
        with pytest.raises(ValueError):
            load_state(path)


class TestStateFileBytes:
    """save_state writes the repr of float pairs a slice at a time, yet the text of json.dumps byte for byte."""

    def test_n16_is_the_one_line_dump_and_reads_back(self, tmp_path):
        st = haar_random(16, seed=16)
        path = tmp_path / "state.json"
        save_state(st, path)
        assert path.read_bytes() == (json.dumps(state_to_dict(st)) + "\n").encode()
        assert np.array_equal(load_state(path).amps, st.amps)

    def test_awkward_floats_and_slice_edges(self, tmp_path):
        # 4,096 amplitudes make one slice exactly; 8,192 two; extremes of float repr in each
        for n in (12, 13):
            amps = haar_random(n, seed=n).amps.copy()
            amps[:6] = [5e-324, -0.0, 1e16 + 1j * 1e-5, 9.999999999999999e15, 1e-4j, -1.7976931348623157e308 * 1e-308]
            st = PureState(n=n, amps=amps)
            path = tmp_path / f"state{n}.json"
            save_state(st, path)
            assert path.read_text() == json.dumps(state_to_dict(st)) + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)])
    def test_non_finite_amplitudes_are_refused_and_an_existing_file_kept(self, tmp_path, bad):
        path = tmp_path / "state.json"
        save_state(haar_random(1, seed=2), path)
        before = path.read_bytes()
        st = PureState(n=1, amps=np.array([bad, 1.0], dtype=np.complex128))
        with pytest.raises(ValueError, match="^amplitude vector has non-finite entries$"):
            save_state(st, path)
        assert path.read_bytes() == before
        with pytest.raises(ValueError, match="non-finite"):
            save_state(st, tmp_path / "new.json")
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize(
        "amps, message",
        [
            ([[1.0, 0.0], [0.0, True]], "amps must be a list of [re, im] pairs of numbers"),
            ([[1.0, 0.0], (0.0, 0.0)], "amps must be a list of [re, im] pairs of numbers"),
            ([[1.0, 0.0], [0.0]], "amps must be a list of [re, im] pairs of numbers"),
            ([[1.0, 0.0], [0.0, None]], "amps must be a list of [re, im] pairs of numbers"),
            ({"0": [1.0, 0.0]}, "amps must be a list of [re, im] pairs of numbers"),
            ([[1.0, 0.0]], "state dict claims n=1 but has 1 amplitudes"),
            ([], "state dict claims n=1 but has 0 amplitudes"),
            ([[1, 0], [0, 2**1100]], "int too large to convert to float"),
        ],
    )
    def test_ill_formed_amps_messages(self, amps, message):
        with pytest.raises((ValueError, OverflowError), match=f"^{re.escape(message)}$"):
            state_from_dict({"n": 1, "amps": amps})
