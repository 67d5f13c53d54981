"""Tests for Born probabilities, noise mixing, sampling, and counts files."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats

import purestate.measurement as measurement
from purestate.states import haar_random, make_state, named_state, state_from_dict, state_to_dict
from purestate.bases import (
    COMPUTATIONAL,
    QubitBasis,
    apply_gates,
    circuit_gates,
    default_family,
    entangled_id,
    entangled_index_map,
    estimation_basis_ids,
    local_id,
    make_qubit_basis,
)
from purestate.measurement import (
    CountsData,
    CountsRecord,
    ProbTable,
    born_probs,
    born_probs_naive,
    born_tables,
    compose_lambdas,
    counts_data_from_dict,
    counts_data_to_dict,
    counts_from_dict,
    counts_to_dict,
    exact_record,
    gate_noise_lambda,
    mix_white_noise,
    read_counts,
    sample_counts,
    seeded_rng,
    simulate_counts,
    to_empirical,
    write_counts,
)


class TestBornProbs:
    def test_zero_state_computational(self):
        st = make_state([1.0, 0.0])
        table = born_probs(st, COMPUTATIONAL, default_family(2))
        assert np.allclose(table.probs, [1.0, 0.0], atol=1e-15)

    def test_circular_state_in_matching_basis(self):
        # (|0> + i|1>)/sqrt(2) is the plus state of the quarter-phase basis
        st = make_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        table = born_probs(st, local_id(2, 1), default_family(2))
        assert np.allclose(table.probs, [1.0, 0.0], atol=1e-12)

    def test_circular_state_in_real_basis_is_unbiased(self):
        st = make_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        table = born_probs(st, local_id(1, 1), default_family(2))
        assert np.allclose(table.probs, [0.5, 0.5], atol=1e-12)

    def test_fast_path_matches_projector_definition(self):
        # circuit-based evaluation against the direct |<b_k|psi>|^2 definition
        for n, m in ((2, 2), (3, 3), (4, 2)):
            fam = default_family(m)
            st = haar_random(n, seed=100 + n)
            ids = estimation_basis_ids(n, m, "local") + estimation_basis_ids(n, m, "entangled")[1:]
            for id in ids:
                fast = born_probs(st, id, fam).probs
                slow = born_probs_naive(st, id, fam).probs
                assert np.allclose(fast, slow, atol=1e-12)
                assert np.isclose(fast.sum(), 1.0, atol=1e-12)

    def test_fast_path_matches_at_five_qubits(self):
        fam = default_family(2)
        st = haar_random(5, seed=55)
        for id in (local_id(2, 3), entangled_id(1)):
            assert np.allclose(
                born_probs(st, id, fam).probs, born_probs_naive(st, id, fam).probs, atol=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        st = haar_random(2, seed=1)
        with pytest.raises(ValueError):
            born_probs(st, local_id(1, 3), default_family(2))


def from_scratch(st, id, fam):
    """|amplitudes|^2 after the basis's whole gate list, applied to the state itself."""
    p = np.abs(apply_gates(st.amps, st.n, circuit_gates(id, st.n, fam))) ** 2
    return p[entangled_index_map(st.n)] if id.tag == "entangled" else p


class TestBornChain:
    """born_tables continues local:a:b from local:a:(b-1); every table must equal a from-scratch one bit for bit."""

    def check(self, st, ids, fam):
        tables = list(born_tables(st, ids, fam))
        assert [t.basis for t in tables] == ids
        for id, t in zip(ids, tables):
            assert np.array_equal(t.probs, from_scratch(st, id, fam)), id

    def test_estimation_order_shuffled_and_reversed(self):
        rng = np.random.default_rng(4)
        for n, m in ((1, 2), (3, 3), (5, 2), (6, 4)):
            fam = default_family(m)
            st = haar_random(n, seed=300 + n)
            ids = estimation_basis_ids(n, m, "local") + estimation_basis_ids(n, m, "entangled")[1:]
            self.check(st, ids, fam)
            self.check(st, ids[::-1], fam)
            self.check(st, [ids[k] for k in rng.permutation(len(ids))], fam)

    def test_lone_and_interleaved_local_bases(self):
        fam = default_family(3)
        st = haar_random(6, seed=7)
        self.check(st, [local_id(2, 5)], fam)
        self.check(st, [local_id(a, b) for b in range(1, 7) for a in (1, 2, 3)], fam)
        self.check(st, [local_id(1, 2), local_id(1, 3), local_id(2, 4), local_id(2, 5), local_id(1, 6)], fam)
        self.check(st, [local_id(1, 3), COMPUTATIONAL, local_id(1, 4), entangled_id(1), local_id(1, 5)], fam)

    def test_born_probs_is_a_one_basis_chain(self):
        fam = default_family(2)
        st = haar_random(4, seed=8)
        for id in estimation_basis_ids(4, 2, "local") + [entangled_id(2)]:
            assert np.array_equal(born_probs(st, id, fam).probs, from_scratch(st, id, fam))

    def test_each_basis_matrix_is_built_once(self, monkeypatch):
        built = []
        unitary = QubitBasis.unitary
        monkeypatch.setattr(QubitBasis, "unitary", lambda qb: built.append(qb) or unitary(qb))
        fam = [make_qubit_basis(0.6, 0.8, 0.3), make_qubit_basis(0.8, 0.6, 1.9)]
        st = haar_random(5, seed=10)
        ids = estimation_basis_ids(5, 2, "local") + estimation_basis_ids(5, 2, "entangled")[1:]
        self.check(st, ids, fam)
        assert built == fam  # 20 local and 10 entangled gate applications, one matrix per basis
        assert not fam[0].u_dagger.flags.writeable

    def test_invalid_id_in_a_run_rejected(self):
        st = haar_random(3, seed=9)
        for ids in ([local_id(1, 0), local_id(1, 1)], [local_id(1, 3), local_id(1, 4)], [local_id(3, 1), local_id(3, 2)]):
            with pytest.raises(ValueError):
                list(born_tables(st, ids, default_family(2)))


class TestEntangledContraction:
    """Every entangled table in one contraction pass, equal to the controlled ladder's bit for bit."""

    def test_batched_pass_equals_the_ladder(self):
        for n in range(1, 11):
            for m in (2, 3, 4):
                fam = default_family(m)
                ids = [entangled_id(a) for a in range(1, m + 1)]
                for st in (haar_random(n, seed=500 + n), named_state("Phi1", n)):
                    for id, t in zip(ids, born_tables(st, ids, fam)):
                        assert np.array_equal(t.probs, from_scratch(st, id, fam)), (n, m, id)

    def test_one_id_equals_its_table_from_the_batched_pass(self):
        fam = [make_qubit_basis(0.6, 0.8, 0.3), make_qubit_basis(0.8, 0.6, 1.9), make_qubit_basis(0.28, 0.96, 4.0)]
        for n in (1, 4, 7):
            st = haar_random(n, seed=60 + n)
            ids = [entangled_id(3), COMPUTATIONAL, entangled_id(1), local_id(2, 1), entangled_id(2), entangled_id(1)]
            for id, t in zip(ids, born_tables(st, ids, fam)):
                assert np.array_equal(born_probs(st, id, fam).probs, t.probs), (n, id)

    def test_no_gate_runs_on_the_entangled_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the entangled tables ran a gate")

        monkeypatch.setattr(measurement, "apply_gates", refuse)
        monkeypatch.setattr(measurement, "circuit_gates", refuse)
        st = haar_random(5, seed=3)
        tables = list(born_tables(st, [entangled_id(2), entangled_id(1)], default_family(2)))
        assert [t.basis for t in tables] == [entangled_id(2), entangled_id(1)]
        assert all(np.isclose(t.probs.sum(), 1.0, atol=1e-12) for t in tables)

    def test_out_of_range_family_index_rejected(self):
        st = haar_random(3, seed=4)
        for a in (0, 3, -1):
            with pytest.raises(ValueError, match="out of range"):
                list(born_tables(st, [COMPUTATIONAL, entangled_id(a)], default_family(2)))


class TestWhiteNoise:
    def test_identity_at_zero(self):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([0.3, 0.7]))
        assert np.array_equal(mix_white_noise(table, 0.0).probs, table.probs)

    def test_uniform_at_one(self):
        table = ProbTable(n=2, basis=COMPUTATIONAL, probs=np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(mix_white_noise(table, 1.0).probs, 0.25, atol=1e-15)

    def test_half_mixture_single_qubit(self):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([1.0, 0.0]))
        assert np.allclose(mix_white_noise(table, 0.5).probs, [0.75, 0.25], atol=1e-15)

    def test_conserves_probability(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(8))
        mixed = mix_white_noise(ProbTable(n=3, basis=COMPUTATIONAL, probs=p), 0.37)
        assert np.isclose(mixed.probs.sum(), 1.0, atol=1e-12)

    def test_out_of_range_rejected(self):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            mix_white_noise(table, -0.1)
        with pytest.raises(ValueError):
            mix_white_noise(table, 1.1)
        for bad in (float("nan"), float("inf"), -float("inf"), True, "0.1"):
            with pytest.raises(ValueError, match="in \\[0, 1\\]"):
                mix_white_noise(table, bad)

    def test_commutes_with_marginalization(self):
        # tracing out the low qubit before or after mixing gives the same result
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(8))
        lam = 0.37
        mixed = mix_white_noise(ProbTable(n=3, basis=COMPUTATIONAL, probs=p), lam).probs
        marg_then_mix = mix_white_noise(
            ProbTable(n=2, basis=COMPUTATIONAL, probs=p.reshape(4, 2).sum(axis=1)), lam
        ).probs
        assert np.allclose(mixed.reshape(4, 2).sum(axis=1), marg_then_mix, atol=1e-12)


class TestGateNoise:
    def test_single_gate_weights(self):
        assert np.isclose(gate_noise_lambda(1, 0.01), 0.02, atol=1e-15)
        assert np.isclose(gate_noise_lambda(2, 0.03), 0.04, atol=1e-15)

    def test_composition(self):
        assert compose_lambdas([]) == 0.0
        assert np.isclose(compose_lambdas([0.25]), 0.25, atol=1e-15)
        assert np.isclose(compose_lambdas([0.1, 0.2]), 1 - 0.9 * 0.8, atol=1e-15)

    def test_composition_is_monotone(self):
        acc = [compose_lambdas([0.01] * k) for k in range(5)]
        assert all(b > a for a, b in zip(acc, acc[1:]))
        assert all(0.0 <= lam < 1.0 for lam in acc)


class TestSampling:
    def test_point_mass_stays_put(self):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([1.0, 0.0]))
        rec = sample_counts(table, 500, seeded_rng(0))
        assert rec.counts[0] == 500 and rec.counts[1] == 0

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(2)
        table = ProbTable(n=2, basis=COMPUTATIONAL, probs=rng.dirichlet(np.ones(4)))
        rec = sample_counts(table, 8192, seeded_rng(3))
        assert rec.counts.sum() == 8192
        assert rec.shots == 8192

    def test_seed_determinism_and_stream_separation(self):
        table = ProbTable(n=2, basis=COMPUTATIONAL, probs=np.full(4, 0.25))
        a = sample_counts(table, 1000, seeded_rng(7, (1, 2)))
        b = sample_counts(table, 1000, seeded_rng(7, (1, 2)))
        c = sample_counts(table, 1000, seeded_rng(7, (1, 3)))
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_binomial_scale_at_large_shots(self):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([0.5, 0.5]))
        rec = sample_counts(table, 10**6, seeded_rng(11))
        # 5 sigma with sigma = sqrt(shots)/2 = 500
        assert abs(rec.counts[0] - 500_000) < 2500

    @pytest.mark.parametrize("shots", [0, True, 512.0, "512"])
    def test_rejects_nonpositive_shots(self, shots):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="shots"):
            sample_counts(table, shots, seeded_rng(0))

    @pytest.mark.parametrize("bad", [None, True, -1, 1.5, "3"])
    def test_master_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match="seed"):
            seeded_rng(bad, (1, 2))

    def test_numpy_integer_master_seed_gives_the_int_stream(self):
        a = seeded_rng(np.int64(7), (1,)).integers(1 << 62, size=4)
        assert np.array_equal(a, seeded_rng(7, (1,)).integers(1 << 62, size=4))

    def test_sampling_is_unbiased(self):
        # pool many independent draws and chi-square against the exact law
        st = haar_random(2, seed=19)
        table = born_probs(st, local_id(1, 1), default_family(2))
        pooled = np.zeros(4)
        for k in range(200):
            pooled += sample_counts(table, 1000, seeded_rng(23, (k,))).counts
        result = stats.chisquare(pooled, table.probs * pooled.sum())
        assert result.pvalue > 1e-4

    def test_empirical_distribution_converges(self):
        st = haar_random(2, seed=29)
        table = born_probs(st, entangled_id(1), default_family(2))
        rec = sample_counts(table, 10**6, seeded_rng(31))
        ks = np.max(np.abs(np.cumsum(to_empirical(rec)) - np.cumsum(table.probs)))
        assert ks < 0.01


class TestSimulateCounts:
    def test_one_record_per_basis(self):
        st = haar_random(2, seed=41)
        ids = estimation_basis_ids(2, 2, "local")
        data = simulate_counts(st, ids, default_family(2), 256, seed=5)
        assert data.n == 2
        assert [str(r.basis) for r in data.records] == [str(i) for i in ids]
        assert all(r.counts.sum() == 256 for r in data.records)

    def test_extending_the_basis_list_preserves_earlier_records(self):
        st = haar_random(2, seed=43)
        fam = default_family(2)
        short = simulate_counts(st, [COMPUTATIONAL, local_id(1, 1)], fam, 512, seed=9)
        longer = simulate_counts(st, [COMPUTATIONAL, local_id(1, 1), local_id(2, 1)], fam, 512, seed=9)
        for a, b in zip(short.records, longer.records[:2]):
            assert np.array_equal(a.counts, b.counts)

    def test_noise_lambda_is_applied(self):
        st = make_state([1.0, 0.0])
        noiseless = simulate_counts(st, [COMPUTATIONAL], default_family(2), 4096, seed=0)
        noisy = simulate_counts(st, [COMPUTATIONAL], default_family(2), 4096, seed=0, noise_lambda=0.5)
        assert noiseless.records[0].counts[1] == 0
        # the mixed distribution puts weight 0.25 on the dead outcome
        assert noisy.records[0].counts[1] > 700

    @pytest.mark.parametrize("shots", [0, -5, True, 512.0])
    def test_shots_must_be_a_positive_integer(self, shots):
        st = make_state([1.0, 0.0])
        with pytest.raises(ValueError, match="shots"):
            simulate_counts(st, [COMPUTATIONAL], default_family(2), shots, seed=0)

    @pytest.mark.parametrize("bad", [None, True, -1, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        st = make_state([1.0, 0.0])
        with pytest.raises(ValueError, match="seed"):
            simulate_counts(st, [COMPUTATIONAL], default_family(2), 64, seed=bad)

    def test_records_are_the_keyed_draws_of_the_tables(self):
        # simulate_counts draws through sample_tables: table idx from stream (seed, (*seed_key, idx))
        st = haar_random(3, seed=45)
        ids = estimation_basis_ids(3, 2, "entangled")
        data = simulate_counts(st, ids, default_family(2), 300, seed=4, seed_key=(3, 9), noise_lambda=0.1)
        tables = [mix_white_noise(t, 0.1) for t in born_tables(st, ids, default_family(2))]
        for idx, (rec, table) in enumerate(zip(data.records, tables)):
            want = sample_counts(table, 300, seeded_rng(4, (3, 9, idx)))
            assert rec.basis == want.basis and np.array_equal(rec.counts, want.counts)

    def test_noise_lambda_outside_the_unit_interval_rejected(self):
        st = make_state([1.0, 0.0])
        for bad in (float("nan"), -0.4, float("inf"), -float("inf"), 1.5, True):
            with pytest.raises(ValueError, match="noise_lambda"):
                simulate_counts(st, [COMPUTATIONAL], default_family(2), 64, seed=0, noise_lambda=bad)


class TestExactRecords:
    def test_exact_record_round_trip(self):
        st = haar_random(2, seed=51)
        table = born_probs(st, COMPUTATIONAL, default_family(2))
        rec = exact_record(table)
        assert rec.shots == 0
        assert np.array_equal(to_empirical(rec), table.probs)

    def test_exact_records_are_not_serializable(self):
        table = ProbTable(n=1, basis=COMPUTATIONAL, probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            counts_to_dict(exact_record(table), 1)


def random_counts_data(n, mode, m, shots, seed):
    st = haar_random(n, seed=seed)
    ids = estimation_basis_ids(n, m, mode)
    return simulate_counts(st, ids, default_family(m), shots, seed=seed)


class TestCountsIO:
    def test_sparse_zero_outcomes_round_trip(self):
        # low shot counts leave most outcomes at zero, exercising sparse maps
        cases = []
        for i in range(10):
            cases.append(random_counts_data(1 + i % 4, "local", 2, 16, seed=60 + i))
        for i in range(10):
            cases.append(random_counts_data(1 + i % 3, "entangled", 3, 4096, seed=80 + i))
        for data in cases:
            back = counts_data_from_dict(json.loads(json.dumps(counts_data_to_dict(data))))
            assert back.n == data.n
            assert all(a == b for a, b in zip(back.family, data.family))
            for ra, rb in zip(back.records, data.records):
                assert str(ra.basis) == str(rb.basis)
                assert ra.shots == rb.shots
                assert np.array_equal(ra.counts, rb.counts)

    def test_file_text_is_the_indented_dump(self, tmp_path):
        # write_counts encodes record by record, yet writes exactly json.dump(..., indent=1)
        cases = [random_counts_data(n, mode, m, 64 << n, seed=10 * n + m)
                 for n in range(1, 7) for mode in ("local", "entangled") for m in (2, 3, 4)]
        fam = default_family(2)
        empty = CountsRecord(basis=local_id(1, 1), shots=3, counts=np.zeros(4, dtype=np.int64))
        cases.append(CountsData(n=2, family=fam, records=[empty]))
        cases.append(CountsData(n=2, family=fam, records=[]))
        for k, data in enumerate(cases):
            path = tmp_path / f"counts{k}.json"
            write_counts(path, data)
            assert path.read_text() == json.dumps(counts_data_to_dict(data), indent=1) + "\n"

    def test_counts_of_the_wrong_length_not_written(self):
        rec = CountsRecord(basis=COMPUTATIONAL, shots=1, counts=np.array([0, 1, 0, 0]))
        with pytest.raises(ValueError):
            counts_to_dict(rec, 3)

    def test_file_round_trip(self, tmp_path):
        data = random_counts_data(3, "local", 2, 100, seed=7)
        path = tmp_path / "counts.json"
        write_counts(path, data)
        back = read_counts(path)
        for ra, rb in zip(back.records, data.records):
            assert np.array_equal(ra.counts, rb.counts)

    def test_json_text_matches_a_plain_reference(self):
        # the emitted text is pinned: nonzero outcomes only, ascending, as bitstring -> int
        data = random_counts_data(4, "local", 3, 40, seed=92)
        want = {
            "n": 4,
            "family": [{"u": qb.u, "v": qb.v, "phi": qb.phi} for qb in data.family],
            "records": [
                {
                    "basis": {"tag": r.basis.tag, "a": r.basis.a, "b": r.basis.b} if r.basis.tag == "local"
                    else {"tag": "computational"},
                    "shots": 40,
                    "counts": {format(k, "04b"): int(c) for k, c in enumerate(list(r.counts)) if c != 0},
                }
                for r in data.records
            ],
        }
        assert json.dumps(counts_data_to_dict(data), indent=1) == json.dumps(want, indent=1)
        rec = CountsRecord(basis=COMPUTATIONAL, shots=6, counts=np.array([0, 5, 0, 1]))
        assert json.dumps(counts_to_dict(rec, 2)) == '{"basis": {"tag": "computational"}, "shots": 6, "counts": {"01": 5, "11": 1}}'

    def test_omitted_outcomes_read_as_zero(self):
        rec = counts_from_dict({"basis": {"tag": "computational"}, "shots": 10, "counts": {"00": 10}}, 2)
        assert np.array_equal(rec.counts, [10, 0, 0, 0])

    def test_bitstring_convention_is_big_endian_qubit_order(self):
        rec = counts_from_dict({"basis": {"tag": "computational"}, "shots": 5, "counts": {"10": 5}}, 2)
        assert rec.counts[2] == 5

    def test_shots_mismatch_rejected(self):
        with pytest.raises(ValueError):
            counts_from_dict({"basis": {"tag": "computational"}, "shots": 10, "counts": {"00": 9}}, 2)

    def test_bad_bitstrings_rejected(self):
        for key in ("0", "000", "0x"):
            with pytest.raises(ValueError):
                counts_from_dict({"basis": {"tag": "computational"}, "shots": 1, "counts": {key: 1}}, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            counts_from_dict({"basis": {"tag": "computational"}, "shots": 1, "counts": {"00": -1}}, 2)

    def test_nonpositive_shots_rejected(self):
        with pytest.raises(ValueError):
            counts_from_dict({"basis": {"tag": "computational"}, "shots": 0, "counts": {}}, 2)

    def test_duplicate_basis_ids_rejected(self):
        data = random_counts_data(2, "local", 2, 32, seed=90)
        obj = counts_data_to_dict(data)
        obj["records"].append(obj["records"][0])
        with pytest.raises(ValueError):
            counts_data_from_dict(obj)

    def test_bad_system_size_rejected(self):
        obj = counts_data_to_dict(random_counts_data(2, "local", 2, 32, seed=91))
        obj["n"] = 0
        with pytest.raises(ValueError):
            counts_data_from_dict(obj)

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            read_counts(path)

    def test_twenty_random_sets_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(123)
        for case in range(20):
            n = int(rng.integers(1, 5))
            mode = "local" if case % 2 == 0 else "entangled"
            shots = int(rng.choice([8, 128, 8192]))
            data = random_counts_data(n, mode, 2, shots, seed=200 + case)
            path = tmp_path / f"case{case}.json"
            write_counts(path, data)
            back = read_counts(path)
            assert back.n == data.n
            for ra, rb in zip(back.records, data.records):
                assert str(ra.basis) == str(rb.basis)
                assert ra.shots == rb.shots
                assert np.array_equal(ra.counts, rb.counts)


def record(counts, shots=5):
    return {"basis": {"tag": "computational"}, "shots": shots, "counts": counts}


class TestCountsMessages:
    """Each malformed record gets its own message; of several faults, the first entry in file order is named."""

    @pytest.mark.parametrize(
        "obj, message",
        [
            (record({"0": 5}), "bad outcome bitstring '0' for n=2"),
            (record({"000": 5}), "bad outcome bitstring '000' for n=2"),
            (record({"0x": 5}), "bad outcome bitstring '0x' for n=2"),
            (record({"00": 5, "2 ": 0}), "bad outcome bitstring '2 ' for n=2"),
            (record({"00": -1}), "count -1 for outcome '00' is not a non-negative integer"),
            (record({"00": 1.7}), "count 1.7 for outcome '00' is not a non-negative integer"),
            (record({"00": True}), "count True for outcome '00' is not a non-negative integer"),
            (record({"00": "1"}), "count '1' for outcome '00' is not a non-negative integer"),
            (record({"00": None}), "count None for outcome '00' is not a non-negative integer"),
            (record({"00": 1.5, "x": 1}), "count 1.5 for outcome '00' is not a non-negative integer"),
            (record({"01": 2, "1": 1.5}), "bad outcome bitstring '1' for n=2"),
            (record({"0": -1}), "bad outcome bitstring '0' for n=2"),
            (record({"00": 4}), "counts sum 4 does not match shots 5"),
            (record({"00": 3, "11": 2}, shots=0), "record for basis computational has non-positive shots 0"),
            (record({"00": 1}, shots=1.0), "shots must be an integer, got 1.0"),
            (record({"01": 2**70}), "count 1180591620717411303424 for outcome '01' exceeds the record's shots 5"),
            (record({"01": 6, "10": -1}), "count 6 for outcome '01' exceeds the record's shots 5"),
            (record({"01": 2**70}, shots=2**70), "record for basis computational has shots 1180591620717411303424 beyond the int64 range"),
        ],
    )
    def test_message(self, obj, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            counts_from_dict(obj, 2)

    def test_counts_vector_beyond_the_memory_bound_rejected(self):
        # 2^40 int64 entries would be 8 TiB; the bound is checked before anything is allocated
        with pytest.raises(ValueError, match="memory bound"):
            counts_from_dict({"basis": {"tag": "computational"}, "shots": 1, "counts": {"1" * 40: 1}}, 40)
        with pytest.raises(ValueError, match="memory bound"):
            counts_from_dict(record({}), 10**12)

    def test_file_level_messages(self):
        good = counts_data_to_dict(random_counts_data(2, "local", 2, 32, seed=90))
        dup = dict(good, records=good["records"] + good["records"][:1])
        with pytest.raises(ValueError, match="^duplicate record for basis computational$"):
            counts_data_from_dict(dup)
        with pytest.raises(ValueError, match="^bad system size n=0$"):
            counts_data_from_dict(dict(good, n=0))


class TestCountsJsonTypes:
    """Counts, shots and n must be JSON integers: nothing is coerced by int()."""

    def test_non_integer_counts_rejected(self):
        # 1.7 used to be stored as 1, which with shots = 1 passed the sum check
        for bad in (1.7, 1.0, True, "1", None):
            with pytest.raises(ValueError):
                counts_from_dict({"basis": {"tag": "computational"}, "shots": 1, "counts": {"00": bad}}, 2)

    def test_non_integer_shots_rejected(self):
        for bad in (1.0, True, "1"):
            with pytest.raises(ValueError):
                counts_from_dict({"basis": {"tag": "computational"}, "shots": bad, "counts": {"00": 1}}, 2)

    def test_non_integer_system_size_rejected(self):
        obj = counts_data_to_dict(random_counts_data(2, "local", 2, 32, seed=93))
        for bad in (2.0, True, "2"):
            obj["n"] = bad
            with pytest.raises(ValueError):
                counts_data_from_dict(obj)


# JSON values that are not integers: every one must be rejected where an integer belongs
NOT_AN_INT = hst.one_of(hst.booleans(), hst.floats(allow_nan=True), hst.text(max_size=3), hst.none())
# ...and where an amplitude component belongs, along with non-finite floats
NOT_A_COMPONENT = hst.one_of(hst.booleans(), hst.sampled_from([np.nan, np.inf, -np.inf]), hst.text(max_size=3), hst.none())


class TestJsonProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=hst.integers(1, 4), mode=hst.sampled_from(["local", "entangled"]), shots=hst.integers(1, 5000), seed=hst.integers(0, 2**32 - 1))
    def test_counts_round_trip_is_exact(self, n, mode, shots, seed):
        data = random_counts_data(n, mode, 2, shots, seed)
        back = counts_data_from_dict(json.loads(json.dumps(counts_data_to_dict(data))))
        assert back.n == data.n and back.family == data.family
        for ra, rb in zip(back.records, data.records, strict=True):
            assert (ra.basis, ra.shots) == (rb.basis, rb.shots)
            assert np.array_equal(ra.counts, rb.counts)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=hst.data(), n=hst.integers(1, 3), seed=hst.integers(0, 2**32 - 1))
    def test_mutated_counts_rejected(self, case, n, seed):
        obj = json.loads(json.dumps(counts_data_to_dict(random_counts_data(n, "local", 2, 64, seed))))
        i = case.draw(hst.integers(1, len(obj["records"]) - 1))
        rec = obj["records"][i]
        where = case.draw(hst.sampled_from(["n", "shots", "count", "a", "b", "sum", "container"]))
        if where == "n":
            obj["n"] = case.draw(NOT_AN_INT)
        elif where == "container":
            # a JSON value of the wrong kind where an object or array belongs
            part = case.draw(hst.sampled_from(["top", "family", "family entry", "records", "record", "basis", "counts"]))
            if part == "top":
                obj = case.draw(hst.sampled_from([[obj], "counts", 1]))
            elif part == "family":
                obj["family"] = obj["family"][0]
            elif part == "family entry":
                obj["family"][0] = case.draw(hst.sampled_from([1, "u", [0.5, 0.5, 0.0]]))
            elif part == "records":
                obj["records"] = rec
            elif part == "record":
                obj["records"][i] = case.draw(hst.sampled_from(["record", 1, [rec]]))
            elif part == "basis":
                rec["basis"] = case.draw(hst.sampled_from(["computational", 1, ["local", 1, 1]]))
            else:
                rec["counts"] = case.draw(hst.sampled_from([list(rec["counts"].values()), list(rec["counts"]), "0"]))
        elif where in ("a", "b"):
            rec["basis"][where] = case.draw(NOT_AN_INT)
        else:
            key = case.draw(hst.sampled_from(sorted(rec["counts"])))
            if where == "shots":
                rec["shots"] = case.draw(NOT_AN_INT)
            elif where == "count":
                rec["counts"][key] = case.draw(NOT_AN_INT)
            else:
                rec["counts"][key] += case.draw(hst.integers(-rec["counts"][key], 64).filter(bool))
        with pytest.raises(ValueError):
            counts_data_from_dict(obj)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=hst.integers(1, 6), seed=hst.integers(0, 2**32 - 1))
    def test_state_round_trip_is_exact(self, n, seed):
        st = haar_random(n, seed=seed)
        back = state_from_dict(json.loads(json.dumps(state_to_dict(st))))
        assert back.n == n and np.array_equal(back.amps, st.amps)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=hst.data(), n=hst.integers(1, 4), seed=hst.integers(0, 2**32 - 1))
    def test_mutated_state_rejected(self, case, n, seed):
        obj = json.loads(json.dumps(state_to_dict(haar_random(n, seed=seed))))
        i = case.draw(hst.integers(0, (1 << n) - 1))
        where = case.draw(hst.sampled_from(["n", "component", "pair", "top"]))
        if where == "n":
            obj["n"] = case.draw(NOT_AN_INT)
        elif where == "top":
            obj = case.draw(hst.sampled_from([[obj], obj["amps"], "state"]))
        elif where == "component":
            obj["amps"][i][case.draw(hst.integers(0, 1))] = case.draw(NOT_A_COMPONENT)
        else:
            obj["amps"][i] = case.draw(hst.sampled_from([obj["amps"][i][:1], obj["amps"][i] + [0.0], obj["amps"][i][0]]))
        with pytest.raises(ValueError):
            state_from_dict(obj)
