"""Tests for the Monte Carlo harness, bootstrap band, and the grid-search oracle."""

import json
import os
import time

import numpy as np
import pytest

from purestate.states import MEMORY_BOUND_BYTES, fidelity, haar_random, make_state, named_state
from purestate.bases import default_family, estimation_basis_ids, local_id
import purestate.benchmark as benchmark
from purestate.measurement import (
    CountsRecord,
    ProbTable,
    born_probs,
    exact_record,
    sample_counts,
    seeded_rng,
    simulate_counts,
    to_empirical,
)
from purestate.reconstruction import Diagnostics, ReconstructionOptions, reconstruct
from purestate.benchmark import (
    BenchConfig,
    bench_run,
    bootstrap_ci,
    make_bench_state,
    prep_gate_counts,
    prep_noise_lambda,
    run_trial,
    trial_bytes,
    write_rows_csv,
    write_summary_json,
)
from reference import oracle_grid_reconstruct, read_rows_csv


class TestBenchConfig:
    def test_range_is_coerced_to_ints(self):
        cfg = BenchConfig(n_range=[2.0, 3.0])
        assert cfg.n_range == (2, 3)
        assert BenchConfig(n_range=(np.int64(4),)).n_range == (4,)

    def test_range_entries_must_be_whole_sizes(self):
        for bad in (2.7, True, "3", 0, -1, 0.0, float("nan"), float("inf"), None):
            with pytest.raises(ValueError, match="n_range"):
                BenchConfig(n_range=(2, bad))

    @pytest.mark.parametrize("n_range", [(2, 2), (2, 2.0), (3, 2, np.int64(3))])
    def test_a_repeated_system_size_is_refused(self, n_range):
        # a repeated n ran its trials twice over and wrote each CSV row twice
        with pytest.raises(ValueError, match="^n_range repeats a system size"):
            BenchConfig(n_range=n_range)

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(n_range=())
        with pytest.raises(ValueError):
            BenchConfig(n_range=(2,), trials=0)
        with pytest.raises(ValueError):
            BenchConfig(n_range=(2,), shots=0)
        with pytest.raises(ValueError):
            BenchConfig(n_range=(2,), state_family="w")
        with pytest.raises(ValueError):
            BenchConfig(n_range=(2,), mode="both")

    def test_state_family_in_any_case(self):
        assert BenchConfig(n_range=(2,), state_family="GHZ").state_family == "ghz"
        assert BenchConfig(n_range=(2,), state_family="Phi3").state_family == "phi3"
        for bad in (None, 3, b"ghz", ("ghz",)):
            with pytest.raises(ValueError, match="unknown state family"):
                BenchConfig(n_range=(2,), state_family=bad)

    def test_family_needs_two_bases(self):
        for m in (1, 0, -2):
            with pytest.raises(ValueError, match="at least 2 bases"):
                BenchConfig(n_range=(2,), m=m)

    def test_noise_lambda_must_be_a_weight(self):
        for lam in (float("nan"), float("inf"), -0.1, 1.5, True, "0.1"):
            with pytest.raises(ValueError, match="noise_lambda"):
                BenchConfig(n_range=(2,), noise_lambda=lam)
        for lam in (None, 0.0, 0.25, 1.0):
            assert BenchConfig(n_range=(2,), noise_lambda=lam).noise_lambda == lam

    def test_shots_and_trials_must_be_integers(self):
        for field in ("shots", "trials", "m"):
            for bad in (True, 8.0, "8"):
                with pytest.raises(ValueError, match=field):
                    BenchConfig(n_range=(2,), **{field: bad})

    def test_shots_must_fit_in_int64(self):
        # they were taken, and the first trial's multinomial draw raised OverflowError
        assert BenchConfig(n_range=(2,), shots=2**63 - 1).shots == 2**63 - 1
        with pytest.raises(ValueError, match=f"^shots {2**63} beyond the int64 range$"):
            BenchConfig(n_range=(2,), shots=2**63)

    @pytest.mark.parametrize("bad", [None, True, -1, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match="seed"):
            BenchConfig(n_range=(2,), seed=bad)

    def test_numpy_integer_seed_is_accepted(self):
        assert BenchConfig(n_range=(2,), seed=np.int64(3)).seed == 3


class TestMakeBenchState:
    def test_named_kinds_are_deterministic(self):
        a = make_bench_state("ghz", 3, seeded_rng(0))
        b = make_bench_state("phi4", 3, seeded_rng(99))
        assert np.array_equal(a.amps, b.amps)
        assert np.array_equal(a.amps, named_state("Phi4", 3).amps)

    def test_random_kinds_consume_the_stream(self):
        a = make_bench_state("haar", 2, seeded_rng(4, (2, 0)))
        b = make_bench_state("haar", 2, seeded_rng(4, (2, 0)))
        c = make_bench_state("haar", 2, seeded_rng(4, (2, 1)))
        assert np.array_equal(a.amps, b.amps)
        assert not np.array_equal(a.amps, c.amps)


class TestBenchRun:
    def test_rows_are_sorted_and_complete(self):
        cfg = BenchConfig(n_range=(3, 2), m=2, shots=512, trials=3, seed=1)
        result = bench_run(cfg)
        assert [(r.n, r.trial) for r in result.rows] == [(n, t) for n in (2, 3) for t in range(3)]
        assert all(0.0 <= r.fidelity <= 1.0 + 1e-12 for r in result.rows)
        assert result.runtime_seconds > 0

    def test_deterministic_across_runs(self):
        cfg = BenchConfig(n_range=(2,), shots=256, trials=4, seed=8)
        a = bench_run(cfg)
        b = bench_run(cfg)
        assert [r.fidelity for r in a.rows] == [r.fidelity for r in b.rows]

    @pytest.mark.parametrize("noise_lambda", [None, 0.07])
    @pytest.mark.parametrize("mode", ["local", "entangled"])
    @pytest.mark.parametrize("family", benchmark.STATE_FAMILIES)
    def test_single_trial_matches_the_manual_pipeline_bitwise(self, family, mode, noise_lambda):
        # every trial equals the from-scratch pipeline: its own state stream, tables and options
        n, trials, seed = 4, 3, 11
        cfg = BenchConfig(
            n_range=(n,), m=2, mode=mode, shots=2048, trials=trials, seed=seed,
            state_family=family, noise_lambda=noise_lambda,
        )
        result = bench_run(cfg)
        for trial, row in enumerate(result.rows):
            state = make_bench_state(family, n, seeded_rng(seed, (n, trial)))
            ids = estimation_basis_ids(n, 2, mode)
            data = simulate_counts(
                state, ids, default_family(2), 2048, seed=seed, seed_key=(n, trial), noise_lambda=noise_lambda or 0.0
            )
            opts = ReconstructionOptions(
                mode=mode, m=2, family=tuple(default_family(2)), use_extra_rows=(mode == "local")
            )
            est, diag = reconstruct(data.records, n, opts)

            assert (row.n, row.trial) == (n, trial)
            assert row.fidelity == fidelity(state, est)
            assert row.cond_max == diag.cond_max
            assert row.fallbacks == diag.n_fallbacks
            _, truth, est_trial = run_trial(cfg, n, trial)
            assert np.array_equal(truth.amps, state.amps)
            assert np.array_equal(est_trial.amps, est.amps)

    def test_named_state_trials_reuse_one_plan_per_n(self, monkeypatch):
        # phi1: the state and its Born tables are built once per (config, n); no trial builds a state stream
        calls = {"named_state": 0, "born_tables": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(benchmark, "named_state", counted("named_state", benchmark.named_state))
        monkeypatch.setattr(benchmark, "born_tables", counted("born_tables", benchmark.born_tables))
        streams = []
        monkeypatch.setattr(benchmark, "seeded_rng", lambda *args: streams.append(args))
        cfg = BenchConfig(n_range=(3, 4), mode="entangled", shots=1024, trials=4, seed=2, state_family="phi1")
        rows = bench_run(cfg).rows
        assert calls == {"named_state": 2, "born_tables": 2}
        assert streams == []
        # the plan keeps only the last n it served
        assert cfg._trial_plan(4) is cfg._trial_plan(4)
        assert calls["named_state"] == 2
        assert run_trial(cfg, 3, 1)[0] == rows[1]
        assert calls == {"named_state": 3, "born_tables": 3}
        assert all(not table.probs.flags.writeable for table in cfg._trial_plan(3).tables)

    def test_run_trial_returns_truth_and_estimate(self):
        cfg = BenchConfig(n_range=(2,), shots=1024, trials=1, seed=3)
        row, truth, est = run_trial(cfg, 2, 0)
        assert row.fidelity == fidelity(truth, est)

    def test_trials_and_bootstrap_read_no_per_block_mapping(self, monkeypatch):
        # conds and phases build a dict over every solved block; the hot paths read only O(levels) summaries
        def refuse(self):
            raise AssertionError("per-block diagnostics mapping built on a hot path")

        monkeypatch.setattr(Diagnostics, "conds", property(refuse))
        monkeypatch.setattr(Diagnostics, "phases", property(refuse))
        for mode in ("local", "entangled"):
            row, truth, est = run_trial(BenchConfig(n_range=(4,), mode=mode, shots=1024, trials=1, seed=4), 4, 0)
            assert row.fidelity == fidelity(truth, est)
        target = make_bench_state("ghz", 4, None)
        data = simulate_counts(target, estimation_basis_ids(4, 2, "local"), default_family(2), 1024, seed=4)
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        point, lo, hi = bootstrap_ci(data.records, 4, opts, target, 100, seed=4)
        assert lo <= point <= hi

    def test_memory_guard(self):
        with pytest.raises(ValueError):
            bench_run(BenchConfig(n_range=(28,), trials=1))
        # a tighter explicit bound trips at small n too
        with pytest.raises(ValueError):
            bench_run(BenchConfig(n_range=(8,), trials=1), memory_bound_bytes=1024)

    @pytest.mark.parametrize(
        "mode, family, held",
        [
            ("local", "haar", 17),  # m·n+1 int64 count vectors
            ("local", "phi1", 34),  # plus the plan's float64 table per basis
            ("entangled", "separable", 3),  # m+1 records
            ("entangled", "ghz", 6),
        ],
    )
    def test_memory_guard_counts_records_and_cached_tables(self, mode, family, held):
        n = 8
        working_set = 16 * 8 * (1 << n)  # eight complex128 vectors: the guard's old budget
        cfg = BenchConfig(n_range=(n,), m=2, mode=mode, shots=64, trials=1, state_family=family)
        assert trial_bytes(cfg, n) == working_set + held * 8 * (1 << n)
        with pytest.raises(ValueError, match="memory bound"):
            bench_run(cfg, memory_bound_bytes=trial_bytes(cfg, n) - 1)
        assert len(bench_run(cfg, memory_bound_bytes=trial_bytes(cfg, n)).rows) == 1

    def test_memory_guard_refuses_large_count_sets_at_the_default_bound(self):
        # local m=2 holds 47 count vectors at n=23 (2.9 GiB), which eight complex vectors (1 GiB) did not count
        for n, mode, family in ((23, "local", "haar"), (22, "local", "phi1"), (24, "entangled", "haar")):
            with pytest.raises(ValueError, match="memory bound"):
                bench_run(BenchConfig(n_range=(n,), mode=mode, trials=1, state_family=family))
        for n, mode, family in ((22, "local", "haar"), (21, "local", "phi1"), (23, "entangled", "ghz")):
            assert trial_bytes(BenchConfig(n_range=(n,), mode=mode, state_family=family), n) <= MEMORY_BOUND_BYTES

    def test_summary_shape(self):
        cfg = BenchConfig(n_range=(2,), shots=256, trials=5, seed=2, state_family="separable")
        summary = bench_run(cfg).summary()
        assert summary["state_family"] == "separable"
        stats = summary["per_n"]["2"]
        assert stats["trials"] == 5
        assert stats["q25"] <= stats["median"] <= stats["q75"]
        assert isinstance(stats["fallbacks_total"], int)


class TestCsvAndJson:
    def test_rows_round_trip_bit_exact(self, tmp_path):
        cfg = BenchConfig(n_range=(2, 3), shots=512, trials=3, seed=5)
        result = bench_run(cfg)
        path = tmp_path / "rows.csv"
        write_rows_csv(path, result.rows)
        header = path.read_text().splitlines()[0]
        assert header == "n,trial,fidelity,cond_max,fallbacks"
        back = read_rows_csv(path)
        assert len(back) == len(result.rows)
        for a, b in zip(back, result.rows):
            assert (a.n, a.trial, a.fallbacks) == (b.n, b.trial, b.fallbacks)
            assert a.fidelity == b.fidelity
            assert a.cond_max == b.cond_max or (np.isinf(a.cond_max) and np.isinf(b.cond_max))

    def test_summary_json_written(self, tmp_path):
        cfg = BenchConfig(n_range=(2,), shots=256, trials=2, seed=6)
        result = bench_run(cfg)
        path = tmp_path / "summary.json"
        write_summary_json(path, result)
        obj = json.loads(path.read_text())
        assert obj["per_n"]["2"]["trials"] == 2


class TestPreparationNoise:
    def test_gate_counts(self):
        assert prep_gate_counts("phi1", 5) == (5, 0)
        assert prep_gate_counts("phi2", 3) == (3, 0)
        assert prep_gate_counts("phi3", 6) == (3, 3)
        assert prep_gate_counts("phi3", 5) == (2, 2)
        assert prep_gate_counts("phi4", 4) == (1, 3)
        assert prep_gate_counts("ghz", 2) == (1, 1)
        with pytest.raises(ValueError):
            prep_gate_counts("haar", 3)
        with pytest.raises(ValueError):
            prep_gate_counts("phi4", 1)

    def test_lambda_composition_by_hand(self):
        # GHZ at n=2: one local gate plus one entangling gate
        lam1 = 4 * 5e-4 / 3
        lam2 = 4 * 2e-2 / 3
        want = 1 - (1 - lam1) * (1 - lam2)
        assert np.isclose(prep_noise_lambda("ghz", 2), want, atol=1e-15)

    def test_lambda_grows_with_n_for_entangling_chains(self):
        lams = [prep_noise_lambda("phi4", n) for n in range(2, 7)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_noisy_trials_degrade_fidelity(self):
        noiseless = BenchConfig(n_range=(3,), state_family="phi4", shots=4096, trials=6, seed=13)
        noisy = BenchConfig(
            n_range=(3,), state_family="phi4", shots=4096, trials=6, seed=13,
            noise_lambda=prep_noise_lambda("phi4", 3),
        )
        f_clean = np.median(bench_run(noiseless).fidelities(3))
        f_noisy = np.median(bench_run(noisy).fidelities(3))
        assert f_noisy < f_clean


class TestBootstrap:
    @pytest.mark.parametrize("B", [99, 150.0, True, "150"])
    def test_rejects_small_resample_counts(self, B):
        st = named_state("Phi4", 2)
        data = simulate_counts(st, estimation_basis_ids(2, 2, "local"), default_family(2), 256, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci(data.records, 2, ReconstructionOptions(), st, B, seed=0)

    @pytest.mark.parametrize("bad", [None, True, -1, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        st = named_state("Phi4", 2)
        data = simulate_counts(st, estimation_basis_ids(2, 2, "local"), default_family(2), 256, seed=0)
        with pytest.raises(ValueError, match="seed"):
            bootstrap_ci(data.records, 2, ReconstructionOptions(), st, 100, seed=bad)

    def test_rejects_duplicate_records(self):
        st = named_state("Phi4", 2)
        data = simulate_counts(st, estimation_basis_ids(2, 2, "local"), default_family(2), 256, seed=0)
        with pytest.raises(ValueError, match="^duplicate record for basis local:1:1$"):
            bootstrap_ci(data.records + [data.records[1]], 2, ReconstructionOptions(), st, 100, seed=0)

    def test_rejects_exact_probability_records(self):
        st = named_state("Phi4", 2)
        ids = estimation_basis_ids(2, 2, "local")
        recs = [exact_record(born_probs(st, i, default_family(2))) for i in ids]
        with pytest.raises(ValueError):
            bootstrap_ci(recs, 2, ReconstructionOptions(), st, 100, seed=0)

    def test_exact_record_is_rejected_before_any_resample(self, monkeypatch):
        st = named_state("Phi4", 2)
        ids = estimation_basis_ids(2, 2, "local")
        data = simulate_counts(st, ids, default_family(2), 256, seed=0)
        recs = data.records[:-1] + [exact_record(born_probs(st, ids[-1], default_family(2)))]
        drawn = []
        monkeypatch.setattr(benchmark, "seeded_rng", lambda *args: drawn.append(args))  # each resample's stream
        with pytest.raises(ValueError, match="cannot bootstrap exact-probability records"):
            bootstrap_ci(recs, 2, ReconstructionOptions(), st, 100, seed=0)
        assert drawn == []

    def test_negative_shots_are_named_as_reconstruct_names_them(self):
        # only shots 0 marks an exact record: shots -1000 used to be refused as one
        st = haar_random(3, 1)
        ids = estimation_basis_ids(3, 2, "local")
        records = simulate_counts(st, ids, default_family(2), 1000, seed=0).records
        i = ids.index(local_id(1, 3))
        records[i] = CountsRecord(records[i].basis, -1000, records[i].counts)
        message = "^record local:1:3 has negative shots -1000$"
        with pytest.raises(ValueError, match=message):
            reconstruct(records, 3, ReconstructionOptions())
        with pytest.raises(ValueError, match=message):
            bootstrap_ci(records, 3, ReconstructionOptions(), st, 100, seed=0)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: CountsRecord(r.basis, r.shots, r.counts + 2000 * (np.arange(8) == 0)), "summing to 3000, not its shots 1000"),
            (lambda r: CountsRecord(r.basis, None, r.counts), "shots of record local:1:3 must be an integer, got None"),
            (lambda r: CountsRecord(r.basis, r.shots, r.counts[:-1]), r"holds counts of shape \(7,\), not \(8,\)"),
            (lambda r: CountsRecord(r.basis, r.shots, r.counts / 1.0), "not integers in"),
            (lambda r: CountsRecord(local_id(1, 1), r.shots, r.counts), "^duplicate record for basis local:1:1$"),
        ],
        ids=["counts off shots", "shots None", "wrong shape", "float counts", "duplicate basis"],
    )
    def test_records_read_counts_would_refuse_are_rejected_before_any_resample(self, monkeypatch, edit, message):
        # reconstruct reads counts / shots and would go on; bootstrap_ci checks each record as write_counts does
        st = haar_random(3, 1)
        ids = estimation_basis_ids(3, 2, "local")
        records = simulate_counts(st, ids, default_family(2), 1000, seed=0).records
        i = ids.index(local_id(1, 3))
        records[i] = edit(records[i])
        drawn = []
        monkeypatch.setattr(benchmark, "seeded_rng", lambda *args: drawn.append(args))  # each resample's stream
        with pytest.raises(ValueError, match=message):
            bootstrap_ci(records, 3, ReconstructionOptions(), st, 100, seed=0)
        assert drawn == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bands_equal_a_resample_loop_that_rebuilds_every_table(self, seed):
        # each resample rebuilding every record's table from its counts gives the same draws and band
        n, B = 4, 200
        target = make_bench_state("ghz", n, None)
        ids = estimation_basis_ids(n, 2, "local")
        lam = prep_noise_lambda("phi4", n)
        data = simulate_counts(target, ids, default_family(2), 8192, seed=seed, seed_key=(n, 0), noise_lambda=lam)
        opts = ReconstructionOptions(mode="local", m=2, family=tuple(default_family(2)), use_extra_rows=True)
        fids = np.empty(B)
        for b in range(B):
            rng = seeded_rng(seed, (b,))
            resampled = [
                sample_counts(ProbTable(n=n, basis=rec.basis, probs=to_empirical(rec)), rec.shots, rng)
                for rec in data.records
            ]
            fids[b] = fidelity(target, reconstruct(resampled, n, opts)[0])
        lo, point, hi = np.percentile(fids, [16.0, 50.0, 84.0])
        assert bootstrap_ci(data.records, n, opts, target, B, seed) == (float(point), float(lo), float(hi))

    def test_point_sits_inside_the_band(self):
        target = named_state("Phi4", 2)
        ids = estimation_basis_ids(2, 2, "local")
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        for case in range(20):
            data = simulate_counts(target, ids, default_family(2), 512, seed=case, noise_lambda=0.05)
            point, lo, hi = bootstrap_ci(data.records, 2, opts, target, 100, seed=case)
            assert lo <= point <= hi

    def test_band_collapses_at_huge_shots(self):
        target = named_state("Phi4", 2)
        ids = estimation_basis_ids(2, 2, "local")
        data = simulate_counts(target, ids, default_family(2), 10**6, seed=5)
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        point, lo, hi = bootstrap_ci(data.records, 2, opts, target, 100, seed=2)
        assert hi - lo < 0.01
        assert point > 0.999

    def test_band_width_scales_like_inverse_root_shots(self):
        # keep the target at a finite distance so fidelity responds linearly
        truth = haar_random(2, seed=1234)
        other = haar_random(2, seed=4321)
        blend = truth.amps + 0.35 * other.amps
        target = make_state(blend / np.linalg.norm(blend))
        opts = ReconstructionOptions(mode="local", m=2, use_extra_rows=True)
        ids = estimation_basis_ids(2, 2, "local")
        widths = {}
        for shots in (512, 2048, 8192):
            data = simulate_counts(truth, ids, default_family(2), shots, seed=9)
            _, lo, hi = bootstrap_ci(data.records, 2, opts, target, 150, seed=2)
            widths[shots] = hi - lo
        for small, large in ((512, 2048), (2048, 8192)):
            ratio = widths[small] / widths[large]
            assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    def test_deterministic(self):
        target = named_state("Phi4", 2)
        data = simulate_counts(target, estimation_basis_ids(2, 2, "local"), default_family(2), 512, seed=3)
        opts = ReconstructionOptions(mode="local", m=2)
        a = bootstrap_ci(data.records, 2, opts, target, 100, seed=7)
        b = bootstrap_ci(data.records, 2, opts, target, 100, seed=7)
        assert a == b


class TestOracleGrid:
    def test_recovers_the_quarter_phase_exactly_to_grid_step(self):
        st = make_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        ids = estimation_basis_ids(1, 2, "local")
        recs = [exact_record(born_probs(st, i, default_family(2))) for i in ids]
        est = oracle_grid_reconstruct(recs, 1)
        delta = np.angle(est.amps[1] / est.amps[0])
        assert abs(delta - np.pi / 2) <= 2 * np.pi / 10_000

    def test_zero_phase_state(self):
        st = make_state([0.6, 0.8])
        ids = estimation_basis_ids(1, 2, "local")
        recs = [exact_record(born_probs(st, i, default_family(2))) for i in ids]
        est = oracle_grid_reconstruct(recs, 1)
        assert fidelity(est, st) >= 1 - 1e-6

    def test_handles_null_amplitudes(self):
        st = named_state("Phi4", 2)
        recs = simulate_counts(st, estimation_basis_ids(2, 2, "local"), default_family(2), 8192, seed=3).records
        est = oracle_grid_reconstruct(recs, 2)
        assert fidelity(est, st) > 0.99

    def test_agrees_with_the_main_estimator_on_sampled_counts(self):
        truth = haar_random(2, seed=2024)
        recs = simulate_counts(truth, estimation_basis_ids(2, 2, "local"), default_family(2), 8192, seed=8).records
        grid = oracle_grid_reconstruct(recs, 2)
        main, _ = reconstruct(recs, 2, ReconstructionOptions(mode="local", m=2, use_extra_rows=True))
        assert fidelity(grid, main) >= 0.999

    def test_size_and_resolution_limits(self):
        st = haar_random(3, seed=1)
        recs = simulate_counts(st, estimation_basis_ids(3, 2, "local"), default_family(2), 256, seed=1).records
        with pytest.raises(ValueError):
            oracle_grid_reconstruct(recs, 3)
        st2 = haar_random(2, seed=1)
        recs2 = simulate_counts(st2, estimation_basis_ids(2, 2, "local"), default_family(2), 256, seed=1).records
        with pytest.raises(ValueError):
            oracle_grid_reconstruct(recs2, 2, resolution=100)

    def test_requires_computational_record(self):
        st = haar_random(2, seed=1)
        recs = simulate_counts(st, estimation_basis_ids(2, 2, "local"), default_family(2), 256, seed=1).records
        with pytest.raises(ValueError):
            oracle_grid_reconstruct(recs[1:], 2)


class TestRuntimeBudget:
    def test_headline_configuration_fits_the_budget(self):
        # the largest single benchmark slice must stay desk-scale;
        # override via PURESTATE_BENCH_BUDGET_S for slower machines
        budget = float(os.environ.get("PURESTATE_BENCH_BUDGET_S", "600"))
        cfg = BenchConfig(n_range=(10,), m=2, mode="local", shots=8192, trials=100, seed=0)
        t0 = time.perf_counter()
        result = bench_run(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < budget
        assert np.median(result.fidelities(10)) > 0.8
