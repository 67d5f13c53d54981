"""End-to-end tests for the command-line driver.

Most tests call cli_main in process and parse stdout; one subprocess case
runs the `[project.scripts]` target from pyproject.toml through
sys.executable, so it checks the declared entry point rather than whatever
`purestate` happens to be on PATH.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import purestate
import purestate.benchmark
import purestate.cli
from purestate.states import fidelity, load_state, named_state
from purestate.measurement import read_counts
from purestate.reconstruction import ReconstructionOptions, reconstruct
from purestate.bases import basis_states, default_family, estimation_basis_ids
from purestate.benchmark import BenchConfig, bootstrap_ci, run_trial
from purestate.cli import CONFIG_KEYS, cli_main, parse_n_range, read_config
from reference import reference_reconstruct


def run_cli(*argv):
    return cli_main(list(argv))


def fidelity_from(output: str) -> float:
    for line in output.splitlines():
        if line.startswith("fidelity "):
            return float(line.split()[1])
    raise AssertionError(f"no fidelity line in output:\n{output}")


class TestArgHandling:
    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "simulate" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert run_cli("reconstruct", "--help") == 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("simulate", "--n", "2") == 1

    def test_bad_choice_is_usage_error(self, capsys):
        assert run_cli("simulate", "--n", "2", "--mode", "sideways", "--out", "x.json") == 1

    def test_no_arguments_is_usage_error(self):
        assert run_cli() == 1


class TestParseNRange:
    def test_forms(self):
        assert parse_n_range("4") == [4]
        assert parse_n_range("2..5") == [2, 3, 4, 5]
        assert parse_n_range("2,5,7") == [2, 5, 7]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_n_range("5..2")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_n_range("two")


class TestSimulateReconstruct:
    def test_ghz_pipeline_reports_high_fidelity(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        assert run_cli(
            "simulate", "--state", "ghz", "--n", "3", "--shots", "8192",
            "--seed", "7", "--out", str(counts),
        ) == 0
        out = capsys.readouterr().out
        assert "wrote 7 records" in out  # computational + 2*3 local bases
        data = read_counts(counts)
        assert data.n == 3 and len(data.records) == 7

        assert run_cli(
            "reconstruct", "--in", str(counts), "--target", "ghz",
        ) == 0
        out = capsys.readouterr().out
        assert "reconstructed n=3 (local, m=2)" in out
        assert 0.9 <= fidelity_from(out) <= 1.0

    def test_saved_state_round_trips_as_target(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        statef = tmp_path / "truth.json"
        assert run_cli(
            "simulate", "--state", "haar", "--n", "2", "--shots", "8192",
            "--seed", "11", "--out", str(counts), "--save-state", str(statef),
        ) == 0
        capsys.readouterr()
        truth = load_state(statef)
        assert truth.n == 2

        assert run_cli(
            "reconstruct", "--in", str(counts), "--target", str(statef),
        ) == 0
        assert fidelity_from(capsys.readouterr().out) >= 0.98

    def test_estimate_json_written(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        est = tmp_path / "est.json"
        run_cli("simulate", "--state", "phi1", "--n", "2", "--out", str(counts), "--seed", "1")
        assert run_cli("reconstruct", "--in", str(counts), "--out", str(est)) == 0
        obj = json.loads(est.read_text())
        assert set(obj) == {"n", "amps", "diagnostics"}
        assert len(obj["amps"]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize(
        "simulate_args",
        [
            ("--state", "haar", "--n", "3", "--shots", "512", "--seed", "7"),
            ("--state", "phi1", "--n", "6", "--mode", "entangled", "--shots", "4096", "--seed", "3"),
        ],
        ids=["haar-n3-local", "phi1-n6-entangled"],
    )
    def test_estimate_json_and_summary_equal_the_reference_loop(self, tmp_path, capsys, simulate_args):
        # the texts built from the per-block reference loop's plain dicts and lists
        counts, est = tmp_path / "c.json", tmp_path / "est.json"
        assert run_cli("simulate", *simulate_args, "--out", str(counts)) == 0
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--out", str(est)) == 0
        out = capsys.readouterr().out

        data = read_counts(counts)
        mode = "entangled" if "entangled" in simulate_args else "local"
        opts = ReconstructionOptions(mode=mode, m=2, family=tuple(data.family))
        amps, ref = reference_reconstruct(data.records, data.n, opts)
        cond_max = max(ref.conds.values(), default=0.0)
        assert out == (
            f"reconstructed n={data.n} ({mode}, m=2): {len(ref.conds)} systems, "
            f"{len(ref.null_branches)} null branches, {len(ref.fallbacks)} fallbacks, "
            f"{len(ref.default_phases)} default phases, cond_max={cond_max:.6g}\n"
            f"wrote estimate to {est}\n"
        )
        obj = {
            "n": data.n,
            "amps": [[re, im] for re, im in zip(amps.real.tolist(), amps.imag.tolist())],
            "diagnostics": ref.to_dict(),
        }
        assert est.read_text() == json.dumps(obj, indent=1) + "\n"

    def test_entangled_mode_pipeline(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        run_cli(
            "simulate", "--state", "ghz", "--n", "2", "--mode", "entangled",
            "--m", "3", "--shots", "8192", "--seed", "5", "--out", str(counts),
        )
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--target", "ghz") == 0
        out = capsys.readouterr().out
        assert "(entangled, m=3)" in out  # inferred from the records
        assert fidelity_from(out) >= 0.9

    def test_missing_counts_file_is_data_error(self, capsys):
        assert run_cli("reconstruct", "--in", "no_such_file.json") == 2
        assert "data error" in capsys.readouterr().err

    def test_corrupt_counts_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("reconstruct", "--in", str(bad)) == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda obj: obj["records"][1].update(basis="computational"),
            lambda obj: obj["records"][1].update(counts=list(obj["records"][1]["counts"].values())),
            lambda obj: obj["records"].__setitem__(1, "local:1:1"),
            lambda obj: obj.update(family=[1, 2]),
            lambda obj: [obj],
        ],
        ids=["basis-string", "counts-list", "record-string", "family-ints", "top-level-list"],
    )
    def test_malformed_counts_shape_is_data_error(self, tmp_path, capsys, mutate):
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        obj = json.loads(counts.read_text())
        counts.write_text(json.dumps(mutate(obj) or obj))
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts)) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj",
        [
            # a count beyond int64: rejected as more than the record's shots
            {"n": 2, "family": [], "records": [{"basis": {"tag": "computational"}, "shots": 5, "counts": {"01": 2**70}}]},
            # n = 40 would need an 8 TiB counts vector
            {"n": 40, "family": [], "records": [{"basis": {"tag": "computational"}, "shots": 1, "counts": {"1" * 40: 1}}]},
        ],
        ids=["count-beyond-int64", "n-beyond-memory-bound"],
    )
    def test_out_of_range_counts_file_is_data_error(self, tmp_path, capsys, obj):
        counts = tmp_path / "c.json"
        counts.write_text(json.dumps(obj))
        assert run_cli("reconstruct", "--in", str(counts)) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "basis, message",
        [
            ({"tag": "local", "a": 0, "b": -1}, "local id local:0:-1 out of range for n=2, m=2"),
            ({"tag": "local", "a": 1, "b": 99}, "local id local:1:99 out of range for n=2, m=2"),
            ({"tag": "entangled", "a": 7}, "entangled id entangled:7 out of range for m=2"),
        ],
        ids=["local-0:-1", "local-1:99", "entangled-7"],
    )
    def test_out_of_range_basis_id_is_data_error(self, tmp_path, capsys, basis, message):
        # the file's family has two bases and n=2: each id names a basis the file cannot hold
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        obj = json.loads(counts.read_text())
        obj["records"][1]["basis"] = basis
        counts.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts)) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"

    def test_missing_basis_index_is_data_error_naming_it(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        text = counts.read_text()
        counts.write_text(text.replace('\n    "a": 1,', "", 1))
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts)) == 2
        assert capsys.readouterr().err == "data error: basis of records[1] has no 'a' key\n"

    def test_missing_state_key_is_data_error_naming_it(self, tmp_path, capsys):
        counts, statef = tmp_path / "c.json", tmp_path / "s.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts), "--save-state", str(statef))
        statef.write_text(statef.read_text().replace('"n": 2, ', ""))
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--target", str(statef)) == 2
        assert capsys.readouterr().err == "data error: state has no 'n' key\n"

    @pytest.mark.parametrize("text", ["[]", '"state"', '{"n": 1, "amps": {"0": [1, 0]}}'])
    def test_malformed_state_shape_is_data_error(self, tmp_path, capsys, text):
        counts, statef = tmp_path / "c.json", tmp_path / "s.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        statef.write_text(text)
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--target", str(statef)) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["simulate", "reconstruct", "bootstrap"])
    def test_a_state_file_int_beyond_the_float_range_is_data_error(self, tmp_path, capsys, subcommand):
        # it escaped as OverflowError: a traceback and exit 1
        counts, statef = tmp_path / "c.json", tmp_path / "s.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        statef.write_text('{"n": 2, "amps": [[1%s, 0], [0, 0], [0, 0], [0, 0]]}' % ("0" * 400))
        capsys.readouterr()
        if subcommand == "simulate":
            argv = ("simulate", "--state", str(statef), "--n", "2", "--out", str(tmp_path / "out.json"))
        else:
            argv = (subcommand, "--in", str(counts), "--target", str(statef))
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "data error: amplitude vector has non-finite entries\n"

    def test_a_family_int_beyond_the_float_range_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        huge = "1" + "0" * 400
        counts.write_text(counts.read_text().replace('"u": 0.7071067811865475', f'"u": {huge}', 1))
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts)) == 2
        want = f"data error: u, v and phi must be finite real numbers, got ({huge}, 0.7071067811865475, 0.0)\n"
        assert capsys.readouterr().err == want

    def test_shots_beyond_the_int64_range_are_data_error(self, tmp_path, capsys):
        # the multinomial draw raised OverflowError: a traceback and exit 1
        counts = tmp_path / "c.json"
        assert run_cli("simulate", "--state", "haar", "--n", "2", "--shots", str(10**20), "--out", str(counts)) == 2
        assert capsys.readouterr().err == f"data error: shots {10**20} beyond the int64 range\n"
        assert not counts.exists()

    def test_repeated_outcome_key_is_data_error(self, tmp_path, capsys):
        # json keeps the last of repeated keys, which would read these 10 counts as [5, 0]
        counts = tmp_path / "c.json"
        counts.write_text(
            '{"n": 1, "family": [], "records": [{"basis": {"tag": "computational"}, "shots": 5, "counts": {"0": 5, "0": 5}}]}'
        )
        assert run_cli("reconstruct", "--in", str(counts)) == 2
        assert "repeated key '0'" in capsys.readouterr().err

    def test_repeated_state_key_is_data_error(self, tmp_path, capsys):
        counts, statef = tmp_path / "c.json", tmp_path / "s.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        statef.write_text('{"n": 2, "n": 2, "amps": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]}')
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--target", str(statef)) == 2
        assert "repeated key 'n'" in capsys.readouterr().err

    def test_ambiguous_phase_system_under_fail_policy_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        sim = ("--state", "phi3", "--n", "6", "--shots", "1024", "--seed", "6", "--noise-lambda", "0.06")
        assert run_cli("simulate", *sim, "--out", str(counts)) == 0
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--cond-threshold", "5", "--ambiguity-policy", "fail") == 2
        err = capsys.readouterr().err
        # the extra-rows estimator's system; canonical rows alone give this block cond 11.3
        assert err == "data error: phase system (j=2, beta=0): condition number 6.35 above threshold\n"

    def test_run_beyond_the_memory_bound_is_refused_before_any_allocation(self, tmp_path, capsys):
        # local m=2 at n=24: 49 int64 count vectors of 2^24 entries (6.1 GiB), plus the state
        counts = tmp_path / "c.json"
        tracemalloc.start()
        try:
            assert run_cli("simulate", "--n", "24", "--m", "2", "--out", str(counts)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert capsys.readouterr().err == "data error: n=24 with 49 records exceeds the memory bound\n"
        assert not counts.exists()

    def test_huge_n_is_refused_before_its_basis_ids_are_built(self, tmp_path, capsys):
        # building the 2,000,001 basis ids of n = 1,000,000 first took 14.4 s and a 275.8 MiB traced peak
        counts = tmp_path / "c.json"
        tracemalloc.start()
        try:
            assert run_cli("simulate", "--n", "1000000", "--out", str(counts)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert capsys.readouterr().err == "data error: n=1000000 exceeds the memory bound\n"
        assert not counts.exists()

    def test_unknown_state_name_is_usage_error(self, tmp_path, capsys):
        assert run_cli("simulate", "--state", "bell", "--n", "2", "--out", str(tmp_path / "x.json")) == 1

    def test_state_file_qubit_mismatch_is_data_error(self, tmp_path, capsys):
        statef = tmp_path / "s.json"
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--out", str(counts), "--save-state", str(statef))
        capsys.readouterr()
        assert run_cli("simulate", "--state", str(statef), "--n", "3", "--out", str(counts)) == 2

    def test_noise_lambda_outside_the_unit_interval_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        for bad in ("nan", "-0.4", "inf", "1.5"):
            assert run_cli("simulate", "--state", "ghz", "--n", "2", "--noise-lambda", bad, "--out", str(counts)) == 2
            assert "noise_lambda" in capsys.readouterr().err
            assert not counts.exists()

    @pytest.mark.parametrize("subcommand", ["reconstruct", "bootstrap"])
    def test_a_target_of_another_size_is_refused_before_any_reconstruction(self, tmp_path, capsys, monkeypatch, subcommand):
        # the target used to be loaded after reconstruct's summary line, or refused inside bootstrap_ci
        counts, statef, est = tmp_path / "c.json", tmp_path / "s.json", tmp_path / "est.json"
        run_cli("simulate", "--state", "ghz", "--n", "3", "--shots", "64", "--out", str(counts))
        run_cli("simulate", "--state", "ghz", "--n", "4", "--out", str(tmp_path / "c4.json"), "--save-state", str(statef))
        capsys.readouterr()
        calls = []
        for module in (purestate.cli, purestate.benchmark):
            monkeypatch.setattr(module, "reconstruct", lambda *args, **kw: calls.append(args) or reconstruct(*args, **kw))
        extra = ["--out", str(est)] if subcommand == "reconstruct" else ["--resamples", "10"]
        assert run_cli(subcommand, "--in", str(counts), "--target", str(statef), *extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "data error: target file has n=4, counts file has n=3\n"
        assert calls == [] and not est.exists()

    def test_a_missing_target_is_refused_before_any_reconstruction(self, tmp_path, capsys):
        counts, est = tmp_path / "c.json", tmp_path / "est.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts))
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--target", str(tmp_path / "none.json"), "--out", str(est)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: target ") and not est.exists()

    def test_random_target_name_rejected(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--out", str(counts))
        capsys.readouterr()
        assert run_cli("reconstruct", "--in", str(counts), "--target", "haar") == 1


class TestBench:
    def test_small_grid_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        assert run_cli(
            "bench", "--n", "2", "--trials", "5", "--shots", "2048",
            "--seed", "1", "--csv", str(csv_path),
        ) == 0
        out = capsys.readouterr().out
        assert "n=2 trials=5 median=" in out
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 6  # header + 5 rows
        fids = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(f >= 0.9 for f in fids)

    def test_summary_json_written(self, tmp_path, capsys):
        json_path = tmp_path / "summary.json"
        assert run_cli(
            "bench", "--n", "2,3", "--trials", "2", "--shots", "512",
            "--json", str(json_path),
        ) == 0
        capsys.readouterr()
        obj = json.loads(json_path.read_text())
        assert set(obj["per_n"]) == {"2", "3"}

    def test_negative_seed_is_data_error(self, capsys):
        assert run_cli("bench", "--n", "2", "--trials", "1", "--seed", "-1") == 2
        assert "seed" in capsys.readouterr().err

    def test_shots_beyond_the_int64_range_are_data_error(self, capsys):
        assert run_cli("bench", "--n", "2", "--trials", "1", "--shots", str(10**20)) == 2
        assert capsys.readouterr().err == f"data error: shots {10**20} beyond the int64 range\n"

    def test_reversed_range_is_usage_error(self, capsys):
        assert run_cli("bench", "--n", "5..2", "--trials", "1") == 1

    def test_range_beyond_the_memory_bound_is_refused_before_it_is_expanded(self, capsys):
        # expanding 1..1000000 into a list and a BenchConfig tuple took 4 s and a 46.6 MiB traced peak
        tracemalloc.start()
        try:
            assert run_cli("bench", "--n", "1..1000000", "--trials", "1") == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert capsys.readouterr().err == "data error: n=1000000 exceeds the memory bound\n"

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("# benchmark settings\nn = 2\ntrials = 3\nshots = 256\nseed = 4\n")
        csv_path = tmp_path / "rows.csv"
        assert run_cli("bench", "--config", str(cfg), "--csv", str(csv_path)) == 0
        capsys.readouterr()
        assert len(csv_path.read_text().splitlines()) == 4  # header + 3 rows

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n = 2\ntrials = 3\nshots = 256\n")
        csv_path = tmp_path / "rows.csv"
        assert run_cli("bench", "--config", str(cfg), "--trials", "1", "--csv", str(csv_path)) == 0
        capsys.readouterr()
        assert len(csv_path.read_text().splitlines()) == 2

    def test_malformed_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("trials 3\n")
        assert run_cli("bench", "--config", str(cfg)) == 2

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n = 2\ntrails = 2\n")
        assert run_cli("bench", "--config", str(cfg), "--trials", "1") == 2
        err = capsys.readouterr().err
        assert "trails" in err
        assert all(key in err for key in CONFIG_KEYS)

    def test_repeated_config_key_is_data_error(self, tmp_path, capsys):
        # a repeated key would otherwise keep its last value, as json does without _unique_keys
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n = 2\nm = 2\n# the second m\nm = 3\n")
        assert run_cli("bench", "--config", str(cfg), "--trials", "1") == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"data error: {cfg}:4: repeated key 'm'\n"

    def test_state_name_in_any_case(self, tmp_path, capsys):
        rows = []
        for name in ("GHZ", "ghz"):
            csv_path = tmp_path / f"{name}.csv"
            argv = ("--n", "3", "--state", name, "--trials", "3", "--shots", "256", "--seed", "5")
            assert run_cli("bench", *argv, "--csv", str(csv_path)) == 0
            rows.append(csv_path.read_text())
        capsys.readouterr()
        assert rows[0] == rows[1] and len(rows[0].splitlines()) == 4

    def test_read_config_parses_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("\n# comment\nmode = entangled\n  m = 3  \n")
        assert read_config(cfg) == {"mode": "entangled", "m": "3"}


class TestBases:
    def test_listing_includes_family_and_ids(self, capsys):
        assert run_cli("bases", "--n", "2", "--m", "2") == 0
        out = capsys.readouterr().out
        assert "family a=1" in out and "family a=2" in out
        assert "# basis computational" in out
        assert "# basis local:2:1" in out

    def test_single_basis_with_states(self, capsys):
        assert run_cli("bases", "--n", "2", "--basis", "local:1:2", "--states") == 0
        out = capsys.readouterr().out
        assert out.count("state ") == 4

    @pytest.mark.parametrize("mode", ["local", "entangled"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_zero_amplitudes_print_unsigned(self, capsys, n, mode):
        # exact zeros print +0.000000; a tiny nonzero part, such as cos(pi/2)'s, keeps its sign
        assert run_cli("bases", "--n", str(n), "--m", "2", "--mode", mode, "--states") == 0
        out = capsys.readouterr().out
        lines = [line.split(": ", 1)[1].split() for line in out.splitlines() if line.startswith("state ")]
        states = [st for id in estimation_basis_ids(n, 2, mode) for st in basis_states(n, id, default_family(2))]
        assert len(lines) == len(states)
        amplitude = re.compile(r"([+-]\d\.\d{6})([+-]\d\.\d{6})j")
        zeros = 0
        for tokens, st in zip(lines, states):
            for token, amp in zip(tokens, st.amps, strict=True):
                for text, part in zip(amplitude.fullmatch(token).groups(), (amp.real, amp.imag)):
                    if part == 0.0:
                        assert text == "+0.000000"
                        zeros += 1
                    else:
                        assert text[0] == ("-" if part < 0 else "+")
        assert zeros > 0

    def test_qasm_for_local_basis(self, capsys):
        assert run_cli("bases", "--n", "2", "--basis", "local:1:1", "--qasm") == 0
        out = capsys.readouterr().out
        assert "OPENQASM" in out and "u3" in out

    def test_qasm_for_entangled_basis_is_usage_error(self, capsys):
        assert run_cli("bases", "--n", "2", "--basis", "entangled:1", "--qasm") == 1

    def test_entangled_circuit_listing(self, capsys):
        assert run_cli("bases", "--n", "2", "--mode", "entangled", "--m", "2") == 0
        out = capsys.readouterr().out
        assert "# basis entangled:1" in out
        assert "controls" not in out  # circuit lines use the bracket format
        assert "[0]" in out  # the controlled gate on qubit 1

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_system_size_below_one_is_data_error(self, capsys, n):
        assert run_cli("bases", "--n", n) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [("--n", "0", "--states"), ("--n", "-3")])
    def test_system_size_below_one_is_data_error_for_a_single_basis(self, capsys, argv):
        assert run_cli("bases", "--basis", "computational", *argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"data error: n={argv[1]}: a system needs at least 1 qubit\n"

    def test_basis_states_beyond_the_memory_bound_are_refused_before_any_is_built(self, capsys):
        # n=14: 2^14 states of 2^14 amplitudes per basis, 4 GiB
        tracemalloc.start()
        try:
            assert run_cli("bases", "--n", "14", "--basis", "computational", "--states") == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        out, err = capsys.readouterr()
        assert out == "" and err == "data error: n=14: the basis states exceed the memory bound\n"
        assert run_cli("bases", "--n", "40", "--basis", "local:1:2") == 0  # circuits alone hold no state

    def test_bad_basis_token_is_usage_error(self, capsys):
        assert run_cli("bases", "--n", "2", "--basis", "local:1") == 1
        assert run_cli("bases", "--n", "2", "--basis", "sideways:1") == 1


class TestOneEstimator:
    """reconstruct, bootstrap and bench trials evaluate the same estimator on the same counts."""

    @pytest.mark.parametrize(
        "n, mode, shots, seed",
        [(3, "local", 512, 7), (4, "entangled", 2048, 5)],
        ids=["haar-n3-local", "haar-n4-entangled"],
    )
    def test_every_subcommand_runs_the_bench_estimator(self, tmp_path, capsys, n, mode, shots, seed):
        # simulate's file holds the counts of bench trial 0: state stream (seed, (n, 0)), basis streams (seed, (n, 0, i))
        counts, statef, est = tmp_path / "c.json", tmp_path / "s.json", tmp_path / "est.json"
        sim = ("--state", "haar", "--n", str(n), "--mode", mode, "--shots", str(shots), "--seed", str(seed))
        assert run_cli("simulate", *sim, "--out", str(counts), "--save-state", str(statef)) == 0
        capsys.readouterr()
        cfg = BenchConfig(n_range=(n,), mode=mode, shots=shots, trials=1, state_family="haar", seed=seed)
        opts = cfg._trial_plan(n).opts
        data, truth = read_counts(counts), load_state(statef)
        want, _ = reconstruct(data.records, n, opts)

        assert run_cli("reconstruct", "--in", str(counts), "--target", str(statef), "--out", str(est)) == 0
        assert f"fidelity {fidelity(truth, want):.12g}\n" in capsys.readouterr().out
        amps = np.array(json.loads(est.read_text())["amps"])
        assert np.array_equal(amps[:, 0] + 1j * amps[:, 1], want.amps)

        assert run_cli("bootstrap", "--in", str(counts), "--target", str(statef), "--resamples", "100") == 0
        band = bootstrap_ci(data.records, n, opts, truth, 100, 0)
        assert capsys.readouterr().out == "fidelity {:.12g} ci16 {:.12g} ci84 {:.12g}\n".format(*band)

        # bench's trial 0 draws this state and these counts, so it reaches the same estimate
        row, _, bench_est = run_trial(cfg, n, 0)
        assert np.array_equal(bench_est.amps, want.amps) and row.fidelity == fidelity(truth, want)

    @pytest.mark.parametrize("subcommand", ["reconstruct", "bootstrap"])
    def test_the_extra_rows_flag_is_gone(self, tmp_path, capsys, subcommand):
        counts = tmp_path / "c.json"
        assert run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "64", "--out", str(counts)) == 0
        capsys.readouterr()
        assert run_cli(subcommand, "--in", str(counts), "--target", "ghz", "--use-extra-rows") == 1
        assert "--use-extra-rows" in capsys.readouterr().err


class TestBootstrap:
    def test_band_line_is_ordered(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "512", "--seed", "3", "--out", str(counts))
        capsys.readouterr()
        assert run_cli(
            "bootstrap", "--in", str(counts), "--target", "ghz",
            "--resamples", "100", "--seed", "1",
        ) == 0
        line = capsys.readouterr().out.strip()
        toks = line.split()
        assert toks[0] == "fidelity" and toks[2] == "ci16" and toks[4] == "ci84"
        point, lo, hi = float(toks[1]), float(toks[3]), float(toks[5])
        assert lo <= point <= hi

    def test_zero_shot_file_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        run_cli("simulate", "--state", "ghz", "--n", "2", "--shots", "512", "--seed", "3", "--out", str(counts))
        capsys.readouterr()
        obj = json.loads(counts.read_text())
        for rec in obj["records"]:
            rec["shots"] = 0
        counts.write_text(json.dumps(obj))
        assert run_cli("bootstrap", "--in", str(counts), "--target", "ghz", "--resamples", "100") == 2


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# The body of the wrapper pip generates for a "module:attr" console script.
LAUNCHER = """\
import sys
from {module} import {attr}
sys.argv[0] = {name!r}
sys.exit({attr}())
"""


def console_script_target(name: str) -> str:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] declares no {name!r} entry"
    return scripts[name]


def run_console_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    module, sep, attr = console_script_target(name).partition(":")
    assert sep and attr, f"entry point for {name!r} is not of the form module:attr"
    launcher = LAUNCHER.format(module=module, attr=attr, name=name)
    # Run the same source tree the in-process tests import, not an installed copy.
    src_root = str(Path(purestate.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", launcher, *argv],
        capture_output=True, text=True, env=env,
    )


class TestConsoleScript:
    """Runs the `[project.scripts]` purestate target as a process via sys.executable."""

    def test_installed_entry_point(self, tmp_path):
        counts = tmp_path / "c.json"
        proc = run_console_script(
            "purestate", "simulate", "--state", "phi4", "--n", "2",
            "--shots", "1024", "--seed", "2", "--out", str(counts),
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_console_script(
            "purestate", "reconstruct", "--in", str(counts), "--target", "phi4",
        )
        assert proc.returncode == 0, proc.stderr
        assert fidelity_from(proc.stdout) >= 0.9
        # The exit status carries cli_main's return code (2 = data error).
        proc = run_console_script(
            "purestate", "reconstruct", "--in", str(tmp_path / "missing.json"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "data error" in proc.stderr
