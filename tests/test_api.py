"""The top-level package exports only the documented Python API, and the benchmark's hooks resolve and run."""

import importlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import purestate

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_api_section() -> str:
    text = README.read_text()
    start = text.index("## Python API")
    return text[start : text.index("\n## ", start)]


def test_exports_are_the_declared_list():
    public = {k for k, v in vars(purestate).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(purestate.__all__)
    assert len(purestate.__all__) <= 15


def test_every_export_is_named_in_the_readme():
    section = python_api_section()
    missing = [name for name in purestate.__all__ if not re.search(rf"`{name}`", section)]
    assert not missing, f"exported but not documented in README's Python API section: {missing}"


def test_benchmark_hooks_resolve():
    # perfbench/spans.py wraps package functions by (module, attribute); a deleted name breaks --trace 1
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = [(row[1], row[2]) for row in spans.SPANNED + spans.COUNTED + spans.CAPTURED]
    assert hooks
    missing = [f"{module}.{attr}" for module, attr in hooks if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names wrapped by perfbench/spans.py are gone: {missing}"


@pytest.mark.parametrize("workload", ["mc-local-haar-n10", "mc-entangled-phi1-n12", "bootstrap-ghz4-noisy"])
def test_traced_benchmark_run_reports_every_per_layer_metric(workload, tmp_path):
    # one short --trace 1 run per estimator path, extra rows (local) and one row per basis (entangled),
    # and one of the bootstrap, whose checks then run too; simulate-cli-n16 stays out while its exact-data
    # check fails about 1 operation in 7 (the canonical-rows rounding at n=16, ROADMAP item 1).
    # The run is of a copy of perfbench/ and src/, so the trace it saves leaves the checkout's results alone
    skip = shutil.ignore_patterns("results", "__pycache__")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [row["name"] for row in per_layer if row["name"] not in result["metrics"]] == []
    assert (tmp_path / "perfbench" / "results" / f"trace-{workload}-seed0.npz").is_file()
