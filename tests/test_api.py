"""The top-level package exports only the documented Python API, and the benchmark's hooks resolve."""

import importlib
import importlib.util
import re
import types
from pathlib import Path

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
