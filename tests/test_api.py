"""The top-level package exports only the documented Python API."""

import re
import types
from pathlib import Path

import purestate

README = Path(__file__).resolve().parents[1] / "README.md"


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
