"""Every dotted ``repro.*`` name the docs put in backticks still exists.

The docs name modules, classes and functions in code spans; a rename or a
deletion that misses the prose would leave them describing code that is
gone. Each name resolves by importing its longest importable module prefix
and reading the remaining parts as attributes.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def documented_names():
    """(file name, dotted name) for each distinct name in a code span."""
    found = {}
    for path in DOCS:
        for span in _SPAN.finditer(path.read_text()):
            for name in _NAME.findall(span.group(1)):
                found.setdefault(name, path.name)
    return sorted((where, name) for name, where in found.items())


def resolve(name: str):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_docs_name_some_code():
    assert len(documented_names()) >= 30


@pytest.mark.parametrize("where,name", documented_names())
def test_documented_name_resolves(where, name):
    try:
        resolve(name)
    except (ImportError, AttributeError) as err:
        pytest.fail(f"{where} names `{name}`, which does not resolve: {err}")
