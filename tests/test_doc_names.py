"""Every name and anchor the docs point at still exists.

The docs name modules, classes and functions in code spans; a rename or a
deletion that misses the prose would leave them describing code that is
gone. Three kinds of reference are checked:

* a dotted ``repro.*`` name resolves by importing its longest importable
  module prefix and reading the remaining parts as attributes;
* a ``Class.member`` span whose class is defined in ``repro`` names a
  class attribute, a dataclass field, a ``__slots__`` entry or an
  attribute ``__init__`` assigns on ``self``;
* a relative ``*.md#anchor`` link names a heading of its target file.
"""

import ast
import importlib
import inspect
import re
import textwrap
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


# -- `Class.member` spans ------------------------------------------------
_MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")


def repro_classes():
    """Class name -> every class of that name defined in ``repro``."""
    import pkgutil

    import repro

    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == info.name:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


def init_attributes(cls) -> set:
    """Names ``__init__`` assigns as ``self.<name>``, over the MRO."""
    names = set()
    for klass in cls.__mro__:
        init = vars(klass).get("__init__")
        if init is None or not klass.__module__.startswith("repro"):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
    return names


def has_member(cls, member: str) -> bool:
    return (
        hasattr(cls, member)
        or member in getattr(cls, "__dataclass_fields__", {})
        or member in init_attributes(cls)
    )


def documented_members():
    """(file name, "Class.member") for each distinct span of a repro class."""
    classes = repro_classes()
    found = {}
    for path in DOCS:
        for span in _SPAN.finditer(path.read_text()):
            for cls, member in _MEMBER.findall(span.group(1)):
                if cls in classes:
                    found.setdefault(f"{cls}.{member}", path.name)
    return classes, sorted((where, name) for name, where in found.items())


_CLASSES, _MEMBERS = documented_members()


def test_docs_name_some_members():
    assert len(_MEMBERS) >= 30


@pytest.mark.parametrize("where,name", _MEMBERS)
def test_documented_member_resolves(where, name):
    cls_name, member = name.split(".")
    if not any(has_member(cls, member) for cls in _CLASSES[cls_name]):
        pytest.fail(f"{where} names `{name}`, which has no such member")


# -- relative `*.md#anchor` links ----------------------------------------
_LINK = re.compile(r"\]\(([^)\s]*#[^)\s]+)\)")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)


def heading_anchors(path: Path) -> set:
    """GitHub's anchors for the headings of a markdown file."""
    anchors = set()
    seen = {}
    text = _FENCE.sub("", path.read_text())
    for match in re.finditer(r"^#+\s+(.+?)\s*$", text, re.M):
        slug = re.sub(r"[^\w\- ]", "", match.group(1).lower()).replace(" ", "-")
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def anchor_links():
    """(file name, link target) for each relative link with an anchor."""
    links = set()
    for path in DOCS:
        for target in _LINK.findall(path.read_text()):
            if "://" not in target:
                links.add((path.relative_to(ROOT).as_posix(), target))
    return sorted(links)


def test_docs_link_some_anchors():
    assert len(anchor_links()) >= 5


@pytest.mark.parametrize("where,target", anchor_links())
def test_anchor_link_resolves(where, target):
    file, _, anchor = target.partition("#")
    doc = (ROOT / where).parent / file if file else ROOT / where
    assert doc.is_file(), f"{where} links {target}: no file {file}"
    assert anchor in heading_anchors(doc), (
        f"{where} links {target}: {doc.name} has no such heading"
    )
