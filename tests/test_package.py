import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import dsopforge

REPO = Path(__file__).parent.parent

MODULES = ["dsopforge"] + [
    f"dsopforge.{m.name}" for m in pkgutil.iter_modules(dsopforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


# `exact` itself and everything that builds or bounds point masks, plus
# itertools.product, the way to enumerate every cube or minterm
POINT_NAMES = {"exact", "point_mask", "cover_point_mask", "ENUMERATION_CAP", "product"}


def _identifiers(tree):
    """Every identifier a module's syntax tree mentions: names,
    attributes, definitions, imported names and the parts of imported
    module paths."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


SOURCES = sorted(
    p
    for p in Path(dsopforge.__file__).parent.glob("*.py")
    if p.name not in ("exact.py", "__init__.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_exact_enumerates_points(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not POINT_NAMES & set(_identifiers(tree))


# the checker and the exact oracle judge the synthesizer's covers, so
# they must not share its code: a fault there cannot hide itself
SYNTHESIZER = {"engine", "partial", "minimize"}


def _imported_modules(tree):
    """The last part of every module path a syntax tree imports, and
    the names `from . import x` brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.split(".")[-1]
            if node.module in (None, "dsopforge"):
                yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("name", ["verify.py", "exact.py"])
def test_checkers_do_not_import_the_synthesizer(name):
    path = Path(dsopforge.__file__).parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not SYNTHESIZER & set(_imported_modules(tree))


def test_the_readme_library_example_runs():
    # the README shows the library API in its one python block; run it
    # as written, so a renamed or re-signed public name fails here
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})


def test_every_name_the_tracer_wraps_is_callable():
    # perfbench's tracer skips a (module, name) it cannot find, and the
    # span's metrics then read 0; a rename must fail here instead
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, name, *_ in spans.WRAPPED:
        fn = getattr(importlib.import_module(f"dsopforge.{module}"), name, None)
        if not callable(fn):
            missing.append((module, name))
    assert spans.WRAPPED and not missing, f"not callable in dsopforge: {missing}"
