"""The package's module boundaries: no module reaches into another's private names, and the
register's labels have one home."""

import ast
import re
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "zenocavity").glob("*.py"))

# (importing module, imported module, name) -> why that private name still crosses
ALLOWED = {
    ("protocols", "model", "_Choice"):
        "the str-valued enum base of Branch and the protocol choices; enum.StrEnum"
        " would replace it but needs Python 3.11, and requires-python is >=3.10",
    ("dynamics", "spaces", "_integer"):
        "the one integer rule (numpy integers in, bools out) of keep entries, pulse counts"
        " and outcomes; public, it would be an API name for an input check",
    ("protocols", "spaces", "_integer"):
        "the same integer rule, for a spec's k and outcome and hadamard_and_reduce's outcomes",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_modules_are_found():
    assert {path.stem for path in MODULES} >= {"cli", "dynamics", "model", "protocols",
                                               "spaces", "zeno"}


def test_private_names_cross_modules_only_where_allowed():
    crossing = {(path.stem, node.module, alias.name)
                for path in MODULES for node in ast.walk(_tree(path))
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if _private(alias.name)}
    assert crossing == set(ALLOWED), "a private name crosses modules; make it public or allow it"
    assert all(ALLOWED.values())


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_reads_a_private_attribute_it_does_not_define(path):
    # e.g. protocols calling propagator._phase_error, a method that dynamics defines
    tree = _tree(path)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    foreign = sorted(f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and _private(node.attr)
                     and node.attr not in defined)
    assert foreign == []


# a quoted level label (f, e or g) or mode label (cavity A or B, fiber F) of either polarization
_LABEL = re.compile(r"[\"'][feg]_[lr][\"']|[\"'][ABF]_[lr][\"']")


def test_the_registers_labels_live_only_in_model_layout():
    # model.LAYOUT builds every level and mode name from its polarization suffix
    package = MODULES[0].parent
    quoted = [f"{path.relative_to(package)}:{n}: {line.strip()}"
              for path in sorted(package.rglob("*.py"))
              for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if _LABEL.search(line)]
    assert quoted == [], "a quoted level or mode label: build it from model.LAYOUT instead"
