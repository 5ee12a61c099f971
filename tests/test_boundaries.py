"""The package's boundaries: no module reaches into another's private names, the register's
labels have one home, every public function has a caller, a public entry names the type it
expects, and the README's examples run as written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zenocavity as zc

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "zenocavity").glob("*.py"))

# (importing module, imported module, name) -> why that private name still crosses
ALLOWED = {
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


# ---------------------------------------------------------------------------
# the public surface
# ---------------------------------------------------------------------------

# public function -> why it stays public with no caller outside its own module
UNCALLED = dict.fromkeys(
    ("embed", "fidelity", "negativity"),
    "a generic figure of merit that the README's module list documents; the readout is tested"
    " against it")


def _readme_examples() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.M | re.S)


def _defined(tree) -> set[str]:
    """The names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def _package_reads(tree) -> set[str]:
    """The names a tree imports from the package by name or reads as ``zc.<name>``."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "zenocavity"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "zenocavity"):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_outside_its_module():
    # callers: the CLI and the other modules, the acceptance gate with its fixtures, and the
    # README's examples; classes stay public, since callers receive or catch them
    trees = {path.stem: _tree(path) for path in MODULES if path.stem != "__init__"}
    owner = {name: stem for stem, tree in trees.items() for name in _defined(tree)}
    outside = set().union(
        *(_package_reads(_tree(ROOT / "tests" / name)) for name in ("test_acceptance.py",
                                                                    "conftest.py")),
        *(_package_reads(ast.parse(example)) for example in _readme_examples()))
    uncalled = {name for name in zc.__all__ if not isinstance(getattr(zc, name), type)
                and name not in outside
                and not any(name in _package_reads(tree)
                            for stem, tree in trees.items() if stem != owner[name])}
    assert uncalled == set(UNCALLED), "a public name no caller reads: make it private or allow it"
    assert all(UNCALLED.values())


_MODEL = zc.build_branch_model(zc.UniformParams(g=1.0, lam=1.0, omega1=0.01), "left")


# each call hands a public entry something of the wrong type: the entry, its arguments, and
# the types its refusal names
@pytest.mark.parametrize("entry, args, message", [
    (zc.effective_generator, (None,), "expected BranchModel, got NoneType"),
    (zc.analytic_dark_bright, (None,), "expected BranchModel, got NoneType"),
    (zc.sector_dark_columns, (None, zc.Branch.LEFT), "expected BranchModel, got NoneType"),
    (zc.predicted_strong_spectrum, (None,), "expected UniformParams, got NoneType"),
    (zc.zeno_ratio, (None,), "expected UniformParams, got NoneType"),
    (zc.solve_timing, (None, "left"), "expected UniformParams, got NoneType"),
    (zc.solve_timing, (None, "combined"), "expected UniformParams, got NoneType"),
    (zc.effective_matrix, (None, zc.Branch.LEFT), "expected UniformParams, got NoneType"),
    (zc.DriveAngles.of, (None, zc.Branch.LEFT), "expected UniformParams, got NoneType"),
    (zc.sector_kets, (None, "left"), "expected HilbertSpace, got NoneType"),
    (zc.sector_kets, (_MODEL.restricted, "left"), "expected HilbertSpace, got RestrictedSpace"),
    (zc.fidelity, (1, None), "expected State, got NoneType"),
    (zc.fidelity, (_MODEL.seed(), _MODEL.seed().vec), "expected State, got ndarray"),
    (zc.hadamard_and_reduce, (1, ["F_l"], ["a"]), "expected State, got int"),
], ids=lambda value: getattr(value, "__qualname__", None))
def test_a_public_entry_names_the_type_it_expects(entry, args, message):
    # each read an attribute of its argument and raised AttributeError
    with pytest.raises(TypeError, match=f"^{message}$"):
        entry(*args)
    assert "``TypeError``" in entry.__doc__


def test_the_readme_examples_run_as_written():
    examples = _readme_examples()
    assert examples, "the README has no python example"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for example in examples:
        done = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=300)
        assert done.returncode == 0, done.stderr
