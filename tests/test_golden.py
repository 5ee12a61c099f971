"""Every committed seed-0 reference output of the benchmark, byte for byte.

``perfbench/reference/seed0.json`` holds the CLI stdout of each protocol-cli
input, the ``to_dict()`` JSON of each run-reuse input and the CSV of the
200-point Bell sweep. Each key spells out its own input, so the inputs are
rebuilt from the keys alone.

The last bits of these bytes, and of the report pins in ``test_reports.py``, depend on
the LAPACK and BLAS builds that numpy and scipy ship. ``tests/data/build.json`` names
the build both pin files were recorded on, and a failing pin names it next to the build
it ran on, so BLAS drift reads apart from a regression. The pins stay byte-exact on
every build.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import zenocavity as zc
from zenocavity.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "perfbench" / "reference" / "seed0.json").read_text())
RECORDED_BUILD = json.loads((ROOT / "tests" / "data" / "build.json").read_text())


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return " ".join(str(blas.get(k, "?")) for k in ("name", "version", "openblas configuration"))


def build() -> dict:
    """The build this process runs on, probed as the ``environment`` block of the benchmark's
    records is (``perfbench/child.py``), under the keys of ``tests/data/build.json``."""
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(getattr(numpy.__config__, "CONFIG", {})),
        "blas_scipy": _blas(getattr(scipy.__config__, "CONFIG", {})),
    }


def pinned_on() -> str:
    """The message of a failing pin: the build it was recorded on and the one it ran on."""
    ran = build()
    same = "the same build" if ran == RECORDED_BUILD else "another build"
    lines = [f"pinned bytes differ; {same} (tests/data/build.json):"]
    lines += [f"  {key}: recorded on {RECORDED_BUILD.get(key)!r}, ran on {ran[key]!r}"
              for key in ran]
    return "\n".join(lines)


def _parse_key(key):
    """``"bell/full g=0.1 lam=1.0 ..."`` -> ("bell", "full", {"g": "0.1", ...})."""
    head, *assignments = key.split()
    protocol, engine = head.split("/")
    return protocol, engine, dict(a.split("=") for a in assignments)


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _benchmark_module(name, monkeypatch):
    """``perfbench/<name>.py``, imported under ``name`` for this test only."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_the_build_is_probed_as_the_benchmark_records_probe_it(monkeypatch):
    _benchmark_module("workloads", monkeypatch)  # child imports it by name
    environment = _benchmark_module("child", monkeypatch).environment()
    assert build() == {key: environment[key] for key in RECORDED_BUILD}


@pytest.mark.parametrize("key", sorted(REFERENCE["protocol-cli"]))
def test_protocol_cli_bytes(key):
    protocol, engine, params = _parse_key(key)
    argv = ["protocol", "--name", protocol, "--engine", engine]
    for name, value in params.items():
        argv += [f"--{name}", value]
    assert _cli_stdout(argv) == REFERENCE["protocol-cli"][key], pinned_on()


@pytest.mark.parametrize("key", sorted(REFERENCE["run-reuse"]))
def test_run_reuse_bytes(key):
    protocol, engine, params = _parse_key(key)
    spec = zc.default_spec(protocol, engine=engine, params=zc.UniformParams(
        **{name: float(value) for name, value in params.items()}))
    text = json.dumps(zc.run(spec).to_dict(), indent=2) + "\n"
    assert text == REFERENCE["run-reuse"][key], pinned_on()


@pytest.mark.parametrize("key", sorted(REFERENCE["sweep-grid"]))
def test_sweep_grid_bytes(key):
    assert _cli_stdout(key.split()) == REFERENCE["sweep-grid"][key], pinned_on()
