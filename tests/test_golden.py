"""Every committed seed-0 reference output of the benchmark, byte for byte.

``perfbench/reference/seed0.json`` holds the CLI stdout of each protocol-cli
input, the ``to_dict()`` JSON of each run-reuse input and the CSV of the
200-point Bell sweep. Each key spells out its own input, so the inputs are
rebuilt from the keys alone.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import zenocavity as zc
from zenocavity.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "seed0.json")
    .read_text())


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


@pytest.mark.parametrize("key", sorted(REFERENCE["protocol-cli"]))
def test_protocol_cli_bytes(key):
    protocol, engine, params = _parse_key(key)
    argv = ["protocol", "--name", protocol, "--engine", engine]
    for name, value in params.items():
        argv += [f"--{name}", value]
    assert _cli_stdout(argv) == REFERENCE["protocol-cli"][key]


@pytest.mark.parametrize("key", sorted(REFERENCE["run-reuse"]))
def test_run_reuse_bytes(key):
    protocol, engine, params = _parse_key(key)
    spec = zc.default_spec(protocol, engine=engine, params=zc.UniformParams(
        **{name: float(value) for name, value in params.items()}))
    text = json.dumps(zc.run(spec).to_dict(), indent=2) + "\n"
    assert text == REFERENCE["run-reuse"][key]


@pytest.mark.parametrize("key", sorted(REFERENCE["sweep-grid"]))
def test_sweep_grid_bytes(key):
    assert _cli_stdout(key.split()) == REFERENCE["sweep-grid"][key]
