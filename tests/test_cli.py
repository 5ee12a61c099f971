"""Command-line behavior: output shapes, config layering, exit codes."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenocavity import cli, zeno
from zenocavity.cli import _AXIS_NAMES, _parse_grid, main
from zenocavity.model import COUPLINGS, Branch
from zenocavity.protocols import Engine, Protocol, default_spec


def invoke(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def rows_of(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


# ---------------------------------------------------------------------------
# spectrum / darkstates
# ---------------------------------------------------------------------------

def test_spectrum_left(capsys):
    code, out, err = invoke(["spectrum"], capsys)
    assert code == 0 and err == ""
    header, rows = rows_of(out)
    assert header == ["index", "numeric", "predicted", "residual"]
    assert len(rows) == 7
    assert [r[0] for r in rows] == [str(i) for i in range(7)]
    numeric = [float(r[1]) for r in rows]
    assert numeric == sorted(numeric)
    assert max(float(r[3]) for r in rows) < 1e-9
    assert out.endswith("\n") and "\r" not in out


def test_spectrum_combined_doubles_levels(capsys):
    code, out, _ = invoke(["spectrum", "--branch", "combined"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 14
    numeric = [float(r[1]) for r in rows]
    for i in range(0, 14, 2):
        assert abs(numeric[i] - numeric[i + 1]) < 1e-9


def test_darkstates_report(capsys):
    code, out, err = invoke(["darkstates"], capsys)
    assert code == 0 and err == ""
    header, rows = rows_of(out)
    assert header == ["quantity", "label", "value"]
    by_kind = {}
    for quantity, label, value in rows:
        by_kind.setdefault(quantity, []).append((label, float(value)))
    assert [l for l, _ in by_kind["dark_residual"]] == ["D0", "D1", "D2"]
    assert max(v for _, v in by_kind["dark_residual"]) < 1e-10
    assert [l for l, _ in by_kind["principal_angle"]] == ["angle0", "angle1", "angle2"]
    assert max(v for _, v in by_kind["principal_angle"]) < 1e-8
    brights = by_kind["bright_overlap"]
    assert len(brights) == 4
    for label, value in brights:
        assert label.startswith("left:E=")
        assert -1e-12 <= value <= 1.0 + 1e-12
        # the +-g pair of written-out bright states is exact at any coupling
        if abs(abs(float(label.split("=")[1])) - 1.0) < 1e-9:
            assert abs(value - 1.0) < 1e-9


def test_darkstates_combined_covers_both_sectors(capsys):
    code, out, _ = invoke(["darkstates", "--branch", "combined"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    labels = [r[1] for r in rows if r[0] == "bright_overlap"]
    assert len(labels) == 8
    assert sum(l.startswith("left:") for l in labels) == 4
    assert sum(l.startswith("right:") for l in labels) == 4


@pytest.mark.parametrize("branch", ["left", "right", "combined"])
def test_darkstates_decomposes_each_sector_once(capsys, monkeypatch, branch):
    # one eigh per sector's bright block, one more for the zero-eigenvalue projector
    calls = []

    def counting(h):
        calls.append(h)
        return eigh(h)

    eigh = zeno.eigh
    monkeypatch.setattr(zeno, "eigh", counting)
    assert invoke(["darkstates", "--branch", branch], capsys)[0] == 0
    assert len(calls) == 1 + len(Branch(branch).sectors)


@pytest.mark.parametrize("branch", ["left", "right", "combined"])
def test_darkstates_flags_a_zero_cluster_that_swallowed_bright_states(capsys, branch):
    # at g/lam = 1e-6 the default width (1e-6 of the spectral radius) merges +-g into the
    # zero cluster, so the angles are taken against a projector of rank 5 per sector
    sectors = len(Branch(branch).sectors)
    code, out, err = invoke(["darkstates", "--branch", branch, "--g", "1e-6"], capsys)
    assert code == 0
    assert err.startswith("flag: ") and err.count("\n") == 1
    assert f"rank {5 * sectors}, not {3 * sectors}" in err
    angles = [row for row in rows_of(out)[1] if row[0] == "principal_angle"]
    assert len(angles) == 3  # the rows stay, against the wider projector
    code, _, err = invoke(["darkstates", "--branch", branch], capsys)
    assert (code, err) == (0, "")


def test_ambiguous_clustering_is_a_numeric_failure(capsys):
    # the +-g doublet sits inside the merge band but outside merge distance
    code, out, err = invoke(["darkstates", "--g", "2e-6", "--lam", "1"], capsys)
    assert code == 1
    assert "numeric failure" in err


def test_bright_energies_that_coincide_are_a_numeric_failure(capsys):
    # chi rounds to 1 at lam/g = 1e-8: the report would list E=1 and E=-1 twice
    code, out, err = invoke(["darkstates", "--lam", "1e-8"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("numeric failure:") and "same eigenvector" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["protocol", "--name", "bell", "--g", "1e-300"],  # g**2 underflows to 0
    ["protocol", "--name", "ghz", "--g", "1e300"],  # g**2 overflows
    ["protocol", "--name", "bell", "--lam", "1e300"],
    ["sweep", "--name", "ghz", "--axis", "g:log:1e-200:1:3"],
    # a subnormal phase rate puts the pulse time at infinity
    ["protocol", "--name", "state_transfer", "--engine", "effective",
     "--lam", "5e-324", "--omega2", "1"],
    # a finite pulse time, but E * tau of the full engine overflows
    ["protocol", "--name", "swap", "--g", "1e-13", "--lam", "5e-324",
     "--omega1", "1e300", "--omega2", "0.5", "--omega3", "1e-300"],
    # finite phases, but eps * max|E| * tau is far above the phase resolution
    ["compare", "--taus", "0:1e300:3"],
    ["protocol", "--name", "ghz", "--g", "1e150", "--lam", "1e150"],
    ["protocol", "--name", "state_transfer", "--g", "1e12", "--lam", "1e12"],  # g tau 2.7e14
    ["protocol", "--name", "bell", "--g", "1e11", "--lam", "1e12"],  # g tau 2.2e14
])
def test_arithmetic_edges_are_numeric_failures(capsys, argv):
    code, out, err = invoke(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("numeric failure:")


@pytest.mark.parametrize("argv, want", [
    (["protocol", "--name", "state_transfer", "--g", "1e10", "--lam", "1e10"],
     0.9999997390768399),  # g tau 2.7e12
    (["protocol", "--name", "bell", "--g", "1e9", "--lam", "1e10"],
     0.9950142957638738),  # g tau 2.2e12
])
def test_large_couplings_inside_the_phase_resolution_still_run(capsys, argv, want):
    code, out, err = invoke(argv, capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["fidelity"] == want


@pytest.mark.parametrize("argv, couplings", [
    (["protocol", "--name", "ghz", "--g", "1e300"], "g = 1e+300, lam = 1.0"),  # g**2 overflows
    (["darkstates", "--g", "1e-170"], "g = 1e-170, lam = 1.0"),  # g**2 underflows to 0
    (["protocol", "--name", "bell", "--lam", "1e300"], "g = 0.1, lam = 1e+300"),
    # 2 lam^2 / g^2 overflows to inf in float arithmetic, which raises nothing
    (["spectrum", "--g", "1e-5", "--lam", "1e150"], "g = 1e-05, lam = 1e+150"),
    (["darkstates", "--g", "1e154", "--lam", "1e154"], "g = 1e+154, lam = 1e+154"),
    (["protocol", "--name", "bell", "--g", "1e-5", "--lam", "1e150"],
     "g = 1e-05, lam = 1e+150"),
])
def test_chi_failures_name_the_couplings(capsys, argv, couplings):
    code, out, err = invoke(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("numeric failure: chi") and couplings in err


_EDGE_VALUES = ("0", "5e-324", "1e-300", "1e-150", "1e-13", "0.01", "0.5", "1", "2",
                "1e13", "1e150", "1e300", "nan", "inf", "-1")

# An exit-0 row either carries a flag or meets the closed forms of the paper's effective
# dynamics: fidelity 1, or 2 lam^2 / (g^2 + 2 lam^2) for bell, within 1e-9 on the effective
# engine and within 0.1 r + 1e-9 on the full engine (perfbench's FULL_TOL_PER_RATIO), where
# r is the largest drive over min(g, lam); success 1/2 for threedim and 1/4 for sixdim at
# their default readout on the effective engine; a sweep's engine gap within 0.1 r + 1e-9;
# and a compare row's infidelity below 3 r^2.
_EFFECTIVE_TOL = 1e-9
_FULL_TOL_PER_RATIO = 0.1
_SUCCESS = {"threedim": 0.5, "sixdim": 0.25}


def _drive_ratio(p) -> float:
    return max(p["omega1"], p["omega2"], p["omega3"]) / min(p["g"], p["lam"])


def _assert_closed_form(name, engine, params, fid, success):
    ratio = params["g"] / params["lam"]
    want = 2 / (ratio * ratio + 2) if name == "bell" else 1.0
    effective = engine == Engine.EFFECTIVE.value
    tol = _EFFECTIVE_TOL + (0 if effective else _FULL_TOL_PER_RATIO * _drive_ratio(params))
    assert abs(fid - want) <= tol, (name, engine, params, fid, want)
    if effective and name in _SUCCESS:
        assert abs(success - _SUCCESS[name]) <= _EFFECTIVE_TOL, (name, params, success)


def _flagged(err, cells) -> bool:
    """Whether stderr holds a ``flag:`` line that names exactly these (name, cell) pairs."""
    prefix = "flag: " + ", ".join(f"{name}={cell}" for name, cell in cells) + ": "
    return any(line.startswith(prefix) for line in err.splitlines())


@settings(max_examples=150)
@given(name=st.sampled_from([p.value for p in Protocol]),
       engine=st.sampled_from([e.value for e in Engine]),
       values=st.fixed_dictionaries({
           key: st.one_of(st.none(), st.sampled_from(_EDGE_VALUES))
           for key in ("g", "lam", "omega1", "omega2", "omega3")}))
def test_numeric_arguments_never_escape_the_exit_codes(name, engine, values):
    argv = ["protocol", "--name", name, "--engine", engine]
    for key, value in values.items():
        if value is not None:
            argv += [f"--{key}", value]
    code, out, _ = _main_quietly(argv)
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        return
    doc = json.loads(out, parse_constant=pytest.fail)  # json emits NaN and Infinity bare
    if not doc["flags"]:
        _assert_closed_form(name, engine, doc["params"], doc["fidelity"],
                            doc["success_probability"])


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a traceback would be an uncaught exception here
    return code, out.getvalue(), err.getvalue()


def _finite_rows(code, text):
    """The table's header and rows, every cell finite or empty; none when it failed."""
    assert code in (0, 1, 2)
    if code != 0:
        assert text == ""
        return (), []
    header, rows = rows_of(text)
    for row in rows:
        for cell in row:
            assert cell == "" or math.isfinite(float(cell)), row
    return header, rows


_EDGE_ENDS = st.sampled_from(_EDGE_VALUES)
_DERIVED_AXES = {"g_over_lam": ("g", "lam"), "omega1_over_g": ("omega1", "g")}  # (sets, times)
_COUNTS = st.sampled_from(["2", "3"])  # larger counts ask numpy for that many cells


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([p.value for p in Protocol]),
       axes=st.lists(st.tuples(st.sampled_from(_AXIS_NAMES), st.sampled_from(["lin", "log"]),
                               _EDGE_ENDS, _EDGE_ENDS, _COUNTS),
                     min_size=1, max_size=2, unique_by=lambda axis: axis[0]))
def test_sweep_axis_ends_never_escape_the_exit_codes(name, axes):
    argv = ["sweep", "--name", name]
    for axis in axes:
        argv += ["--axis", ":".join(axis)]
    code, out, err = _main_quietly(argv)
    header, rows = _finite_rows(code, out)
    names = header[:len(axes)]
    spec = default_spec(name)
    for row in rows:
        cells = list(zip(names, row))
        if _flagged(err, cells):
            continue
        # the axes apply in _AXIS_NAMES order, each derived ratio on the values before it;
        # the cells carry 12 significant digits, far inside every tolerance below
        params = {key: getattr(spec.params, key) for key in COUPLINGS}
        for axis, cell in sorted(cells, key=lambda nc: _AXIS_NAMES.index(nc[0])):
            key, base = _DERIVED_AXES.get(axis, (axis, None))
            params[key] = float(cell) * (1.0 if base is None else params[base])
        fid, _, success, _, gap = row[len(axes):]
        _assert_closed_form(name, spec.engine.value, params, float(fid),
                            float(success) if success else None)
        assert float(gap) <= _FULL_TOL_PER_RATIO * _drive_ratio(params) + _EFFECTIVE_TOL, row


@settings(max_examples=60, deadline=None)
@given(branch=st.sampled_from(["left", "right", "combined"]),
       start=_EDGE_ENDS, stop=_EDGE_ENDS, count=_COUNTS)
def test_compare_tau_ends_never_escape_the_exit_codes(branch, start, stop, count):
    argv = ["compare", "--branch", branch, f"--taus={start}:{stop}:{count}"]
    code, out, err = _main_quietly(argv)
    ratio = 0.01  # compare's defaults: g = lam = 1, omega1 = 0.01
    for tau, fid in _finite_rows(code, out)[1]:
        assert _flagged(err, [("tau", tau)]) or 1 - float(fid) <= 3 * ratio**2, (tau, fid)


_MAX_POINTS = 10**6


@pytest.fixture
def bounded_grids(monkeypatch):
    """Fail the test, before numpy allocates anything, on a grid above the cap."""
    for name in ("linspace", "geomspace"):
        real = getattr(np, name)

        def guarded(start, stop, num=50, *args, _real=real, **kwargs):
            assert num <= _MAX_POINTS, f"np.{_real.__name__} asked for {num} points"
            return _real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


@pytest.mark.parametrize("argv, needle", [
    (["compare", "--taus", "0:1:1000000000000"], "--taus count"),
    (["compare", "--taus", "0:1:1000001"], "--taus count"),
    (["sweep", "--name", "bell", "--axis", "omega1:lin:0.001:0.002:1000000000000"],
     "--axis count"),
    (["sweep", "--name", "bell", "--axis", "omega1:log:0.001:0.002:1000001"], "--axis count"),
    # each axis is under the cap, their product is not (and its first point is
    # a usage error of its own, so a missing product check fails fast)
    (["sweep", "--name", "bell", "--axis", "omega1:lin:0:1:1001",
      "--axis", "g:lin:0.1:0.2:1000"], "--axis counts"),
])
def test_oversized_grids_are_usage_errors(capsys, bounded_grids, argv, needle):
    code, out, err = invoke(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: " + needle) and "1000000" in err


def test_a_grid_at_the_cap_is_built(bounded_grids):
    assert _parse_grid(f"0:1:{_MAX_POINTS}").shape == (_MAX_POINTS,)


@pytest.mark.filterwarnings("error")  # numpy's RuntimeWarnings would escape main
@pytest.mark.parametrize("argv, needle", [
    (["compare", "--taus=-inf:inf:3"], "--taus start"),
    (["compare", "--taus", "0:nan:3"], "--taus stop"),
    (["sweep", "--name", "bell", "--axis", "omega1:lin:inf:1:3"], "--axis start"),
    (["sweep", "--name", "bell", "--axis", "omega1:log:1e-3:nan:3"], "--axis stop"),
    (["sweep", "--name", "bell", "--axis", "g_over_lam:lin:0.1:0.2:2",
      "--axis", "omega1:log:-inf:1e-3:2"], "--axis start"),
    # finite ends whose difference overflows
    (["compare", "--taus=-1e308:1e308:3"], "--taus stop - start"),
    (["sweep", "--name", "bell", "--axis", "omega1:lin:-1e308:1e308:3"],
     "--axis stop - start"),
    (["sweep", "--name", "bell", "--axis", "g_over_lam:lin:1e308:-1e308:2"],
     "--axis stop - start"),
])
def test_non_finite_grid_ends_are_usage_errors(capsys, argv, needle):
    code, out, err = invoke(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {needle} must be finite")


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def test_protocol_json_shape(capsys):
    code, out, err = invoke(
        ["protocol", "--name", "state_transfer", "--engine", "effective"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["name", "branch", "params", "k", "tau", "engine",
                         "interpretation", "convention", "fidelity",
                         "negativity", "success_probability", "flags"]
    assert doc["name"] == "state_transfer"
    assert abs(doc["fidelity"] - 1.0) < 1e-10
    assert doc["negativity"] is None
    code2, out2, _ = invoke(
        ["protocol", "--name", "state_transfer", "--engine", "effective"], capsys)
    assert out2 == out


# a nonzero cavity-B drive takes a one-drive protocol off its target, so the run is flagged
@pytest.mark.parametrize("argv, flag", [
    ("protocol --name bell --engine full --omega2 0.01", "bell assumes omega2 = 0"),
    ("protocol --name state_transfer --omega2 0.01", "state_transfer assumes omega2 = 0"),
    ("protocol --name threedim --omega2 0.01", "threedim assumes omega2 = 0"),
    ("protocol --name sixdim --omega2 0.01 --omega3 0.01", "sixdim assumes omega2 = omega3 = 0"),
    ("protocol --name state_transfer --branch combined --omega2 0.01 --omega3 0.01",
     "state_transfer assumes omega2 = omega3 = 0"),
])
def test_a_second_drive_on_a_one_drive_protocol_is_flagged(capsys, argv, flag):
    code, out, err = invoke(argv.split(), capsys)
    assert code == 0 and err == ""
    assert flag in json.loads(out)["flags"]


# far below the default drive, the propagator's phase error outgrows the Zeno ratio's own
@pytest.mark.parametrize("argv, flags", [
    ("protocol --name bell", []),
    ("protocol --name bell --engine full --omega1 1e-13",
     ["phase error eps*max|E|*|t| = 0.00701 above 1e-6; the last digits drift"]),
    ("protocol --name bell --engine full --omega1 1e-11",
     ["phase error eps*max|E|*|t| = 7.01e-05 above 1e-6; the last digits drift"]),
])
def test_a_phase_error_above_1e_6_is_flagged(capsys, argv, flags):
    code, out, err = invoke(argv.split(), capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["flags"] == flags


# sixdim post-selects one outcome on both fiber modes, and one photon behind the splitters
# cannot click on both; the unitary convention and the trace interpretation do read outcome 1
def test_sixdim_beamsplitter_outcome_1_is_a_usage_error(capsys):
    argv = "protocol --name sixdim --convention beamsplitter --outcome 1".split()
    for point in ([], ["--engine", "effective"], ["--g", "3", "--lam", "0.5"]):
        code, out, err = invoke(argv + point, capsys)
        assert (code, out) == (2, "")
        assert err == "error: post-selection on outcome(s) [1, 1] has probability ~0\n"  # no traceback
    code, out, err = invoke(argv + ["--convention", "unitary"], capsys)
    assert (code, err) == (0, "") and abs(json.loads(out)["success_probability"] - 0.25) < 1e-12
    code, out, err = invoke(argv + ["--interpretation", "trace"], capsys)
    assert (code, err) == (0, "") and json.loads(out)["success_probability"] is None


def test_protocol_out_file_matches_stdout(tmp_path, capsys):
    args = ["protocol", "--name", "bell", "--engine", "effective"]
    _, stdout_text, _ = invoke(args, capsys)
    path = tmp_path / "bell.json"
    code, out, _ = invoke(args + ["--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text() == stdout_text
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".part")]
    assert leftovers == []


@pytest.mark.parametrize("command,target,reason", [
    (["protocol", "--name", "bell"], "missing/x.json", "No such file or directory"),
    (["protocol", "--name", "bell"], "taken", "Is a directory"),
    (["sweep", "--name", "bell", "--engine", "effective",
      "--axis", "g_over_lam:lin:0.05:0.1:2"], "missing/x.csv", "No such file or directory"),
])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, command, target, reason):
    (tmp_path / "taken").mkdir()
    path = tmp_path / target
    code, out, err = invoke(command + ["--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


def test_config_layering(tmp_path, capsys):
    cfg = tmp_path / "runs.ini"
    cfg.write_text(
        "[params]\ng = 0.5\n\n[bell]\nlam = 2.0\nbranch = right\nengine = effective\n"
    )
    code, out, _ = invoke(["protocol", "--name", "bell", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "right"
    assert doc["engine"] == "effective"
    assert doc["params"]["g"] == 0.5 and doc["params"]["lam"] == 2.0
    # closed form 2 lam^2 / (g^2 + 2 lam^2) with the config's numbers
    assert abs(doc["fidelity"] - 8.0 / 8.25) < 1e-10

    # explicit flags beat both config sections
    code, out, _ = invoke(
        ["protocol", "--name", "bell", "--config", str(cfg), "--g", "0.1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["g"] == 0.1
    assert abs(doc["fidelity"] - 8.0 / 8.01) < 1e-10


@pytest.mark.parametrize("ini,needle", [
    ("[params]\nbogus = 1\n", "unknown key"),
    ("[state_transfer]\nbogus = 1\n", "unknown key"),
    ("[params]\ng = not-a-number\n", "must be a number"),
    ("[bel]\ng = 0.5\n", "unknown config section"),
])
def test_bad_config_content(tmp_path, capsys, ini, needle):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    code, _, err = invoke(
        ["protocol", "--name", "state_transfer", "--config", str(cfg)], capsys)
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("command,name,ini,key,needle", [
    # the --outcome flag takes 0 or 1, and so does the config key
    ("protocol", "bell", "[bell]\noutcome = 5\n", "outcome", "0 or 1"),
    ("protocol", "threedim", "[threedim]\noutcome = 5\n", "outcome", "0 or 1"),
    ("sweep", "sixdim", "[sixdim]\noutcome = -1\n", "outcome", "0 or 1"),
    # an enum names its choices, as argparse does for the flag
    ("protocol", "bell", "[bell]\nbranch = up\n", "branch", "'left', 'right', 'combined'"),
    ("protocol", "ghz", "[ghz]\nengine = fast\n", "engine", "'effective', 'full'"),
    ("sweep", "threedim", "[threedim]\nconvention = mirror\n", "convention",
     "'unitary', 'beamsplitter'"),
    ("protocol", "ghz", "[ghz]\nbranch = left\n", "branch", "combined branch"),
    ("protocol", "swap", "[swap]\nk = one\n", "k", "must be an integer"),
    ("protocol", "swap", "[swap]\nk = 0\n", "k", "k must be a positive integer, got 0"),
    ("sweep", "bell", "[bell]\nk = -2\n", "k", "k must be a positive integer, got -2"),
    ("protocol", "bell", "[params]\nlam = big\n", "lam", "must be a number"),
])
def test_config_errors_name_their_section_and_key(tmp_path, capsys, command, name, ini, key,
                                                  needle):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    argv = [command, "--name", name, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--axis", "omega1:lin:0.005:0.01:2"]
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (2, "")
    section = ini.partition("]")[0] + "]"
    assert f"config section {section}, key {key}:" in err
    assert needle in err


# config values are literal: a % neither interpolates nor crashes the parser
@pytest.mark.parametrize("raw", ["1%", "%(lam)s"])
def test_a_percent_in_a_config_value_is_a_literal(tmp_path, capsys, raw):
    cfg = tmp_path / "percent.ini"
    cfg.write_text(f"[params]\nlam = 2\ng = {raw}\n")
    code, out, err = invoke(["protocol", "--name", "bell", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: config section [params], key g: g must be a number, got {raw!r}\n"


# [DEFAULT] is a section like any other, so it is an unknown one, not a layer under the rest
@pytest.mark.parametrize("others", ["[bell]\nengine = effective\n", "[params]\ng = 0.1\n"])
def test_a_default_section_is_an_unknown_section(tmp_path, capsys, others):
    cfg = tmp_path / "default.ini"
    cfg.write_text(f"[DEFAULT]\nk = 2\n\n{others}")
    code, out, err = invoke(["protocol", "--name", "bell", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: unknown config section(s) DEFAULT in {cfg}\n"


@pytest.mark.parametrize("argv,needle", [
    (["protocol", "--name", "teleport"], "unknown protocol"),
    (["protocol", "--name", "ghz", "--branch", "left"], "combined branch"),
    (["protocol", "--name", "state_transfer", "--config", "/no/such/file.ini"],
     "not found"),
    (["sweep", "--name", "state_transfer"], "at least one --axis"),
    (["sweep", "--name", "state_transfer", "--axis", "g:lin:0.1:1"], "axis must look"),
    (["sweep", "--name", "state_transfer", "--axis", "q:lin:0.1:1:3"], "unknown axis"),
    (["sweep", "--name", "state_transfer", "--axis", "g:log:0:1:3"], "positive"),
    (["sweep", "--name", "state_transfer", "--axis", "g:cubic:0.1:1:3"],
     "lin or log"),
    (["sweep", "--name", "state_transfer", "--axis", "g:lin:0.1:1:1"], "at least 2"),
    (["sweep", "--name", "state_transfer", "--axis", "g:lin:0.5:1:2",
      "--axis", "g:lin:1:2:2"], "distinct"),
    (["sweep", "--name", "state_transfer", "--axis", "g:lin:0.5:1:2",
      "--axis", "lam:lin:1:2:2", "--axis", "omega1:lin:0.01:0.02:2"],
     "at most two"),
    (["sweep", "--name", "state_transfer", "--axis", "g:lin:0.5:1:2",
      "--workers", "0"], "--workers"),
    (["compare", "--taus", "0:1"], "grid must look"),
    (["compare", "--taus", "0:1:1"], "at least 2"),
    (["sweep", "--name", "state_transfer", "--axis", "g_over_lam:lin:0.5:1:2",
      "--axis", "g:lin:1:2:2"], "g_over_lam sets g"),
    (["sweep", "--name", "state_transfer", "--axis", "omega1:lin:0.01:0.02:2",
      "--axis", "omega1_over_g:lin:0.01:0.02:2"], "omega1_over_g sets omega1"),
])
def test_usage_errors(capsys, argv, needle):
    code, _, err = invoke(argv, capsys)
    assert code == 2
    assert needle in err


def test_missing_subcommand_and_bad_flag(capsys):
    code, _, _ = invoke([], capsys)
    assert code == 2
    code, _, _ = invoke(["spectrum", "--frequency", "1"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_BASE = ["sweep", "--name", "state_transfer", "--engine", "effective"]


def test_sweep_single_axis(capsys):
    code, out, err = invoke(
        SWEEP_BASE + ["--axis", "g:lin:0.8:1.2:3"], capsys)
    assert code == 0 and err == ""
    header, rows = rows_of(out)
    assert header == ["g", "fidelity", "negativity", "success_probability",
                      "tau", "engine_gap"]
    assert [r[0] for r in rows] == ["0.8", "1", "1.2"]
    for r in rows:
        assert abs(float(r[1]) - 1.0) < 1e-10  # effective transfer is exact
        assert r[2] == "" and r[3] == ""  # no negativity/probability here
        assert 0.0 <= float(r[5]) < 1e-3


def test_sweep_two_axes_row_major(capsys):
    code, out, _ = invoke(
        SWEEP_BASE + ["--axis", "g:lin:1:2:2", "--axis", "lam:lin:1:3:2"], capsys)
    assert code == 0
    header, rows = rows_of(out)
    assert header[:2] == ["g", "lam"]
    assert [(r[0], r[1]) for r in rows] == [
        ("1", "1"), ("1", "3"), ("2", "1"), ("2", "3")]


def test_sweep_derived_axis(capsys):
    code, out, _ = invoke(
        ["sweep", "--name", "bell", "--engine", "effective",
         "--axis", "g_over_lam:log:0.01:0.1:2"], capsys)
    assert code == 0
    header, rows = rows_of(out)
    assert header[0] == "g_over_lam"
    for r in rows:
        ratio = float(r[0])
        want = 2.0 / (ratio * ratio + 2.0)
        assert abs(float(r[1]) - want) < 1e-9


def test_sweep_axis_order_only_swaps_columns(capsys):
    # a derived ratio is applied after the absolute axis it reads
    ratio, lam = "g_over_lam:lin:0.1:0.2:2", "lam:lin:1:4:2"
    base = ["sweep", "--name", "bell", "--engine", "effective"]
    code, first, _ = invoke(base + ["--axis", ratio, "--axis", lam], capsys)
    assert code == 0
    _, second, _ = invoke(base + ["--axis", lam, "--axis", ratio], capsys)
    header1, rows1 = rows_of(first)
    header2, rows2 = rows_of(second)
    assert header2 == [header1[1], header1[0]] + header1[2:]
    assert sorted([r[1], r[0]] + r[2:] for r in rows2) == sorted(rows1)
    for r in rows1:
        want = 2.0 / (float(r[0]) ** 2 + 2.0)  # Bell fidelity depends on g/lam only
        assert abs(float(r[2]) - want) < 1e-9


def test_sweep_workers_do_not_change_bytes(capsys):
    argv = SWEEP_BASE + ["--axis", "g:lin:0.8:1.2:3"]
    _, serial, _ = invoke(argv + ["--workers", "1"], capsys)
    code, parallel, _ = invoke(argv + ["--workers", "2"], capsys)
    assert code == 0
    assert parallel == serial


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_bad_sweep_point_aborts_the_whole_sweep(capsys, tmp_path, workers):
    # the first point sets omega1 = 0 and bell's default omega2 is 0: no drive at all
    argv = ["sweep", "--name", "bell", "--axis", "omega1:lin:0:0.001:2",
            "--workers", workers]
    for extra in ([], ["--out", str(tmp_path / "sweep.csv")]):
        code, out, err = invoke(argv + extra, capsys)
        assert code == 2 and out == ""
        assert "both drives are zero" in err
    assert list(tmp_path.iterdir()) == []  # neither the table nor a temp file


# Far below the default drive, bell's pulse is long enough for the full engine's phases
# to drift. The effective-engine table carries that run too, in its engine_gap column.
PHASE_FLAG = "phase error eps*max|E|*|t| = {} above 1e-6; the last digits drift"


@pytest.mark.parametrize("engine", ["full", "effective"])
def test_sweep_rows_that_drift_are_flagged_on_stderr(capsys, engine):
    code, out, err = invoke(["sweep", "--name", "bell", "--engine", engine,
                             "--axis", "omega1:log:1e-13:1e-11:3"], capsys)
    assert code == 0
    assert [r[0] for r in rows_of(out)[1]] == ["1e-13", "1e-12", "1e-11"]
    assert err.splitlines() == [
        "flag: omega1=1e-13: " + PHASE_FLAG.format("0.00701"),
        "flag: omega1=1e-12: " + PHASE_FLAG.format("0.000701"),
        "flag: omega1=1e-11: " + PHASE_FLAG.format("7.01e-05"),
    ]


def test_sweep_flag_lines_name_the_row_and_each_of_its_flags(capsys):
    base = ["sweep", "--name", "bell", "--engine", "effective"]
    code, out, err = invoke(base + ["--axis", "g_over_lam:lin:0.1:0.3:2",
                                    "--axis", "omega1:log:0.001:0.05:2"], capsys)
    assert code == 0 and len(rows_of(out)[1]) == 4
    zeno = "zeno ratio {} above 0.1; dark-sector picture degrades"
    regime = "bell regime wants g << lam; g/lam = 0.3"
    assert err.splitlines() == [
        "flag: g_over_lam=0.1, omega1=0.05: " + zeno.format("0.5"),
        "flag: g_over_lam=0.3, omega1=0.001: " + regime,
        "flag: g_over_lam=0.3, omega1=0.05: " + zeno.format("0.167") + " | " + regime,
    ]
    code, _, err = invoke(base + ["--axis", "g_over_lam:lin:0.05:0.1:2"], capsys)
    assert (code, err) == (0, "")


def test_compare_rows_that_drift_are_flagged_on_stderr(capsys):
    code, out, err = invoke(["compare", "--omega1", "1e-11"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    lines = err.splitlines()
    # the phase error grows with tau: every row after tau = 0 is past 1e-6
    assert len(lines) == len(rows) - 1 == 20
    for (tau, _), line in zip(rows[1:], lines):
        assert line.startswith(f"flag: tau={tau}: phase error eps*max|E|*|t| = ")
    assert lines[-1].endswith(PHASE_FLAG.format("0.000105"))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_requested_grid(capsys):
    code, out, err = invoke(["compare", "--taus", "0:300:4"], capsys)
    assert code == 0 and err == ""
    header, rows = rows_of(out)
    assert header == ["tau", "fidelity"]
    assert [r[0] for r in rows] == ["0", "100", "200", "300"]
    assert abs(float(rows[0][1]) - 1.0) < 1e-12


def test_compare_default_grid_and_ratio_line(tmp_path, capsys):
    code, out, _ = invoke(["compare"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 21

    path = tmp_path / "compare.csv"
    code, out, _ = invoke(["compare", "--out", str(path)], capsys)
    assert code == 0
    assert out == "zeno_ratio=0.01\n"
    _, rows = rows_of(path.read_text())
    assert len(rows) == 21


# ---------------------------------------------------------------------------
# scipy's BLAS pool in a fresh process
# ---------------------------------------------------------------------------

# OpenBLAS sizes its pool from the first of these that is set
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_THREADS_ACROSS_MAIN = r"""
import contextlib, io, os, sys
from zenocavity.cli import main

def threads():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0

before, started = dict(os.environ), threads()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["protocol", "--name", "bell"]) == 0
assert dict(os.environ) == before, set(os.environ.items()) ^ set(before.items())
print(threads() - started)
"""

_GOLDEN_OUTPUTS = r"""
import test_golden as golden

for part, test in (("protocol-cli", golden.test_protocol_cli_bytes),
                   ("run-reuse", golden.test_run_reuse_bytes),
                   ("sweep-grid", golden.test_sweep_grid_bytes)):
    for key in sorted(golden.REFERENCE[part]):
        test(key)
"""


def _run(argv, **threads):
    """Run ``argv`` in a new process with only the given thread variables set."""
    here = Path(__file__).resolve().parent
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env={**env, **threads},
                          timeout=300)


def _python(*args, **threads):
    """Run a new interpreter on ``args`` with only the given thread variables set."""
    return _run([sys.executable, *args], **threads)


def _fresh_process(code, *args, **threads):
    """Run ``code`` on ``args`` in a new interpreter; its stdout, once it has exited 0."""
    done = _python("-c", code, *args, **threads)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("threads", [{}, *({name: "2"} for name in THREAD_VARIABLES)],
                         ids=["unset", *THREAD_VARIABLES])
def test_main_loads_scipys_blas_single_threaded_unless_a_variable_is_set(threads):
    # main must hand os.environ back as it found it, whether or not it pinned the load
    gained = int(_fresh_process(_THREADS_ACROSS_MAIN, **threads))
    if sys.platform != "linux" or (_cpus() or 1) < 2:
        pytest.skip("thread counts need /proc/self/task and at least 2 CPUs")
    if threads:  # the user's setting reaches scipy's OpenBLAS untouched
        assert gained > 0
    else:
        assert gained == 0


# the first eigensolver call loads scipy's LAPACK, under the command's pin; spectrum
# needs only numpy's eigvalsh and loads nothing
_LAPACK_LOADS_ON_FIRST_USE = r"""
import contextlib, io, os
from zenocavity import zeno
from zenocavity.cli import main

before = dict(os.environ)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["spectrum", "--branch", "combined"]) == 0
    assert zeno._flapack.cache_info().currsize == 0, "spectrum loaded LAPACK"
    assert main(["compare"]) == 0
    assert zeno._flapack.cache_info().currsize == 1
assert dict(os.environ) == before
"""


def test_scipys_lapack_loads_only_when_a_command_first_needs_it():
    _fresh_process(_LAPACK_LOADS_ON_FIRST_USE)


@pytest.mark.parametrize("threads", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "OPENBLAS_NUM_THREADS=2"])
def test_golden_outputs_do_not_depend_on_blas_threads(threads):
    _fresh_process(_GOLDEN_OUTPUTS, **threads)


# the full engine on both sectors, the splitter's Kraus histories, the spectrum, a two-axis
# sweep, and each report on each branch
_BLAS_ARGV = [
    ["protocol", "--name", "sixdim", "--engine", "full"],
    ["protocol", "--name", "threedim", "--convention", "beamsplitter"],
    ["protocol", "--name", "sixdim", "--convention", "beamsplitter", "--interpretation", "trace"],
    ["spectrum", "--branch", "combined"],
    ["sweep", "--name", "bell", "--engine", "effective", "--axis", "g_over_lam:lin:0.05:0.1:2",
     "--axis", "omega1:log:0.001:0.01:2"],
    *([command, "--branch", branch] for branch in ("left", "right", "combined")
      for command in ("darkstates", "compare")),
]

_STDOUT_OF_EACH = r"""
import contextlib, io, json, sys
from zenocavity.cli import main

outs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    outs.append(out.getvalue())
print(json.dumps(outs))
"""


def test_cli_outputs_do_not_depend_on_blas_threads():
    unset, two = (json.loads(_fresh_process(_STDOUT_OF_EACH, json.dumps(_BLAS_ARGV), **threads))
                  for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"}))
    for argv, a, b in zip(_BLAS_ARGV, unset, two):
        assert a == b, argv


# ---------------------------------------------------------------------------
# the process entry: python -m zenocavity.cli and the console script
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,want", [
    (["protocol", "--name", "bell"], 0),
    (["protocol", "--name", "bell", "--g", "1e-300"], 1),
    (["protocol", "--name", "bell", "--out", "missing/x.json"], 2),
], ids=["success", "numeric-failure", "unwritable-out"])
def test_a_fresh_process_matches_main_in_process(tmp_path, capsys, argv, want):
    argv = [str(tmp_path / a) if a.startswith("missing/") else a for a in argv]
    code, out, err = invoke(argv, capsys)
    assert code == want
    done = _python("-m", "zenocavity.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    assert invoke(["protocol", "--name", "bell"], capsys)[0] == 0
    assert invoke(["protocol", "--name", "bogus"], capsys)[0] == 2
    assert invoke(["protocol"], capsys)[0] == 2  # argparse's SystemExit
    assert gc.get_freeze_count() == 0


_ENTRY_FREEZES = r"""
import contextlib, gc, io, sys
from zenocavity.cli import entry

sys.argv = ["zenocavity", "protocol", "--name", "bell"]
with contextlib.redirect_stdout(io.StringIO()):
    assert entry() == 0
assert gc.get_freeze_count() > 0
gc.unfreeze()
sys.argv = ["zenocavity", "protocol"]  # argparse exits from inside main
with contextlib.redirect_stderr(io.StringIO()):
    with contextlib.suppress(SystemExit):
        entry()
assert gc.get_freeze_count() > 0
"""


def test_the_entry_freezes_the_heap_on_every_way_out():
    _fresh_process(_ENTRY_FREEZES)


# The flag texts a user greps for, each on the stream its command writes it to: the
# regime flags in a protocol's JSON, and a phase error past 1e-6 on every engine and command.
_FLAG_TEXTS = {
    "bell-second-drive": (["protocol", "--name", "bell", "--omega2", "0.01"], "stdout",
                          '"bell assumes omega2 = 0"'),
    "bell-default": (["protocol", "--name", "bell"], "stdout", '"flags": []'),
    "protocol-phase-error": (["protocol", "--name", "bell", "--engine", "full",
                              "--omega1", "1e-13"], "stdout",
                             '"phase error eps*max|E|*|t| = 0.00701'),
    **{f"sweep-{engine}-phase-error": (
        ["sweep", "--name", "bell", "--engine", engine, "--axis", "omega1:log:1e-13:1e-11:3"],
        "stderr", "flag: omega1=1e-13: phase error eps*max|E|*|t| = 0.00701")
       for engine in ("full", "effective")},
    "compare-phase-error": (["compare", "--omega1", "1e-11"], "stderr",
                            "phase error eps*max|E|*|t| = "),
}


@pytest.mark.parametrize("argv, stream, text", _FLAG_TEXTS.values(), ids=_FLAG_TEXTS)
def test_each_flag_text_reaches_its_stream(capsys, argv, stream, text):
    code, out, err = invoke(argv, capsys)
    assert code == 0
    assert text in {"stdout": out, "stderr": err}[stream]


@pytest.mark.parametrize("argv, stream, text", _FLAG_TEXTS.values(), ids=_FLAG_TEXTS)
def test_the_console_script_prints_each_flag_text(argv, stream, text):
    script = shutil.which("zenocavity")
    if script is None:
        pytest.skip("the zenocavity console script is not installed")
    done = subprocess.run([script, *argv], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert text in getattr(done, stream)


# What a user runs: every protocol, each multi-history readout, a sweep, the reports, and
# the numeric (exit 1) and usage (exit 2) edges. {tmp} is a scratch directory holding the
# config files below and an existing directory "taken".
_CONFIGS = {"k0.ini": "[swap]\nk = 0\n", "percent.ini": "[params]\ng = 1%\n",
            "default.ini": "[DEFAULT]\nk = 2\n\n[bell]\nengine = effective\n"}
_ENTRY_ARGV = {
    **{p.value: (f"protocol --name {p.value}", 0) for p in Protocol},
    "threedim-outcome-1": ("protocol --name threedim --outcome 1", 0),
    "threedim-right-beamsplitter-trace": ("protocol --name threedim --branch right"
                                          " --convention beamsplitter --interpretation trace", 0),
    "sixdim-trace": ("protocol --name sixdim --interpretation trace", 0),
    "sixdim-beamsplitter": ("protocol --name sixdim --convention beamsplitter", 0),
    "sweep-in-regime": ("sweep --name bell --engine effective --axis g_over_lam:lin:0.05:0.1:2"
                        " --workers 2", 0),
    "spectrum": ("spectrum --branch combined", 0),
    "darkstates": ("darkstates --branch combined", 0),
    "compare": ("compare", 0),
    "tiny-g": ("protocol --name bell --g 1e-300", 1),
    "huge-taus": ("compare --taus 0:1e300:3", 1),
    "huge-lam": ("spectrum --g 1e-5 --lam 1e150", 1),
    "tiny-lam": ("darkstates --lam 1e-8", 1),
    "oversized-taus": ("compare --taus 0:1:1000000000000", 2),
    "infinite-axis": ("sweep --name bell --axis omega1:lin:inf:1:3", 2),
    "overflowing-taus": ("compare --taus=-1e308:1e308:3", 2),
    "k0-config": ("protocol --name swap --config {tmp}/k0.ini", 2),
    "percent-config": ("protocol --name bell --config {tmp}/percent.ini", 2),
    "default-config": ("protocol --name bell --config {tmp}/default.ini", 2),
    "missing-out": ("protocol --name bell --out {tmp}/missing/x.json", 2),
    "taken-out": ("protocol --name bell --out {tmp}/taken", 2),
    "missing-sweep-out": ("sweep --name bell --engine effective"
                          " --axis g_over_lam:lin:0.05:0.1:2 --out {tmp}/missing/x.csv", 2),
    "sixdim-beamsplitter-outcome-1": ("protocol --name sixdim --convention beamsplitter"
                                      " --outcome 1", 2),
}


@pytest.fixture
def entry_dir(tmp_path):
    for name, text in _CONFIGS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "taken").mkdir()
    return tmp_path


def _entry_argv(key, tmp):
    return [arg.format(tmp=tmp) for arg in _ENTRY_ARGV[key][0].split()]


def _files(tmp):
    return sorted(path.relative_to(tmp) for path in tmp.rglob("*"))


@pytest.mark.parametrize("key", _ENTRY_ARGV)
def test_each_entry_argv_exits_as_documented(entry_dir, capsys, key):
    before = _files(entry_dir)
    code, out, err = invoke(_entry_argv(key, entry_dir), capsys)
    assert code == _ENTRY_ARGV[key][1], err
    if code == 0:
        assert out and err == ""
    assert _files(entry_dir) == before  # a failed write leaves no file behind


@pytest.mark.parametrize("key", _ENTRY_ARGV)
def test_the_console_script_answers_as_the_module_does(entry_dir, key):
    script = shutil.which("zenocavity")
    if script is None:
        pytest.skip("the zenocavity console script is not installed")
    argv = _entry_argv(key, entry_dir)
    via_script = _run([script, *argv])
    via_module = _python("-m", "zenocavity.cli", *argv)
    assert via_script.returncode == _ENTRY_ARGV[key][1], via_script.stderr
    assert "Traceback" not in via_script.stderr
    assert ((via_script.returncode, via_script.stdout, via_script.stderr)
            == (via_module.returncode, via_module.stdout, via_module.stderr))


def test_the_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["zenocavity"]
    module, _, name = target.partition(":")
    assert module == "zenocavity.cli"
    assert getattr(cli, name, None) is cli.entry


# configparser serves only --config and csv only tables; a protocol run loads neither
_LAZY_IMPORTS = r"""
import contextlib, io, json, os, sys, tempfile
from pathlib import Path

def check(what):
    for name in ("configparser", "csv"):
        assert name not in sys.modules, f"{what} imported {name}"

def stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()

check("the interpreter")
import zenocavity
from zenocavity.cli import main
check("import zenocavity.cli")
stdout(["protocol", "--name", "bell"])
check("protocol")

# the seed-0 references, recorded before the imports moved
reference = json.loads((Path(zenocavity.__file__).resolve().parents[2] / "perfbench"
                        / "reference" / "seed0.json").read_text())
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "run.ini")
    for key, want in sorted(reference["protocol-cli"].items()):
        head, *assignments = key.split()
        protocol, engine = head.split("/")
        with open(config, "w") as handle:
            handle.write("[params]\n" + "".join(f"{a.replace('=', ' = ')}\n" for a in assignments)
                         + f"[{protocol}]\nengine = {engine}\n")
        assert stdout(["protocol", "--name", protocol, "--config", config]) == want, key
for key, want in reference["sweep-grid"].items():
    assert stdout(key.split()) == want, key
"""


def test_configparser_and_csv_load_only_where_they_are_used():
    _fresh_process(_LAZY_IMPORTS)
