"""Command-line front end.

Subcommands:

  spectrum    strong-coupling eigenvalues, numeric vs predicted
  darkstates  dark-state residuals, subspace angles, bright-form overlaps
  protocol    run one protocol and emit a JSON result
  sweep       scan one or two parameter axes into a CSV table
  compare     full vs effective fidelity over a grid of pulse durations

Parameters resolve in three layers: built-in defaults, then an optional INI
config file (``--config``, section ``[params]`` plus one section per protocol
name), then explicit flags.  Tables are CSV with 12-significant-digit floats,
single results are JSON, and every file write is atomic (temp file in the
destination directory, then rename).  A sweep runs every point in one process,
in row-major axis order; ``--workers N`` (N >= 1) is accepted and ignored.

Exit codes: 0 success, 2 usage or configuration error (an ``--out`` that
cannot be written included), 1 numeric failure.

A process runs :func:`entry`, which freezes the heap on its way out so that
the interpreter's last collection skips it; :func:`main`, which tests and
library callers run in-process, leaves the heap as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .dynamics import (
    HALF_PI,
    compare_full_vs_effective,
    solve_timing,
    zeno_ratio,
)
from .model import (
    COUPLINGS,
    Branch,
    UniformParams,
    build_branch_model,
)
from .protocols import (
    Engine,
    GateConvention,
    Interpretation,
    Protocol,
    default_spec,
    run,
)
from .zeno import (
    ClusterAmbiguityError,
    DegenerateStructureError,
    analytic_dark_bright,
    decompose,
    predicted_strong_spectrum,
    principal_angles,
)


class CliError(ValueError):
    """Bad flags or config content; maps to exit code 2."""


_SPEC_KEYS = ("branch", "k", "engine", "interpretation", "outcome", "convention")
# also the order sweep axes are applied in: a derived ratio reads the values
# of the axes before it (g_over_lam sets g from lam, omega1_over_g omega1 from g)
_AXIS_NAMES = COUPLINGS + ("g_over_lam", "omega1_over_g")

# largest grid a --taus or --axis flag (or the product of two axes) may ask for
_MAX_POINTS = 10**6

_NUMERIC_ERRORS = (
    ClusterAmbiguityError,
    DegenerateStructureError,
    np.linalg.LinAlgError,
    ArithmeticError,
)

# OpenBLAS sizes its thread pool, when its library loads, from the first of these that is set
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


# ---------------------------------------------------------------------------
# rendering and atomic output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.12g" % float(value)


def _atomic_write(path: str, text: str) -> None:
    # temp file in the same directory so os.replace stays a rename
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zenocavity-", suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _csv_text(header, rows) -> str:
    import csv  # only tables need it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(out_path, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out_path, text)


def _report_flags(cells, flags) -> None:
    """One stderr line for a flagged table row: its (name, cell) pairs, then its flags."""
    if flags:
        row = ", ".join(f"{name}={cell}" for name, cell in cells)
        print(f"flag: {row}: {' | '.join(flags)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# config file and parameter resolution
# ---------------------------------------------------------------------------

def _load_config(path):
    if path is None:
        return None
    import configparser  # only --config needs it

    # values are literal (no % interpolation) and [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise CliError(f"could not parse config {path}: {exc}") from exc
    if not loaded:
        raise CliError(f"config file not found: {path}")
    unknown = sorted(set(parser.sections()) - {"params", *(p.value for p in Protocol)})
    if unknown:
        raise CliError(f"unknown config section(s) {', '.join(unknown)} in {path}")
    return parser


def _section_items(config, section: str, allowed) -> dict:
    items = dict(config.items(section))
    unknown = sorted(set(items) - set(allowed))
    if unknown:
        raise CliError(
            f"unknown key(s) {', '.join(unknown)} in config section [{section}]"
        )
    return items


def _as_float(name: str, raw) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise CliError(f"{name} must be a number, got {raw!r}") from None


def _as_int(name: str, raw) -> int:
    try:
        return int(str(raw), 10)
    except ValueError:
        raise CliError(f"{name} must be an integer, got {raw!r}") from None


def _resolve(args, config):
    """What a subcommand runs on: a ProtocolSpec for protocol and sweep, else a BranchModel.

    Values resolve in layers, each over the one before: the defaults (the
    protocol's, or the subcommand's), the config's ``[params]``, the protocol's
    config section, then the flags.
    """
    if hasattr(args, "name"):  # protocol and sweep
        try:
            protocol = Protocol(args.name)
        except ValueError:
            names = ", ".join(p.value for p in Protocol)
            raise CliError(f"unknown protocol {args.name!r}; pick one of {names}") from None
        section, base = protocol.value, default_spec(protocol).params
    else:
        section, base = None, args.defaults
    layers = [] if config is None else [
        (name, _section_items(config, name, allowed))
        for name, allowed in (("params", COUPLINGS), (section, COUPLINGS + _SPEC_KEYS))
        if name is not None and config.has_section(name)]
    layers.append((None, {key: getattr(args, key, None) for key in COUPLINGS + _SPEC_KEYS}))

    values = {key: getattr(base, key) for key in COUPLINGS}
    overrides = {}
    for name, layer in layers:
        for key, raw in layer.items():
            if raw is None:
                continue
            try:
                if key in COUPLINGS:
                    values[key] = _as_float(key, raw)
                elif section is not None:
                    value = _as_int(key, raw) if key in ("k", "outcome") else raw
                    default_spec(protocol, **{key: value})  # the spec's own check of this key
                    overrides[key] = value
            except ValueError as exc:
                if name is None:  # the flags
                    raise
                raise CliError(f"config section [{name}], key {key}: {exc}") from None
    params = UniformParams(**values)
    if section is None:
        return build_branch_model(params, Branch(args.branch))
    return default_spec(protocol, params=params, **overrides)


def _grid_ends(label: str, flag: str, parts) -> tuple[float, float, int]:
    """Start, stop and count of one grid flag, all checked before any grid is built."""
    start = _as_float(f"{label} start", parts[0])
    stop = _as_float(f"{label} stop", parts[1])
    count = _as_int(f"{label} count", parts[2])
    if count < 2:
        raise CliError(f"{label} count must be at least 2, got {count}")
    for end, value in (("start", start), ("stop", stop), ("stop - start", stop - start)):
        if not math.isfinite(value):
            raise CliError(f"{flag} {end} must be finite, got {value}")
    if count > _MAX_POINTS:
        raise CliError(f"{flag} count must be at most {_MAX_POINTS}, got {count}")
    return start, stop, count


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise CliError(f"grid must look like start:stop:count, got {raw!r}")
    return np.linspace(*_grid_ends("grid", "--taus", parts))


def _parse_axis(raw: str) -> tuple[str, str, float, float, int]:
    """``(name, scale, start, stop, count)`` of one axis; :func:`_axis_grid` builds it."""
    parts = raw.split(":")
    if len(parts) != 5:
        raise CliError(f"axis must look like name:scale:start:stop:count, got {raw!r}")
    name, scale = parts[0], parts[1]
    if name not in _AXIS_NAMES:
        raise CliError(f"unknown axis {name!r}; pick one of {', '.join(_AXIS_NAMES)}")
    if scale not in ("lin", "log"):
        raise CliError(f"axis scale must be lin or log, got {scale!r}")
    start, stop, count = _grid_ends("axis", "--axis", parts[2:])
    if scale == "log" and (start <= 0 or stop <= 0):
        raise CliError("log axis endpoints must be positive")
    return name, scale, start, stop, count


def _axis_grid(scale: str, start: float, stop: float, count: int) -> list[float]:
    spacing = np.geomspace if scale == "log" else np.linspace
    return [float(v) for v in spacing(start, stop, count)]


def _apply_axis(params: UniformParams, name: str, value: float) -> UniformParams:
    if name == "g_over_lam":
        return replace(params, g=value * params.lam)
    if name == "omega1_over_g":
        return replace(params, omega1=value * params.g)
    return replace(params, **{name: value})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args, model) -> int:
    numeric = np.linalg.eigvalsh(model.strong)
    predicted = predicted_strong_spectrum(model.params, model.branch)
    rows = [
        (str(i), _fmt(n), _fmt(p), _fmt(abs(n - p)))
        for i, (n, p) in enumerate(zip(numeric, predicted))
    ]
    _emit(args.out, _csv_text(("index", "numeric", "predicted", "residual"), rows))
    return 0


def _cmd_darkstates(args, model) -> int:
    basis = analytic_dark_bright(model)

    rows = []
    for j in range(basis.dark.shape[1]):
        residual = float(np.linalg.norm(model.strong @ basis.dark[:, j]))
        rows.append(("dark_residual", f"D{j}", _fmt(residual)))

    zero_projector = decompose(model.strong).projector_near(0.0)
    rank, want = round(np.trace(zero_projector)), 3 * len(model.branch.sectors)
    if rank != want:  # g under about 1e-6 of the spectral radius: the default width takes in +-g
        _report_flags([("quantity", "principal_angle")],
                      [f"the zero cluster has rank {rank}, not {want}: it merged bright states"])
    angles = principal_angles(basis.dark, zero_projector)
    for j, angle in enumerate(angles):
        rows.append(("principal_angle", f"angle{j}", _fmt(angle)))

    for sector in model.branch.sectors:
        for energy, overlap in zip(basis.bright_eigenvalues, basis.printed_overlaps[sector]):
            label = f"{sector.value}:E={_fmt(energy)}"
            rows.append(("bright_overlap", label, _fmt(overlap)))

    _emit(args.out, _csv_text(("quantity", "label", "value"), rows))
    return 0


def _cmd_protocol(args, spec) -> int:
    _emit(args.out, json.dumps(run(spec).to_dict(), indent=2) + "\n")
    return 0


def _sweep_eval(spec, names, values):
    """One CSV row (axis values, scores, gap to the other engine) and both engines' flags."""
    params = spec.params
    for name, value in sorted(zip(names, values), key=lambda nv: _AXIS_NAMES.index(nv[0])):
        params = _apply_axis(params, name, value)
    point = replace(spec, params=params)
    model = build_branch_model(point.params, point.branch)
    primary = run(point, model)
    other = Engine.EFFECTIVE if point.engine == Engine.FULL else Engine.FULL
    secondary = run(replace(point, engine=other), model)
    gap = abs(primary.fidelity - secondary.fidelity)
    numbers = (*values, primary.fidelity, primary.negativity,
               primary.success_probability, primary.tau, gap)
    return tuple(_fmt(v) for v in numbers), tuple(dict.fromkeys(primary.flags + secondary.flags))


def _cmd_sweep(args, spec) -> int:
    if not args.axis:
        raise CliError("sweep needs at least one --axis")
    if len(args.axis) > 2:
        raise CliError(f"sweep supports at most two axes, got {len(args.axis)}")
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")

    axes = [_parse_axis(raw) for raw in args.axis]
    names = [name for name, *_ in axes]
    if len(set(names)) != len(names):
        raise CliError("sweep axes must be distinct")
    for derived, base in (("g_over_lam", "g"), ("omega1_over_g", "omega1")):
        if derived in names and base in names:
            raise CliError(f"axis {derived} sets {base}; sweep one of them, not both")
    points = math.prod(count for *_, count in axes)
    if points > _MAX_POINTS:
        raise CliError(f"--axis counts multiply to {points} points, at most {_MAX_POINTS}")
    grids = [_axis_grid(*ends) for _, *ends in axes]

    results = [_sweep_eval(spec, names, point) for point in itertools.product(*grids)]
    header = tuple(names) + (
        "fidelity", "negativity", "success_probability", "tau", "engine_gap",
    )
    _emit(args.out, _csv_text(header, [row for row, _ in results]))
    for row, flags in results:
        _report_flags(zip(names, row), flags)
    return 0


def _cmd_compare(args, model) -> int:
    if args.taus is not None:
        taus = _parse_grid(args.taus)
    else:
        taus = np.linspace(0.0, solve_timing(model.params, model.branch, HALF_PI), 21)
    rows = compare_full_vs_effective(model, taus)
    _emit(args.out, _csv_text(("tau", "fidelity"), [(_fmt(r.tau), _fmt(r.fidelity)) for r in rows]))
    if args.out is not None:
        sys.stdout.write(f"zeno_ratio={_fmt(zeno_ratio(model.params))}\n")
    for row in rows:
        _report_flags([("tau", _fmt(row.tau))], row.flags)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE", help="INI config file")
    for key in COUPLINGS:
        shared.add_argument(f"--{key}", type=float, metavar="X")
    shared.add_argument("--out", metavar="FILE", help="write here instead of stdout")

    branchy = argparse.ArgumentParser(add_help=False)
    branchy.add_argument(
        "--branch", default="left", choices=[b.value for b in Branch],
    )

    specflags = argparse.ArgumentParser(add_help=False)
    specflags.add_argument("--name", required=True, metavar="PROTOCOL")
    specflags.add_argument("--branch", choices=[b.value for b in Branch])
    specflags.add_argument("--k", type=int, metavar="N")
    specflags.add_argument("--engine", choices=[e.value for e in Engine])
    specflags.add_argument("--interpretation", choices=[i.value for i in Interpretation])
    specflags.add_argument("--outcome", type=int, choices=[0, 1])
    specflags.add_argument("--convention", choices=[c.value for c in GateConvention])

    parser = argparse.ArgumentParser(
        prog="zenocavity",
        description=__doc__.splitlines()[0],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    unit = UniformParams(g=1.0, lam=1.0)
    p = sub.add_parser("spectrum", parents=[shared, branchy],
                       help="numeric vs predicted strong-coupling eigenvalues")
    p.set_defaults(func=_cmd_spectrum, defaults=unit)

    p = sub.add_parser("darkstates", parents=[shared, branchy],
                       help="dark-state residuals and bright-form overlaps")
    p.set_defaults(func=_cmd_darkstates, defaults=unit)

    p = sub.add_parser("protocol", parents=[shared, specflags],
                       help="run one protocol, emit JSON")
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("sweep", parents=[shared, specflags],
                       help="scan parameter axes into a CSV table")
    p.add_argument("--axis", action="append", metavar="NAME:SCALE:START:STOP:COUNT",
                   help="up to two of: " + ", ".join(_AXIS_NAMES))
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", parents=[shared, branchy],
                       help="full vs effective fidelity over pulse durations")
    p.add_argument("--taus", metavar="START:STOP:COUNT")
    p.set_defaults(func=_cmd_compare, defaults=replace(unit, omega1=0.01))

    return parser


def main(argv=None) -> int:
    """Run one command. Its first eigensolver call loads scipy's LAPACK and OpenBLAS, with a
    one-thread pool unless the user chose one: the calls are small, and a two-thread pool
    started this late costs about 0.1 s on 2 vCPUs. ``os.environ`` comes back as it was,
    and numpy's pool, started on import, keeps the inherited setting.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    pin = not any(name in os.environ for name in _BLAS_THREAD_VARIABLES)
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return args.func(args, _resolve(args, _load_config(args.config)))
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # CliError and every other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]


def entry() -> int:
    """:func:`main` for a process that ends with it: ``python -m`` and the console script.

    The heap is frozen on every way out, argparse's ``SystemExit`` included,
    so the collection at interpreter shutdown skips all that the run left.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(entry())
