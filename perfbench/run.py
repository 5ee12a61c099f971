#!/usr/bin/env python3
"""Benchmark of the zenocavity CLI and library (see README.md beside this file).

    python3 perfbench/run.py --workload protocol-cli --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the traced
pass that gives the per-layer metrics. Either way the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Each workload is driven from this process, closed loop with one
client. The program is run from ``src`` of the checkout this file sits in.

Other modes:
  --out FILE                append the full result record (environment,
                            digest, details) to FILE as one JSON line
  --compare A B             compare two such files metric by metric and warn
                            when their environments differ
  --probe blas-threads      run-reuse with OPENBLAS_NUM_THREADS=1 and unset
  --record-reference        rewrite reference/seed0.json from this checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracing import LAYERS, layer_of, parse_importtime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference" / f"seed{wl.DEFAULT_SEED}.json"

SETUP_REPEATS = 5     # set-up is measured this many times per run; the median counts
TAIL_WINDOW = 200     # the tail is taken per window of at least this many ops
TRACE_ROUNDS = 100    # traced run-reuse: rounds of the 12 (protocol, engine) pairs
OP_TIMEOUT_S = 150
SWEEP_SAMPLES = 2     # 2x2 sub-grids recomputed per run when no reference is committed

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("results_per_s", "results/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

TIMED_SPANS = {  # per-layer metric -> (span name, "incl" | "self")
    "model.build_branch_model.s": ("model.build_branch_model", "incl"),
    "model.build_hamiltonian.s": ("model.build_hamiltonian", "incl"),
    "model.reachable_subspace.s": ("model.reachable_subspace", "incl"),
    "model.restrict.s": ("model.restrict", "incl"),
    "dynamics.Propagator.init_s": ("dynamics.Propagator.__init__", "incl"),
    "dynamics.Propagator.apply_s": ("dynamics.Propagator.apply", "incl"),
    "dynamics.effective_generator.s": ("dynamics.effective_generator", "incl"),
    "dynamics.solve_timing.s": ("dynamics.solve_timing", "incl"),
    "zeno.analytic_dark_bright.s": ("zeno.analytic_dark_bright", "incl"),
    "zeno.sector_dark_columns.s": ("zeno.sector_dark_columns", "incl"),
    "protocols.run.self_s": ("protocols.run", "self"),
    "protocols.target_state.s": ("protocols.target_state", "incl"),
    "protocols.hadamard_and_reduce.s": ("protocols.hadamard_and_reduce", "incl"),
    "spaces.partial_trace.s": ("spaces.partial_trace", "incl"),
    "spaces.negativity.s": ("spaces.negativity", "incl"),
    "spaces.fidelity.s": ("spaces.fidelity", "incl"),
}
# counts that repeat exactly between two traced runs of the same commit and seed
EXACT_COUNTS = ("model.build_hamiltonian.calls", "model.kron_calls",
                "linalg.eig_calls", "spaces.apply_on_mode.calls", "model.kept_ratio")

PER_LAYER = (
    [("cli.import_s", "s", "lower"),
     ("cli.import.numpy_s", "s", "lower"),
     ("cli.import.scipy_s", "s", "lower"),
     ("cli.import.zenocavity_self_s", "s", "lower"),
     ("cli.main.self_s", "s", "lower"),
     ("cli.sweep.pool_speedup", "x", "higher"),
     ("model.build_hamiltonian.calls", "count", "lower"),
     ("model.kron_calls", "count", "lower"),
     ("model.kept_ratio", "ratio", "higher"),
     ("linalg.eig_calls", "count", "lower"),
     ("spaces.apply_on_mode.calls", "count", "lower")]
    + [(name, "s", "lower") for name in TIMED_SPANS]
    + [(f"{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [("interpreter.share", "ratio", "lower"),
       ("unattributed.share", "ratio", "lower"),
       ("trace.op_wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class ProgramMissing(RuntimeError):
    """The checkout holds no runnable zenocavity package."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(blas_threads: str | None = "inherit") -> dict:
    """The inherited environment with ``src`` first on PYTHONPATH.

    BLAS threading is inherited unless ``blas_threads`` says otherwise
    (None removes OPENBLAS_NUM_THREADS); the benchmark never pins it itself.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if blas_threads is None:
        env.pop("OPENBLAS_NUM_THREADS", None)
    elif blas_threads != "inherit":
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


class Child:
    """One child process: wall time from spawn, optional "ready" time, and its
    peak resident set (``wait4`` folds in the grandchildren it reaped)."""

    def __init__(self, cmd: list[str], env: dict, stdin_text: str | None = None):
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL)
        self._err: list[str] = []
        self._err_thread = threading.Thread(
            target=lambda: self._err.append(self.proc.stderr.read()), daemon=True)
        self._err_thread.start()
        self._timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        self._timer.start()
        if stdin_text is not None:
            self.proc.stdin.write(stdin_text)
            self.proc.stdin.close()

    def wait_ready(self) -> float:
        line = self.proc.stdout.readline()
        elapsed = perf_counter() - self.start
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"child did not start: {self.stderr.strip()[-2000:]}")
        return elapsed

    def finish(self) -> "Child":
        self.stdout = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.wall = perf_counter() - self.start
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self._timer.cancel()
        self._err_thread.join()
        self.proc.stdout.close()
        self.proc.stderr.close()
        self.stderr = "".join(self._err)
        self.rss_kb = usage.ru_maxrss
        return self


def run_child(cmd: list[str], env: dict, stdin_text: str | None = None) -> Child:
    return Child(cmd, env, stdin_text).finish()


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "zenocavity.cli", *argv]


def child_cmd(mode: str, *args: str, importtime: bool = False) -> list[str]:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, str(BENCH / "child.py"), mode, *args]


def child_json(child: Child) -> dict:
    if child.code != 0:
        raise RuntimeError(f"benchmark child failed ({child.code}): {child.stderr.strip()[-2000:]}")
    return json.loads(child.stdout.splitlines()[-1])


SETUP_CMD = [sys.executable, "-c", "import zenocavity.cli; print('ready', flush=True)"]


def setup_times(env: dict) -> tuple[list[float], int]:
    """Fresh interpreter until ``zenocavity.cli`` is imported, several times."""
    times, rss = [], 0
    for _ in range(SETUP_REPEATS):
        child = Child(SETUP_CMD, env)
        times.append(child.wait_ready())
        child.finish()
        rss = max(rss, child.rss_kb)
    return times, rss


# ---------------------------------------------------------------------------
# references and environment
# ---------------------------------------------------------------------------

def sweep_sample(seed: int) -> list[list[int]]:
    rng = random.Random(f"sweep-grid/check/{seed}")
    picks = []
    for _ in range(SWEEP_SAMPLES):
        i, j = sorted(rng.sample(range(wl.SWEEP_COUNTS[0]), 2))
        k, l = sorted(rng.sample(range(wl.SWEEP_COUNTS[1]), 2))
        picks.append([i, j, k, l])
    return picks


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zenocavity").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def prepare(workload_names, seed: int, env: dict, full: bool = False) -> tuple[dict, dict]:
    """Environment block plus reference outputs for ``seed``.

    The default seed compares against the committed reference bytes; any other
    seed recomputes the references in one child process (for the sweep, a few
    rows through 2x2 sub-grids). The child also compiles the package's bytecode
    before anything is timed.
    """
    if not (SRC / "zenocavity" / "cli.py").is_file():
        raise ProgramMissing(f"no zenocavity package under {SRC}")
    committed = {}
    if seed == wl.DEFAULT_SEED and not full and REFERENCE.is_file():
        committed = json.loads(REFERENCE.read_text())
    wanted = [w for w in workload_names if w not in committed]
    request = {"seed": seed, "full": full, "workloads": wanted, "sample": sweep_sample(seed)}
    report = child_json(run_child(child_cmd("reference"), env, json.dumps(request)))
    environment = report["environment"]
    if not Path(environment.pop("package_file")).resolve().is_relative_to(SRC):
        raise ProgramMissing("zenocavity was imported from outside this checkout")
    environment.update(git_commit=git_commit(), source=source_digest())
    refs = {w: committed.get(w) or report["references"][w] for w in workload_names}
    return environment, refs


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def op_tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile that keeps ten samples beyond it.

    Taken per window of at least TAIL_WINDOW consecutive ops and reported as
    the median over windows, so that the percentile does not drift with the
    run length. Returns (value, percentile, windows).
    """
    windows = max(1, len(samples) // TAIL_WINDOW)
    size = len(samples) / windows
    tails = []
    for w in range(windows):
        part = sorted(samples[round(w * size):round((w + 1) * size)])
        tails.append(part[-11] if len(part) > 10 else part[-1])
    percentile = 100.0 * (1.0 - 10.0 / size) if size > 10 else 100.0
    return statistics.median(tails), percentile, windows


class Tally:
    """Ops of one run: wall samples, failures and the first output per input."""

    def __init__(self):
        self.samples: list[float] = []
        self.errors: list[str] = []
        self.failed = 0
        self.outputs: dict[str, str] = {}
        self.rss_kb = 0
        self.setup: list[float] = []
        self.results = 0
        self.phase_s = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def end_to_end(self) -> tuple[dict, dict]:
        tail, percentile, windows = op_tail(self.samples)
        values = {
            "setup_s": statistics.median(self.setup),
            "op_p50_s": statistics.median(self.samples),
            "op_tail_s": tail,
            "results_per_s": self.results / self.phase_s,
            "peak_rss_mb": self.rss_kb / 1024.0,
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }
        ranked = sorted(self.samples)
        details = {"ops": self.attempted, "tail_percentile": round(percentile, 2),
                   "tail_windows": windows,
                   # the same rule over the whole run: rare stalls show here
                   "whole_run_tail_s": ranked[-11] if len(ranked) > 10 else ranked[-1],
                   "max_s": ranked[-1], "setup_samples_s": self.setup,
                   "failed_ratio": self.failed / self.attempted,
                   "results": self.results, "phase_s": self.phase_s}
        return values, details


def check_cli_op(tally: Tally, key: str, child: Child, reference: str | None,
                 checker) -> None:
    """Compare one CLI op with its reference and the closed forms."""
    first = tally.outputs.setdefault(key, child.stdout)
    if child.code != 0:
        tally.fail(f"{key}: exit {child.code}: {child.stderr.strip()[-300:]}")
    elif reference is not None and child.stdout != reference:
        tally.fail(f"{key}: output differs from the reference")
    elif child.stdout != first:
        tally.fail(f"{key}: output differs from this run's first op")
    elif (why := checker(child.stdout)) is not None:
        tally.fail(f"{key}: {why}")


def sweep_checker(rows: dict | None):
    """Closed-form row checks plus the recomputed sample rows, if any."""
    def check(text: str) -> str | None:
        why = wl.check_sweep_output(text)
        if why is None and rows:
            lines = text.splitlines(keepends=True)[1:]
            for index, line in rows.items():
                if lines[int(index)] != line:
                    return f"row {index} differs from its 2x2 recomputation"
        return why
    return check


# ---------------------------------------------------------------------------
# untraced workloads
# ---------------------------------------------------------------------------

def measure_protocol_cli(seed: int, seconds: float, env: dict, refs: dict) -> Tally:
    inputs = wl.protocol_inputs("protocol-cli", seed)
    tally = Tally()
    tally.setup, tally.rss_kb = setup_times(env)
    order = wl.op_order("protocol-cli", seed, len(inputs))
    start = perf_counter()
    while perf_counter() - start < seconds or len(tally.outputs) < len(inputs):
        inp = inputs[next(order)]
        key = wl.input_key(inp)
        child = run_child(cli_cmd(wl.protocol_argv(inp)), env)
        tally.samples.append(child.wall)
        tally.rss_kb = max(tally.rss_kb, child.rss_kb)
        check_cli_op(tally, key, child, refs.get(key),
                     lambda text, inp=inp: wl.check_protocol_output(text, inp))
    tally.phase_s = perf_counter() - start
    tally.results = tally.attempted - tally.failed
    return tally


def measure_sweep_grid(seed: int, seconds: float, env: dict, refs: dict) -> Tally:
    key = wl.sweep_key(seed)
    reference, rows = refs.get(key), refs.get("rows")
    argv = wl.sweep_argv(wl.sweep_ranges(seed), workers=nproc())
    points = wl.SWEEP_COUNTS[0] * wl.SWEEP_COUNTS[1]
    tally = Tally()
    tally.setup, tally.rss_kb = setup_times(env)
    start = perf_counter()
    while not tally.samples or perf_counter() - start < seconds:
        child = run_child(cli_cmd(argv), env)
        tally.samples.append(child.wall)
        tally.rss_kb = max(tally.rss_kb, child.rss_kb)
        check_cli_op(tally, key, child, reference, sweep_checker(rows))
    tally.phase_s = perf_counter() - start
    tally.results = (tally.attempted - tally.failed) * points
    return tally


def reuse_config(seed: int, refs: dict, **extra) -> str:
    return json.dumps({"seed": seed, "references": refs, "setup_only": False,
                       "seconds": 0, "trace_rounds": 0, **extra})


def take_reuse_report(tally: Tally, seed: int, report: dict) -> None:
    """Ops were compared byte for byte with the reference inside the child;
    here each distinct result is held to the closed forms."""
    tally.samples = [ns * 1e-9 for ns in report["samples_ns"]]
    tally.errors, tally.failed = report["errors"], report["failed"]
    tally.outputs = report["outputs"]
    tally.results = tally.attempted - tally.failed
    for inp in wl.protocol_inputs("run-reuse", seed):
        key = wl.input_key(inp)
        text = tally.outputs.get(key)
        why = "never produced" if text is None else wl.check_protocol_output(text, inp)
        if why is not None:
            tally.fail(f"{key}: {why}")


def measure_run_reuse(seed: int, seconds: float, env: dict, refs: dict) -> Tally:
    tally = Tally()
    for _ in range(SETUP_REPEATS - 1):
        child = Child(child_cmd("reuse"), env, reuse_config(seed, refs, setup_only=True))
        tally.setup.append(child.wait_ready())
        child.finish()
        tally.rss_kb = max(tally.rss_kb, child.rss_kb)
    child = Child(child_cmd("reuse"), env, reuse_config(seed, refs, seconds=seconds))
    tally.setup.append(child.wait_ready())
    report = child_json(child.finish())
    tally.rss_kb = max(tally.rss_kb, child.rss_kb)
    tally.phase_s = report["phase_s"]
    take_reuse_report(tally, seed, report)
    return tally


MEASURE = {"protocol-cli": measure_protocol_cli, "sweep-grid": measure_sweep_grid,
           "run-reuse": measure_run_reuse}


# ---------------------------------------------------------------------------
# traced workloads
# ---------------------------------------------------------------------------

class TraceSum:
    """Span statistics and counters summed over the traced ops of one run."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.kept: list[float] = []
        self.imports: dict[str, float] = {}
        self.import_s = 0.0
        self.interpreter_s = 0.0
        self.traced_wall = 0.0
        self.untraced_wall = 0.0
        self.op_wall = 0.0
        self.results = 0
        self.pool_speedup = 0.0

    def add(self, report: dict) -> None:
        for name, (calls, incl, own) in report["stats"].items():
            acc = self.stats.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
        for name, value in report["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.kept += report["kept"]

    def add_process(self, report: dict, child: Child) -> None:
        """A traced CLI process: its wall is the op wall; import counts as cli."""
        self.add(report)
        self.import_s += report["import_s"]
        # the child's clock is the same CLOCK_MONOTONIC as ours
        self.interpreter_s += (report["begin"] - child.start) + (
            child.start + child.wall - report["end"])
        for top, seconds in parse_importtime(child.stderr).items():
            self.imports[top] = self.imports.get(top, 0.0) + seconds
        self.traced_wall += child.wall
        self.op_wall += child.wall

    def metrics(self) -> dict:
        n = self.results
        per = {}
        for metric, (span, kind) in TIMED_SPANS.items():
            calls, incl, own = self.stats.get(span, (0, 0, 0))
            per[metric] = (incl if kind == "incl" else own) * 1e-9 / n
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span, (_, _, own) in self.stats.items():
            if layer_of(span) in layer_self:
                layer_self[layer_of(span)] += own * 1e-9
        layer_self["cli"] += self.import_s
        calls = {name: calls for name, (calls, _, _) in self.stats.items()}
        per.update({
            "cli.import_s": self.import_s / n,
            "cli.import.numpy_s": self.imports.get("numpy", 0.0) / n,
            "cli.import.scipy_s": self.imports.get("scipy", 0.0) / n,
            "cli.import.zenocavity_self_s": self.imports.get("zenocavity", 0.0) / n,
            "cli.main.self_s": self.stats.get("cli.main", (0, 0, 0))[2] * 1e-9 / n,
            "cli.sweep.pool_speedup": self.pool_speedup,
            "model.build_hamiltonian.calls": calls.get("model.build_hamiltonian", 0) / n,
            "model.kron_calls": self.counts.get("model.kron_calls", 0) / n,
            "model.kept_ratio": statistics.fmean(self.kept) if self.kept else 0.0,
            "linalg.eig_calls": self.counts.get("linalg.eig_calls", 0) / n,
            "spaces.apply_on_mode.calls": calls.get("spaces.apply_on_mode", 0) / n,
            "interpreter.share": self.interpreter_s / self.op_wall,
            "unattributed.share": 1.0 - (sum(layer_self.values()) + self.interpreter_s)
            / self.op_wall,
            "trace.op_wall_s": self.op_wall / n,
            "trace.overhead_s": (self.traced_wall - self.untraced_wall) / n,
        })
        for layer, seconds in layer_self.items():
            per[f"{layer}.share"] = seconds / self.op_wall
        return per


def traced_cli(tally: Tally, trace: TraceSum, key: str, argv: list[str], env: dict,
               reference, checker) -> None:
    child = run_child(child_cmd("traced", *argv, importtime=True), env)
    try:
        report = child_json(child)
    except (RuntimeError, ValueError, IndexError) as exc:
        tally.samples.append(child.wall)
        tally.fail(f"{key}: traced child failed: {exc}")
        return
    child.code, child.stdout = report["exit"], report["stdout"]
    tally.samples.append(child.wall)
    check_cli_op(tally, key, child, reference, checker)
    trace.add_process(report, child)


def trace_protocol_cli(seed: int, env: dict, refs: dict, inputs=None) -> tuple[Tally, TraceSum]:
    """One seeded round over the 12 inputs, each op once untraced and once traced."""
    inputs = inputs if inputs is not None else wl.protocol_inputs("protocol-cli", seed)
    order = wl.op_order("protocol-cli", seed, len(inputs))
    tally, trace = Tally(), TraceSum()
    for _ in range(len(inputs)):
        inp = inputs[next(order)]
        key, argv = wl.input_key(inp), wl.protocol_argv(inp)
        checker = lambda text, inp=inp: wl.check_protocol_output(text, inp)  # noqa: E731
        plain = run_child(cli_cmd(argv), env)
        trace.untraced_wall += plain.wall
        tally.samples.append(plain.wall)
        check_cli_op(tally, key, plain, refs.get(key), checker)
        traced_cli(tally, trace, key, argv, env, refs.get(key), checker)
    trace.results = len(inputs)
    return tally, trace


def trace_sweep_grid(seed: int, env: dict, refs: dict, counts=wl.SWEEP_COUNTS) -> tuple[Tally, TraceSum]:
    """The grid untraced with 1 and nproc workers, then traced in-process (1 worker)."""
    ranges = wl.sweep_ranges(seed)
    key = wl.sweep_key(seed)
    full = counts == wl.SWEEP_COUNTS
    reference, rows = (refs.get(key), refs.get("rows")) if full else (None, None)

    def checker(text):
        return sweep_checker(rows)(text) if full else wl.check_sweep_output(text, counts)

    tally, trace = Tally(), TraceSum()
    walls = {}
    for workers in (1, nproc()):
        child = run_child(cli_cmd(wl.sweep_argv(ranges, counts, workers)), env)
        walls[workers] = child.wall
        tally.samples.append(child.wall)
        check_cli_op(tally, key, child, reference, checker)
    trace.untraced_wall = walls[1]
    trace.pool_speedup = walls[1] / walls[nproc()]
    traced_cli(tally, trace, key, wl.sweep_argv(ranges, counts, 1), env, reference, checker)
    trace.results = counts[0] * counts[1]
    return tally, trace


def trace_run_reuse(seed: int, env: dict, refs: dict, rounds: int = TRACE_ROUNDS) -> tuple[Tally, TraceSum]:
    """Rounds over the 12 prebuilt models untraced, then the same rounds traced."""
    tally, trace = Tally(), TraceSum()
    child = Child(child_cmd("reuse"), env, reuse_config(seed, refs, trace_rounds=rounds))
    child.wait_ready()
    report = child_json(child.finish())
    take_reuse_report(tally, seed, report)
    trace.add(report)
    trace.traced_wall, trace.untraced_wall = report["traced_s"], report["untraced_s"]
    trace.op_wall = sum(tally.samples)
    trace.results = len(tally.samples)
    return tally, trace


TRACE = {"protocol-cli": trace_protocol_cli, "sweep-grid": trace_sweep_grid,
         "run-reuse": trace_run_reuse}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 blas_threads: str | None = "inherit") -> dict:
    env = child_env(blas_threads)
    environment, refs = prepare([workload], seed, env)
    refs = refs[workload]
    if trace:
        tally, traced = TRACE[workload](seed, env, refs)
        values = traced.metrics()
        units = {name: unit for name, unit, _ in PER_LAYER}
        details = {"ops": tally.attempted, "results": traced.results,
                   "traced_wall_s": traced.traced_wall,
                   "untraced_wall_s": traced.untraced_wall}
    else:
        tally = MEASURE[workload](seed, seconds, env, refs)
        values, details = tally.end_to_end()
        units = dict(END_TO_END)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment, "digest": wl.digest(tally.outputs),
        "errors": tally.errors, "details": details,
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def print_record(record: dict) -> None:
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"digest {record['workload']} seed={record['seed']} {record['digest']}")
    for message in record["errors"]:
        print(f"failure {message}")
    print(f"details {json.dumps(record['details'])}")
    for name, metric in record["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def append_record(path: str | None, record: dict) -> None:
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


VOLATILE_ENV = ("git_commit", "source")


def compare(path_a: str, path_b: str) -> int:
    """Medians per (workload, trace, metric) of two record files, with warnings
    when their environments differ."""
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            sets.append([json.loads(line) for line in handle if line.strip()])
    envs = [[{k: v for k, v in r["environment"].items() if k not in VOLATILE_ENV}
             for r in records] for records in sets]
    for side, path in enumerate((path_a, path_b)):
        if any(env != envs[side][0] for env in envs[side]):
            print(f"warning: {path} mixes environments")
    first_a, first_b = envs[0][0], envs[1][0]
    for key in sorted(set(first_a) | set(first_b)):
        if first_a.get(key) != first_b.get(key):
            print(f"warning: environments differ in {key}: "
                  f"{first_a.get(key)!r} vs {first_b.get(key)!r}")
    spec = ROOT / "BENCHMARK.json"
    bound = ({m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
             if spec.is_file() else {})
    groups: dict = {}
    for side, records in enumerate(sets):
        for r in records:
            for name, metric in r["metrics"].items():
                groups.setdefault((r["workload"], r["trace"], name), ([], []))[side].append(
                    metric["value"])
    for (workload, trace, name), (a, b) in sorted(groups.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else float("nan")
        limit = f" bound {bound[name]:.2f}" if name in bound and not trace else ""
        print(f"{workload:13s} trace={trace} {name:32s} {ma:12.6g} -> {mb:12.6g} "
              f"({change:+.1%}, n={len(a)}/{len(b)}){limit}")
    return 0


def probe_blas_threads(seed: int, seconds: float, out: str | None) -> int:
    """run-reuse (it holds the GHZ 54x64 partial trace) with one BLAS thread
    and with the thread count left to OpenBLAS."""
    results = {}
    for label, setting in (("OPENBLAS_NUM_THREADS=1", "1"), ("OPENBLAS_NUM_THREADS unset", None)):
        plain = run_workload("run-reuse", seed, seconds, False, setting)
        traced = run_workload("run-reuse", seed, seconds, True, setting)
        for record in (plain, traced):
            record["probe"] = label
            append_record(out, record)
        results[label] = {name: m["value"] for record in (plain, traced)
                          for name, m in record["metrics"].items()
                          if record is plain or name.startswith("spaces.")}
        results[label].update({k: plain["details"][k] for k in ("whole_run_tail_s", "max_s")})
        results[label]["correct"] = plain["correct"] and traced["correct"]
        print(f"{label}: {json.dumps(results[label])}")
    print(json.dumps(results))
    return 0


def record_reference() -> int:
    env = child_env()
    _, refs = prepare(wl.WORKLOADS, wl.DEFAULT_SEED, env, full=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--probe", choices=("blas-threads",))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.compare or args.probe or args.record_reference):
        parser.error("pick --workload, --compare, --probe or --record-reference")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.probe:
            return probe_blas_threads(args.seed, args.seconds, args.out)
        if args.record_reference:
            return record_reference()
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    append_record(args.out, record)
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
