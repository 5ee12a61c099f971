"""Child processes of the benchmark; ``run.py`` starts them with ``src`` on PYTHONPATH.

  child.py reference      read a JSON request on stdin, print the environment
                          and the reference outputs it asks for
  child.py reuse          read a JSON config on stdin, build one model per
                          (protocol, engine) pair, print "ready", then loop
                          ``run(spec, model)`` and print one JSON report
  child.py traced ARGV..  import zenocavity.cli, install the tracer, run
                          ``cli.main(ARGV)`` with stdout captured, print one
                          JSON report (run under ``-X importtime``)
"""

from __future__ import annotations

from time import perf_counter

BEGIN = perf_counter()  # before this script's imports; run.py times interpreter start with it

import contextlib
import io
import itertools
import json
import math
import os
import sys
from time import perf_counter_ns

import workloads


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _emit(report: dict) -> int:
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


def _cli_text(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"zenocavity {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _result_text(result) -> str:
    return json.dumps(result.to_dict(), indent=2) + "\n"


def _spec(protocols, inp: dict):
    from zenocavity.model import UniformParams

    return protocols.default_spec(inp["protocol"], engine=inp["engine"],
                                  params=UniformParams(**inp["params"]))


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return " ".join(str(blas.get(k, "?")) for k in ("name", "version", "openblas configuration"))


def environment() -> dict:
    import numpy
    import scipy

    import zenocavity

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(getattr(numpy.__config__, "CONFIG", {})),
        "blas_scipy": _blas(getattr(scipy.__config__, "CONFIG", {})),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "package_file": zenocavity.__file__,
    }


def reference() -> int:
    """Outputs of the program computed in one process, for seeds without a
    committed reference (and to record the committed one)."""
    request = json.loads(sys.stdin.read())
    import numpy as np

    import zenocavity.cli as cli
    from zenocavity import protocols

    seed, full = request["seed"], request["full"]
    refs: dict = {}
    for workload in request["workloads"]:
        if workload == "protocol-cli":
            refs[workload] = {
                workloads.input_key(inp): _cli_text(cli, workloads.protocol_argv(inp))
                for inp in workloads.protocol_inputs(workload, seed)}
        elif workload == "run-reuse":
            refs[workload] = {
                workloads.input_key(inp): _result_text(protocols.run(_spec(protocols, inp)))
                for inp in workloads.protocol_inputs(workload, seed)}
        elif full:
            argv = workloads.sweep_argv(workloads.sweep_ranges(seed))
            refs[workload] = {workloads.sweep_key(seed): _cli_text(cli, argv)}
        else:
            # rows of the full grid recomputed as 2x2 sub-grids: a two-point lin
            # axis reproduces its endpoints exactly, so the rows must match bytes
            ranges = workloads.sweep_ranges(seed)
            grids = [np.geomspace(lo, hi, n) for (lo, hi), n in
                     zip(ranges, workloads.SWEEP_COUNTS)]
            rows = {}
            for i, j, k, l in request["sample"]:
                axes = ((float(grids[0][i]), float(grids[0][j])),
                        (float(grids[1][k]), float(grids[1][l])))
                text = _cli_text(cli, workloads.sweep_argv(axes, (2, 2), scale="lin"))
                lines = text.splitlines(keepends=True)[1:]
                for line, (a, b) in zip(lines, itertools.product((i, j), (k, l))):
                    rows[str(a * workloads.SWEEP_COUNTS[1] + b)] = line
            refs[workload] = {"rows": rows}
    return _emit({"environment": environment(), "references": refs})


def reuse() -> int:
    config = json.loads(sys.stdin.read())
    import zenocavity.cli  # noqa: F401  (same set-up as a CLI process)
    from zenocavity import protocols
    from zenocavity.model import build_branch_model

    inputs = workloads.protocol_inputs("run-reuse", config["seed"])
    pairs = []
    for inp in inputs:
        spec = _spec(protocols, inp)
        pairs.append((workloads.input_key(inp), spec,
                      build_branch_model(spec.params, spec.branch)))
    _ready()
    if config["setup_only"]:
        return 0

    references = config["references"]
    outputs: dict[str, str] = {}
    errors: list[str] = []
    samples: list[int] = []

    def play(rounds: int, seconds: float = math.inf) -> float:
        """Whole seeded rounds, which keep the protocol mix even, until either
        limit is reached; every phase replays the same order."""
        order = workloads.op_order("run-reuse", config["seed"], len(pairs))
        start = perf_counter()
        for _ in range(rounds):
            for i in itertools.islice(order, len(pairs)):
                key, spec, model = pairs[i]
                begin = perf_counter_ns()
                try:
                    result = protocols.run(spec, model)
                except Exception as exc:  # a failed op: counted and reported
                    samples.append(perf_counter_ns() - begin)
                    errors.append(f"{key}: {type(exc).__name__}: {exc}")
                    continue
                samples.append(perf_counter_ns() - begin)
                text = _result_text(result)
                outputs.setdefault(key, text)
                if text != references[key]:
                    errors.append(f"{key}: output differs from the reference")
            if perf_counter() - start >= seconds:
                break
        return perf_counter() - start

    report: dict = {}
    rounds = config["trace_rounds"]
    if rounds:
        play(rounds)  # the first second of a process runs slow; keep it out of both
        report["untraced_s"] = play(rounds)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        samples.clear()
        report["traced_s"] = play(rounds)
        report.update(tracer.summary())
    else:
        report["phase_s"] = play(sys.maxsize, config["seconds"])
    report.update(samples_ns=samples, outputs=outputs, errors=errors[:20],
                  failed=len(errors))
    return _emit(report)


def traced(argv: list[str]) -> int:
    start = perf_counter()
    import zenocavity.cli as cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)  # the installed wrapper records the cli.main span
    return _emit({"exit": code, "stdout": out.getvalue(), "import_s": import_s,
                  "begin": BEGIN, "end": perf_counter(), **tracer.summary()})


MODES = {"reference": reference, "reuse": reuse}

if __name__ == "__main__":
    mode = sys.argv[1]
    sys.exit(traced(sys.argv[2:]) if mode == "traced" else MODES[mode]())
