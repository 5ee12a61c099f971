"""Spans around the package's public functions, recorded from outside the package.

:func:`Tracer.install` replaces every public function of the six package
modules in each module namespace where it is looked up: a function defined in
``model`` and imported by name into ``protocols`` and ``cli`` gets a wrapper in
all three, and the methods of ``dynamics.Propagator`` are wrapped on the class.
``scipy.sparse.kron`` and the eigensolvers are wrapped with plain counters.

A span's self time is its duration minus the time covered by its direct child
spans; each self time is charged to the layer (module) that defines the
function. Only the per-name sums are kept.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter_ns

LAYERS = ("cli", "protocols", "dynamics", "zeno", "model", "spaces")
PACKAGE = "zenocavity"

# (module, attribute) -> counter name; looked up as module attributes at call time
COUNTED = {
    ("scipy.sparse", "kron"): "model.kron_calls",
    ("scipy.linalg", "eigh"): "linalg.eig_calls",
    ("scipy.linalg", "eigvalsh"): "linalg.eig_calls",
    ("numpy.linalg", "eigh"): "linalg.eig_calls",
    ("numpy.linalg", "eigvalsh"): "linalg.eig_calls",
}
PROPAGATOR_METHODS = ("__init__", "apply", "unitary")  # wrapped on dynamics.Propagator


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = {}
        self.kept: list[float] = []   # restricted dim / assembled dim per model built
        self._stack: list[list[int]] = []  # per open span: ns covered by its children
        self._active: dict[str, int] = {}
        self._stats: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        children = [0]
        self._stack.append(children)
        self._active[name] = self._active.get(name, 0) + 1
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter_ns() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            self._active[name] -= 1
            stats = self._stats.setdefault(name, [0, 0, 0])
            stats[0] += 1
            if not self._active[name]:  # a re-entered name counts its outer span once
                stats[1] += duration
            stats[2] += duration - children[0]

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _counter(self, fn, counter: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if value.__module__ != f"{PACKAGE}.{home}" or home not in modules:
                    continue
                wrapper = self._wrap(value, f"{home}.{value.__qualname__}")
                if value.__qualname__ == "build_branch_model":
                    wrapper = self._observe_kept(wrapper)
                setattr(module, attr, wrapper)
        propagator = getattr(modules["dynamics"], "Propagator", None)
        for meth in PROPAGATOR_METHODS if propagator is not None else ():
            if meth in vars(propagator):
                setattr(propagator, meth, self._wrap(
                    vars(propagator)[meth], f"dynamics.Propagator.{meth}"))
        for (mod_name, attr), counter in COUNTED.items():
            module = importlib.import_module(mod_name)
            if hasattr(module, attr):
                setattr(module, attr, self._counter(getattr(module, attr), counter))

    def _observe_kept(self, wrapper):
        kept = self.kept

        def observed(*args, **kwargs):
            model = wrapper(*args, **kwargs)
            restricted = getattr(model, "restricted", None)
            parent = getattr(restricted, "parent", None)
            if parent is not None:
                kept.append(restricted.dim / parent.dim)
            return model

        observed.__wrapped__ = wrapper
        return observed

    def summary(self) -> dict:
        """Per span name ``[calls, inclusive ns, self ns]``, counters and kept ratios."""
        return {"stats": self._stats, "counts": self.counts, "kept": self.kept}


def layer_of(span_name: str) -> str:
    return span_name.partition(".")[0]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import seconds per top-level package from ``-X importtime`` output."""
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        top = fields[2].strip().partition(".")[0]
        totals[top] = totals.get(top, 0.0) + int(fields[0]) * 1e-6
    return totals
