"""Seeded inputs of the three workloads and the closed-form checks on their outputs.

Every input is derived from ``(workload, seed)`` with :class:`random.Random`
seeded by a string, so the same seed gives the same inputs on any machine and
any Python 3. The program only ever sees the generated CLI flags or specs.

The checks here are independent of the package: they compare each result with
the closed forms of the paper's effective dynamics (fidelity 1 for the exact
dark-sector pulses, ``2 lam^2 / (g^2 + 2 lam^2)`` for the Bell protocol), with
a loose allowance for the full engine, which leaves the Zeno limit as the
drive ratio grows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random

DEFAULT_SEED = 0
WORKLOADS = ("protocol-cli", "sweep-grid", "run-reuse")
PROTOCOLS = ("state_transfer", "threedim", "bell", "swap", "ghz", "sixdim")
ENGINES = ("full", "effective")
PARAM_KEYS = ("g", "lam", "omega1", "omega2", "omega3")

SWEEP_AXES = ("g_over_lam", "omega1")
SWEEP_COUNTS = (20, 10)  # the 200-point two-axis Bell grid
SWEEP_HEADER = SWEEP_AXES + (
    "fidelity", "negativity", "success_probability", "tau", "engine_gap",
)

EFFECTIVE_TOL = 1e-9
# Allowance for the full engine's departure from the Zeno limit, per unit of
# the drive ratio r = max(omega) / min(g, lam). Measured: below 0.025 r on the
# sweep grids of seeds 0-5 (it oscillates with the pulse length) and below
# 2.2 r^2 <= 0.044 r on the protocol draws of seeds 0-59.
FULL_TOL_PER_RATIO = 0.1


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    # four significant digits keep the CLI flags short and exactly reproducible
    return float("%.4g" % math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_params(rng: random.Random, protocol: str) -> dict:
    """A point inside the Zeno regime that meets the protocol's own assumptions."""
    ratio = _log_uniform(rng, 0.002, 0.02)
    if protocol == "bell":
        lam = _log_uniform(rng, 0.5, 2.0)
        g = float("%.4g" % (lam * _log_uniform(rng, 0.02, 0.15)))
    elif protocol in ("threedim", "sixdim"):
        g = lam = _log_uniform(rng, 0.5, 2.0)
    else:
        g, lam = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0)
    drive = float("%.4g" % (ratio * min(g, lam)))
    params = {"g": g, "lam": lam, "omega1": drive, "omega2": 0.0, "omega3": 0.0}
    if protocol == "swap":
        params["omega2"] = drive
    elif protocol == "ghz":
        params["omega2"] = params["omega3"] = drive
    return params


def protocol_inputs(workload: str, seed: int) -> list[dict]:
    """The 12 (protocol, engine) inputs; both engines share one parameter draw."""
    rng = random.Random(f"{workload}/params/{seed}")
    inputs = []
    for protocol in PROTOCOLS:
        params = draw_params(rng, protocol)
        for engine in ENGINES:
            inputs.append({"protocol": protocol, "engine": engine, "params": params})
    return inputs


def input_key(inp: dict) -> str:
    flags = " ".join(f"{k}={inp['params'][k]!r}" for k in PARAM_KEYS)
    return f"{inp['protocol']}/{inp['engine']} {flags}"


def protocol_argv(inp: dict) -> list[str]:
    argv = ["protocol", "--name", inp["protocol"], "--engine", inp["engine"]]
    for key in PARAM_KEYS:
        argv += [f"--{key}", repr(inp["params"][key])]
    return argv


def op_order(workload: str, seed: int, n: int):
    """Endless seeded rounds; each round visits all ``n`` inputs once."""
    rng = random.Random(f"{workload}/order/{seed}")
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        yield from perm


def sweep_ranges(seed: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """Log-axis endpoints: g/lam in the Bell regime, omega1/g at most ~0.07."""
    rng = random.Random(f"sweep-grid/params/{seed}")
    ratio = (_log_uniform(rng, 0.03, 0.06), _log_uniform(rng, 0.2, 0.4))
    omega1 = (_log_uniform(rng, 1e-4, 3e-4), _log_uniform(rng, 1e-3, 2e-3))
    return ratio, omega1


def sweep_argv(axes, counts=SWEEP_COUNTS, workers: int = 1, scale: str = "log") -> list[str]:
    argv = ["sweep", "--name", "bell", "--engine", "effective"]
    for name, (start, stop), count in zip(SWEEP_AXES, axes, counts):
        argv += ["--axis", f"{name}:{scale}:{start!r}:{stop!r}:{count}"]
    return argv + ["--workers", str(workers)]


def sweep_key(seed: int) -> str:
    return " ".join(sweep_argv(sweep_ranges(seed))[:-2])


def digest(outputs: dict) -> str:
    """One hash over every (input key, output bytes) pair, in key order."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode() + b"\0" + outputs[key].encode() + b"\0")
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------------------
# closed-form checks
# ---------------------------------------------------------------------------

def bell_fidelity(g: float, lam: float) -> float:
    return 2.0 * lam * lam / (g * g + 2.0 * lam * lam)


def _full_tol(params: dict) -> float:
    ratio = max(params["omega1"], params["omega2"], params["omega3"]) / min(
        params["g"], params["lam"])
    return FULL_TOL_PER_RATIO * ratio + EFFECTIVE_TOL


def check_protocol_output(text: str, inp: dict) -> str | None:
    """Return why a protocol JSON result is wrong, or None when it passes."""
    try:
        d = json.loads(text)
    except ValueError as exc:
        return f"not JSON: {exc}"
    params = inp["params"]
    if d.get("name") != inp["protocol"] or d.get("engine") != inp["engine"]:
        return "result names another protocol or engine"
    if d.get("params") != params:
        return f"result echoes params {d.get('params')}, asked for {params}"
    want = bell_fidelity(params["g"], params["lam"]) if inp["protocol"] == "bell" else 1.0
    tol = EFFECTIVE_TOL if inp["engine"] == "effective" else _full_tol(params)
    fid = d.get("fidelity")
    if not isinstance(fid, float) or abs(fid - want) > tol or fid > 1.0 + EFFECTIVE_TOL:
        return f"fidelity {fid} is not within {tol:.3g} of the closed form {want}"
    neg = d.get("negativity")
    if neg is not None and neg < -EFFECTIVE_TOL:
        return f"negative negativity {neg}"
    success = {"threedim": 0.5, "sixdim": 0.25}.get(inp["protocol"])
    if success is not None and inp["engine"] == "effective":
        prob = d.get("success_probability")
        if not isinstance(prob, float) or abs(prob - success) > EFFECTIVE_TOL:
            return f"success probability {prob}, closed form {success}"
    if d.get("flags"):
        return f"regime flags raised inside the drawn regime: {d['flags']}"
    return None


def sweep_rows(text: str) -> tuple[tuple, list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (tuple(rows[0]) if rows else ()), rows[1:]


def check_sweep_output(text: str, counts=SWEEP_COUNTS) -> str | None:
    """Return why a Bell sweep table is wrong, or None when it passes."""
    header, rows = sweep_rows(text)
    if header != SWEEP_HEADER:
        return f"unexpected header {header}"
    if len(rows) != counts[0] * counts[1]:
        return f"{len(rows)} rows, expected {counts[0] * counts[1]}"
    for row in rows:
        try:
            ratio, omega1, fid, neg, _prob, tau, gap = (
                float(v) if v else None for v in row)
        except ValueError:
            return f"unparseable row {row}"
        want = bell_fidelity(ratio, 1.0)
        if abs(fid - want) > EFFECTIVE_TOL:
            return f"row {row}: fidelity is not the closed form {want}"
        zeno = omega1 / ratio  # lam = 1 for the Bell defaults, so g = ratio
        if gap is None or gap > FULL_TOL_PER_RATIO * zeno + EFFECTIVE_TOL:
            return f"row {row}: engine gap exceeds the Zeno-limit allowance"
        if neg is None or neg < -EFFECTIVE_TOL or tau is None or tau <= 0:
            return f"row {row}: negativity or pulse time out of range"
    return None
