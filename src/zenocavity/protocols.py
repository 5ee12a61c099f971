"""Entanglement-preparation protocols built on the dark-sector pulses.

Every protocol is one timed drive pulse, optionally followed by a Hadamard on
the fiber mode(s) and a reduction to the atoms. Two reduction interpretations
ship, because measuring versus ignoring the photon gives genuinely different
states: ``postselect`` projects the fiber mode on a Fock outcome after the
gate, ``trace`` discards it. The Hadamard itself also ships in two readings:

* ``unitary``: the literal single-mode map |0> -> (|0>+|1>)/sqrt2,
  |1> -> (|0>-|1>)/sqrt2 (not photon-number conserving);
* ``beamsplitter``: the photon is routed against a vacuum ancilla port and
  the mode is measured behind the splitter, so vacuum passes through
  unchanged. This is the number-conserving version a passive optical element
  implements, realized as the Kraus pair |0><0| - |1><1|/sqrt2 and |0><1|/sqrt2.

Regime violations (drives too strong for the Zeno limit, unequal couplings
where a protocol assumes equal ones, a second drive on a sector's cavity-B atom
where a protocol assumes atom ``a`` is driven alone, even-k pulses that undo
themselves, a propagator phase error ``eps * max|E| * |t|`` above 1e-6, past
which the fidelity drifts in its last printed digits) are attached to results
as flags rather than raised: measuring the breakdown is part of what the
protocols are for. Only a phase error above 1e-2 fails the run.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import (
    HALF_PI,
    PI,
    model_propagator,
    solve_timing,
    zeno_ratio,
)
from .model import LAYOUT, Branch, BranchModel, UniformParams, _Choice, build_branch_model
from .spaces import (
    HADAMARD,
    DensityOp,
    HilbertSpace,
    InvalidSubsystemError,
    State,
    apply_on_mode,
    embed,
    negativity,
    overlap,
    partial_trace,
)

ZERO_PROBABILITY_TOL = 1e-12


class Protocol(_Choice):
    STATE_TRANSFER = "state_transfer"
    THREE_DIM = "threedim"
    BELL = "bell"
    SWAP = "swap"
    GHZ = "ghz"
    SIX_DIM = "sixdim"


class Engine(_Choice):
    EFFECTIVE = "effective"   # dark-block generator
    FULL = "full"             # restricted sector Hamiltonian


class Interpretation(_Choice):
    POSTSELECT = "postselect"
    TRACE = "trace"


class GateConvention(_Choice):
    UNITARY = "unitary"
    BEAMSPLITTER = "beamsplitter"


def _constant(rows) -> np.ndarray:
    """A read-only complex 2x2 mode operator, converted once."""
    mat = np.array(rows, dtype=complex)
    mat.setflags(write=False)
    return mat


# number-conserving splitter against a vacuum ancilla: photon stays (with the
# Hadamard's sign) or leaks out; vacuum is untouched
_BS_KEEP = _constant([[1.0, 0.0], [0.0, -1.0 / math.sqrt(2.0)]])
_BS_LEAK = _constant([[0.0, 1.0 / math.sqrt(2.0)], [0.0, 0.0]])
# one coherent history per Kraus operator
_KRAUS = {GateConvention.UNITARY: (_constant(HADAMARD),),
          GateConvention.BEAMSPLITTER: (_BS_KEEP, _BS_LEAK)}
# P_o @ K per Fock outcome o and Kraus operator K: one pass gates and post-selects a mode
_POSTSELECTED = {convention: [[_constant(np.diag(np.eye(2)[o]) @ k) for k in kraus] for o in (0, 1)]
                 for convention, kraus in _KRAUS.items()}


def _integer(value) -> int | None:
    """``value`` as a plain int, numpy integers included; None for a bool or a non-integer."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def hadamard_and_reduce(
    state: State,
    modes: Sequence[str],
    keep: Sequence[str],
    interpretation: Interpretation | str = Interpretation.POSTSELECT,
    outcome: int | Sequence[int] = 0,
    convention: GateConvention | str = GateConvention.UNITARY,
) -> tuple[DensityOp, float | None]:
    """Hadamard the given fiber mode(s), then reduce to the kept subsystems.

    Returns ``(rho, p)`` where ``p`` is the post-selection success
    probability (None when tracing). Under ``postselect`` every listed mode
    is projected on its Fock ``outcome`` (an int, or one int per mode) after
    the gate; outcome probabilities over {0,1}^modes sum to one under both
    gate conventions.
    """
    interpretation = Interpretation(interpretation)
    convention = GateConvention(convention)
    modes = list(modes)
    if not modes:
        raise ValueError("at least one mode to act on")
    if len(set(modes)) != len(modes):
        raise InvalidSubsystemError(f"repeated modes in {modes}")
    try:
        outcomes = list(outcome)
    except TypeError:  # one scalar outcome for every mode
        outcomes = [outcome] * len(modes)
    if len(outcomes) != len(modes):
        raise ValueError("one outcome per mode")
    if any(_integer(o) not in (0, 1) for o in outcomes):
        raise ValueError(f"outcomes must be 0 or 1, got {outcomes}")

    # each branch is one coherent history, one Kraus operator per mode;
    # branches add incoherently
    postselect = interpretation == Interpretation.POSTSELECT
    branches = [embed(state)]
    for mode, o in zip(modes, outcomes):
        ops = _POSTSELECTED[convention][int(o)] if postselect else _KRAUS[convention]
        branches = [apply_on_mode(b, mode, op) for op in ops for b in branches]

    prob = None
    if postselect:
        prob = sum(b.norm() ** 2 for b in branches)
        if prob < ZERO_PROBABILITY_TOL:
            raise ValueError(
                f"post-selection on outcome(s) {outcomes} has probability ~0"
            )

    reduced = [partial_trace(b, keep) for b in branches]
    rho = sum((r.mat for r in reduced[1:]), start=reduced[0].mat)
    if prob is not None:
        rho = rho / prob
    return DensityOp(reduced[0].space, rho), prob


# ---------------------------------------------------------------------------
# protocol definitions
# ---------------------------------------------------------------------------

class _Definition(NamedTuple):
    pulse: str                      # HALF_PI or PI
    params: UniformParams           # defaults
    branches: tuple[Branch, ...]    # allowed, the default first


_SINGLE = (Branch.LEFT, Branch.RIGHT)
_COMBINED = (Branch.COMBINED,)
_UNIT = UniformParams(g=1.0, lam=1.0, omega1=0.01)
_PROTOCOLS = {
    Protocol.STATE_TRANSFER: _Definition(HALF_PI, _UNIT, _SINGLE + _COMBINED),
    Protocol.THREE_DIM: _Definition(HALF_PI, _UNIT, _SINGLE),
    # Bell wants g << lam; drives stay well inside the Zeno regime
    Protocol.BELL: _Definition(HALF_PI, replace(_UNIT, g=0.1, omega1=0.001), _SINGLE),
    Protocol.SWAP: _Definition(PI, replace(_UNIT, omega2=0.01), _SINGLE),
    Protocol.GHZ: _Definition(PI, replace(_UNIT, omega2=0.01, omega3=0.01), _COMBINED),
    Protocol.SIX_DIM: _Definition(HALF_PI, _UNIT, _COMBINED),
}
# the protocols that drive atom a alone: each sector's cavity-B drive must be zero
_ONE_DRIVE = (Protocol.STATE_TRANSFER, Protocol.THREE_DIM, Protocol.BELL, Protocol.SIX_DIM)


@dataclass(frozen=True)
class ProtocolSpec:
    """A fully resolved protocol run request."""

    protocol: Protocol
    branch: Branch
    params: UniformParams
    k: int = 1
    engine: Engine = Engine.FULL
    interpretation: Interpretation = Interpretation.POSTSELECT
    outcome: int = 0
    convention: GateConvention = GateConvention.UNITARY

    def __post_init__(self):
        # coerce strings coming from the CLI/config layer
        for key, kind in (("protocol", Protocol), ("branch", Branch), ("engine", Engine),
                          ("interpretation", Interpretation), ("convention", GateConvention)):
            value = getattr(self, key)
            try:
                object.__setattr__(self, key, kind(value))
            except ValueError:
                choices = ", ".join(repr(member.value) for member in kind)
                raise ValueError(f"{key} must be one of {choices}, got {value!r}") from None
        outcome, k = _integer(self.outcome), _integer(self.k)
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {self.outcome!r}")
        if k is None or k < 1:  # solve_timing's check, named at resolve
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "k", k)
        branches = _PROTOCOLS[self.protocol].branches
        if self.branch not in branches:
            need = ("requires the combined branch" if branches == _COMBINED
                    else "runs on a single polarization branch")
            raise ValueError(f"{self.protocol} {need}")


@dataclass(frozen=True)
class ProtocolResult:
    spec: ProtocolSpec
    tau: float
    fidelity: float
    success_probability: float | None
    negativity: float | None
    flags: tuple[str, ...]
    final_state: State | DensityOp
    target: State

    def to_dict(self) -> dict:
        """JSON-ready summary (fixed key order, no state arrays)."""
        p = self.spec.params
        return {
            "name": str(self.spec.protocol),
            "branch": str(self.spec.branch),
            "params": dict(vars(p)),
            "k": self.spec.k,
            "tau": self.tau,
            "engine": str(self.spec.engine),
            "interpretation": str(self.spec.interpretation),
            "convention": str(self.spec.convention),
            "fidelity": self.fidelity,
            "negativity": self.negativity,
            "success_probability": self.success_probability,
            "flags": list(self.flags),
        }


def default_spec(protocol: Protocol | str, **overrides) -> ProtocolSpec:
    """A runnable spec with per-protocol default branch and parameters."""
    protocol = Protocol(protocol)
    _, params, branches = _PROTOCOLS[protocol]
    spec = ProtocolSpec(protocol=protocol, branch=branches[0], params=params)
    return replace(spec, **overrides) if overrides else spec


def _atoms(branch: Branch) -> tuple[str, ...]:
    """The atoms a branch's protocols end on: ``a`` plus each sector's cavity-B atom."""
    return ("a", *(LAYOUT[sector].atom for sector in branch.sectors))


def target_state(spec: ProtocolSpec, model: BranchModel) -> State:
    """The protocol's target ket, in the space where scoring happens."""
    if spec.protocol in (Protocol.STATE_TRANSFER, Protocol.SWAP, Protocol.GHZ):
        # a half-pi pulse ends on the superposition D2, a pi pulse on the transfer D1
        col = 2 if _PROTOCOLS[spec.protocol].pulse == HALF_PI else 1
        return State(model.restricted, model.dark[model.branch][:, col].astype(complex))
    target = _atom_target(spec.protocol, spec.branch, model.space)
    return State(target.space, target.vec.copy())  # a caller may write to its copy


@functools.cache
def _atom_target(protocol: Protocol, branch: Branch, space: HilbertSpace) -> State:
    """The atom-space target of bell, threedim and sixdim, built once per key."""
    # per sector, on a and its cavity-B atom: eg + ge (bell) or eg - gg + ge
    signs = (1, 0, 1) if protocol == Protocol.BELL else (1, -1, 1)
    atoms = _atoms(branch)
    atom_space = HilbertSpace([sub for sub in space.subsystems if sub.name in atoms])
    # each cavity-B atom rests in its own sector's ground level
    rest = {LAYOUT[sector].atom: LAYOUT[sector].level("g") for sector in branch.sectors}
    terms = []
    for sector in branch.sectors:
        layout = LAYOUT[sector]
        e, g = layout.level("e"), layout.level("g")
        for sign, (level_a, level_b) in zip(signs, ((e, g), (g, g), (g, e))):
            if sign:
                terms.append(sign * atom_space.ket(**{**rest, "a": level_a, layout.atom: level_b}))
    target = sum(terms[1:], start=terms[0]) * (1 / math.sqrt(len(terms)))
    target.vec.setflags(write=False)
    return target


def _regime_flags(spec: ProtocolSpec) -> list[str]:
    p = spec.params
    flags = []
    r = zeno_ratio(p)
    if r > 0.1:
        flags.append(f"zeno ratio {r:.3g} above 0.1; dark-sector picture degrades")
    if spec.protocol == Protocol.BELL and p.g / p.lam > 0.2:
        flags.append(f"bell regime wants g << lam; g/lam = {p.g / p.lam:.3g}")
    if spec.protocol in (Protocol.THREE_DIM, Protocol.SIX_DIM) and not math.isclose(
        p.g, p.lam, rel_tol=1e-12
    ):
        flags.append("equal couplings g = lam assumed by this protocol")
    drives = [LAYOUT[sector].drive for sector in spec.branch.sectors]
    if spec.protocol == Protocol.SWAP and not math.isclose(
        p.omega1, getattr(p, drives[0]), rel_tol=1e-12
    ):
        flags.append("swap assumes equal drives on both atoms")
    if spec.protocol in _ONE_DRIVE and any(getattr(p, drive) != 0 for drive in drives):
        flags.append(f"{spec.protocol} assumes {' = '.join(drives)} = 0")
    if spec.protocol == Protocol.GHZ and not (
        math.isclose(p.omega1, p.omega2, rel_tol=1e-12)
        and math.isclose(p.omega2, p.omega3, rel_tol=1e-12)
    ):
        flags.append("ghz assumes omega1 = omega2 = omega3")
    if _PROTOCOLS[spec.protocol].pulse == PI and spec.k % 2 == 0:
        flags.append("even k: the pi pulse returns the initial state")
    return flags


def run(spec: ProtocolSpec, model: BranchModel | None = None) -> ProtocolResult:
    """Build the branch model, apply the timed pulse, score against the target.

    Pass ``model`` to reuse one construction across several runs (e.g. both
    engines at the same parameter point); it must match the request. A prebuilt
    model decomposes each engine's generator once, on its first run of that engine,
    and every later run on it reuses that decomposition.
    """
    if model is None:
        model = build_branch_model(spec.params, spec.branch)
    elif model.params != spec.params or model.branch != spec.branch:
        raise ValueError("supplied model does not match the protocol spec")
    tau = solve_timing(spec.params, spec.branch, _PROTOCOLS[spec.protocol].pulse, spec.k)
    flags = _regime_flags(spec)

    propagator = model_propagator(model, spec.engine == Engine.EFFECTIVE)
    psi = State(model.restricted, propagator.apply(model.seed().vec, tau))
    flags += propagator.flags(tau)
    target = target_state(spec, model)

    atoms = _atoms(spec.branch)
    final: State | DensityOp = psi
    prob = neg = None
    if spec.protocol in (Protocol.THREE_DIM, Protocol.SIX_DIM):
        modes = [LAYOUT[sector].mode("F") for sector in spec.branch.sectors]
        final, prob = hadamard_and_reduce(psi, modes, atoms, spec.interpretation,
                                          spec.outcome, spec.convention)
    elif spec.protocol == Protocol.BELL:
        final = partial_trace(psi, atoms)
    if spec.protocol not in (Protocol.STATE_TRANSFER, Protocol.SWAP):
        # ghz scores its fidelity on the sector ket but its entanglement on the atoms
        reduced = final if isinstance(final, DensityOp) else partial_trace(psi, atoms)
        neg = negativity(reduced, ("a",))

    return ProtocolResult(
        spec=spec,
        tau=float(tau),
        fidelity=overlap(final, target),
        success_probability=None if prob is None else float(prob),
        negativity=None if neg is None else float(neg),
        flags=tuple(flags),
        final_state=final,
        target=target,
    )
