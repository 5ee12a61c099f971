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

import enum
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
from .model import LAYOUT, Branch, BranchModel, UniformParams, build_branch_model
from .spaces import (
    DensityOp,
    HilbertSpace,
    ReadoutPlan,
    RestrictedSpace,
    State,
    _integer,
    overlap,
)


class Protocol(enum.StrEnum):
    STATE_TRANSFER = "state_transfer"
    THREE_DIM = "threedim"
    BELL = "bell"
    SWAP = "swap"
    GHZ = "ghz"
    SIX_DIM = "sixdim"


class Engine(enum.StrEnum):
    EFFECTIVE = "effective"   # dark-block generator
    FULL = "full"             # restricted sector Hamiltonian


class Interpretation(enum.StrEnum):
    POSTSELECT = "postselect"
    TRACE = "trace"


class GateConvention(enum.StrEnum):
    UNITARY = "unitary"
    BEAMSPLITTER = "beamsplitter"


def _constant(rows) -> np.ndarray:
    """A read-only complex 2x2 mode operator, converted once."""
    mat = np.array(rows, dtype=complex)
    mat.setflags(write=False)
    return mat


# the literal single-mode Hadamard, the unitary convention's one operator
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# number-conserving splitter against a vacuum ancilla: photon stays (with the
# Hadamard's sign) or leaks out; vacuum is untouched
_BS_KEEP = _constant([[1.0, 0.0], [0.0, -1.0 / math.sqrt(2.0)]])
_BS_LEAK = _constant([[0.0, 1.0 / math.sqrt(2.0)], [0.0, 0.0]])
# one coherent history per Kraus operator
_KRAUS = {GateConvention.UNITARY: (_constant(_HADAMARD),),
          GateConvention.BEAMSPLITTER: (_BS_KEEP, _BS_LEAK)}
# P_o @ K per Fock outcome o and Kraus operator K: one pass gates and post-selects a mode
_POSTSELECTED = {convention: [[_constant(np.diag(np.eye(2)[o]) @ k) for k in kraus] for o in (0, 1)]
                 for convention, kraus in _KRAUS.items()}


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

    The modes and ``keep`` are checked before any arithmetic: a ``keep`` that names
    every factor raises ``InvalidSubsystemError`` (a readout must trace out some factor),
    and a bad ``keep`` raises its own error even where the outcome has probability ~0.
    A bare string, as ``modes`` or as ``keep``, is one name. Raises ``TypeError`` unless
    ``state`` is a :class:`State`.
    The plan of the readout is built on each call; only a run's plan is cached.
    """
    if not isinstance(state, State):
        raise TypeError(f"expected State, got {type(state).__name__}")
    interpretation = Interpretation(interpretation)
    convention = GateConvention(convention)
    modes = [modes] if isinstance(modes, str) else list(modes)
    if not modes:
        raise ValueError("at least one mode to act on")
    try:
        outcomes = list(outcome)
    except TypeError:  # one scalar outcome for every mode
        outcomes = [outcome] * len(modes)
    if len(outcomes) != len(modes):
        raise ValueError("one outcome per mode")
    if any(_integer(o) not in (0, 1) for o in outcomes):
        raise ValueError(f"outcomes must be 0 or 1, got {outcomes}")

    outcomes = tuple(map(int, outcomes)) if interpretation == Interpretation.POSTSELECT else None
    readout = _readout(state.space, modes, outcomes, convention, keep, None)
    rho, prob, _ = readout.read(state.vec)
    return DensityOp(readout.space, rho), prob


def _readout(space, modes: Sequence[str], outcomes: tuple[int, ...] | None,
             convention: GateConvention, keep: Sequence, part: Sequence | None) -> ReadoutPlan:
    """The gate of each mode, post-selected on its outcome unless ``outcomes`` is None, then
    the reduction to ``keep`` and the negativity across ``part``."""
    return ReadoutPlan(space, [(mode, _KRAUS[convention] if outcomes is None
                                else _POSTSELECTED[convention][o])
                               for mode, o in zip(modes, outcomes or modes)],
                       outcomes, keep, part)


# ---------------------------------------------------------------------------
# protocol definitions
# ---------------------------------------------------------------------------

class _Definition(NamedTuple):
    """One protocol: its pulse and defaults, what it aims at, how its ket is read out and
    scored, and the regime it assumes, which a run flags when it leaves it."""

    pulse: str                      # HALF_PI or PI
    params: UniformParams           # defaults
    branches: tuple[Branch, ...]    # allowed, the default first
    # a dark column of the sector (1: transferred, 2: delocalized), or per sector the signs
    # of the atom states (e g), (g g) and (g e) on a and its cavity-B atom
    target: int | tuple[int, int, int]
    # the final state: the "ket", the reduced state of the "atoms", or that of the atoms
    # after the Hadamard on each sector's "fiber" mode
    readout: str
    negativity: bool                # of the reduced state of the atoms
    one_drive: bool = False         # atom a is driven alone: every cavity-B drive is zero
    equal_drives: str | None = None  # the flag of drives that are not all equal
    equal_couplings: bool = False   # g = lam
    max_g_over_lam: float | None = None


_SINGLE = (Branch.LEFT, Branch.RIGHT)
_COMBINED = (Branch.COMBINED,)
_UNIT = UniformParams(g=1.0, lam=1.0, omega1=0.01)
_BELL_SIGNS, _QUTRIT_SIGNS = (1, 0, 1), (1, -1, 1)  # eg + ge, and eg - gg + ge
_PROTOCOLS = {
    Protocol.STATE_TRANSFER: _Definition(HALF_PI, _UNIT, _SINGLE + _COMBINED, 2, "ket", False,
                                         one_drive=True),
    Protocol.THREE_DIM: _Definition(HALF_PI, _UNIT, _SINGLE, _QUTRIT_SIGNS, "fiber", True,
                                    one_drive=True, equal_couplings=True),
    # Bell wants g << lam; drives stay well inside the Zeno regime
    Protocol.BELL: _Definition(HALF_PI, replace(_UNIT, g=0.1, omega1=0.001), _SINGLE,
                               _BELL_SIGNS, "atoms", True, one_drive=True, max_g_over_lam=0.2),
    Protocol.SWAP: _Definition(PI, replace(_UNIT, omega2=0.01), _SINGLE, 1, "ket", False,
                               equal_drives="swap assumes equal drives on both atoms"),
    # ghz scores its fidelity on the sector ket but its entanglement on the atoms
    Protocol.GHZ: _Definition(PI, replace(_UNIT, omega2=0.01, omega3=0.01), _COMBINED, 1,
                              "ket", True, equal_drives="ghz assumes omega1 = omega2 = omega3"),
    Protocol.SIX_DIM: _Definition(HALF_PI, _UNIT, _COMBINED, _QUTRIT_SIGNS, "fiber", True,
                                  one_drive=True, equal_couplings=True),
}


@dataclass(frozen=True)
class ProtocolSpec:
    """A fully resolved protocol run request; ``TypeError`` unless ``params`` is a
    :class:`UniformParams`."""

    protocol: Protocol
    branch: Branch
    params: UniformParams
    k: int = 1
    engine: Engine = Engine.FULL
    interpretation: Interpretation = Interpretation.POSTSELECT
    outcome: int = 0
    convention: GateConvention = GateConvention.UNITARY

    def __post_init__(self):
        if not isinstance(self.params, UniformParams):
            raise TypeError(f"expected UniformParams, got {type(self.params).__name__}")
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
    definition = _PROTOCOLS[protocol]
    spec = ProtocolSpec(protocol=protocol, branch=definition.branches[0], params=definition.params)
    return replace(spec, **overrides) if overrides else spec


def _atoms(branch: Branch) -> tuple[str, ...]:
    """The atoms a branch's protocols end on: ``a`` plus each sector's cavity-B atom."""
    return ("a", *(LAYOUT[sector].atom for sector in branch.sectors))


def _target(target: int | State, model: BranchModel) -> State:
    """A fresh copy of the target: a column of ``model.dark``, or a built atom-space ket."""
    if isinstance(target, int):
        return State(model.restricted, model.dark[model.branch][:, target].astype(complex))
    return State(target.space, target.vec.copy())  # a caller may write to its copy


@functools.cache
def _atom_target(signs: tuple[int, int, int], branch: Branch, space: HilbertSpace) -> State:
    """The atom-space target of the given per-sector signs, built once per key."""
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


class _Plan(NamedTuple):
    """What a run of one structure key needs besides its parameter point."""

    definition: _Definition
    target: int | State              # a dark column, or the read-only atom-space target
    drives: operator.attrgetter      # omega1, then each sector's cavity-B drive
    one_drive: str | None            # the flag of a cavity-B drive where a is driven alone
    readout: ReadoutPlan | None      # the fiber gates, the atoms and their negativity


@functools.cache
def _plan(protocol: Protocol, branch: Branch, restricted: RestrictedSpace,
          interpretation: Interpretation, outcome: int, convention: GateConvention) -> _Plan:
    """The plan of a structure key, built on its first run; it holds no parameter value."""
    definition = _PROTOCOLS[protocol]
    readout = outcomes = None
    if definition.readout != "ket" or definition.negativity:
        modes = ()
        if definition.readout == "fiber":
            modes = tuple(LAYOUT[sector].mode("F") for sector in branch.sectors)
            if interpretation == Interpretation.POSTSELECT:
                outcomes = (outcome,) * len(modes)
        readout = _readout(restricted, modes, outcomes, convention, _atoms(branch),
                           ("a",) if definition.negativity else None)
    target = definition.target
    if not isinstance(target, int):
        target = _atom_target(target, branch, restricted.parent)
    drives = [LAYOUT[sector].drive for sector in branch.sectors]
    one_drive = f"{protocol} assumes {' = '.join(drives)} = 0" if definition.one_drive else None
    return _Plan(definition, target, operator.attrgetter("omega1", *drives), one_drive,
                 readout)


def _regime_flags(spec: ProtocolSpec, plan: _Plan) -> list[str]:
    p, definition = spec.params, plan.definition
    flags = []
    r = zeno_ratio(p)
    if r > 0.1:
        flags.append(f"zeno ratio {r:.3g} above 0.1; dark-sector picture degrades")
    if definition.max_g_over_lam is not None and p.g / p.lam > definition.max_g_over_lam:
        flags.append(f"{spec.protocol} regime wants g << lam; g/lam = {p.g / p.lam:.3g}")
    if definition.equal_couplings and not math.isclose(p.g, p.lam, rel_tol=1e-12):
        flags.append("equal couplings g = lam assumed by this protocol")
    drives = plan.drives(p)
    if definition.equal_drives is not None and not all(
            math.isclose(a, b, rel_tol=1e-12) for a, b in zip(drives, drives[1:])):
        flags.append(definition.equal_drives)
    if plan.one_drive is not None and any(drives[1:]):
        flags.append(plan.one_drive)
    if definition.pulse == PI and spec.k % 2 == 0:
        flags.append("even k: the pi pulse returns the initial state")
    return flags


def run(spec: ProtocolSpec, model: BranchModel | None = None) -> ProtocolResult:
    """Build the branch model, apply the timed pulse, read out, score against the target.

    Every protocol runs the same stages: timing, propagation, readout and scoring. What
    differs between protocols is data in their definition, and the readout runs from a plan
    of index maps built once per structure key (protocol, branch, space, interpretation,
    outcome, convention) and never from a parameter value.

    Pass ``model`` to reuse one construction across several runs (e.g. both
    engines at the same parameter point); it must match the request. A prebuilt
    model decomposes each engine's generator once, on its first run of that engine,
    and every later run on it reuses that decomposition and the seed's coordinates in it.

    Raises ``TypeError`` unless ``spec`` is a :class:`ProtocolSpec`, ``ValueError`` for a
    model that does not match (or is not a ``BranchModel``), a pulse that cannot be timed
    or a post-selection of probability ~0, ``FloatingPointError`` for a phase error above
    1e-2 and ``OverflowError`` for a pulse time that is not finite.
    """
    if not isinstance(spec, ProtocolSpec):
        raise TypeError(f"expected ProtocolSpec, got {type(spec).__name__}")
    if model is None:
        model = build_branch_model(spec.params, spec.branch)
    elif (not isinstance(model, BranchModel) or model.params != spec.params
          or model.branch != spec.branch):
        raise ValueError("supplied model does not match the protocol spec")
    plan = _plan(spec.protocol, spec.branch, model.restricted, spec.interpretation,
                 spec.outcome, spec.convention)

    # timing
    tau = solve_timing(spec.params, spec.branch, plan.definition.pulse, spec.k)
    flags = _regime_flags(spec, plan)

    # propagation
    propagator, coords = model_propagator(model, spec.engine == Engine.EFFECTIVE)
    amps = propagator.evolve(coords, tau)
    flags += propagator.flags(tau)

    # readout
    final = prob = neg = None
    if plan.definition.readout == "ket":
        final = State(model.restricted, amps)
    if plan.readout is not None:
        rho, prob, neg = plan.readout.read(amps)
        if final is None:
            final = DensityOp(plan.readout.space, rho)

    # scoring
    target = _target(plan.target, model)
    return ProtocolResult(
        spec=spec,
        tau=float(tau),
        fidelity=overlap(final, target),
        success_probability=prob,
        negativity=neg,
        flags=tuple(flags),
        final_state=final,
        target=target,
    )
