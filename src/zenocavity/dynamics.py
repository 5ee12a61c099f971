"""Time evolution: spectral propagation and the closed-form dark dynamics.

Propagation always goes through one Hermitian eigendecomposition (there is no
time stepping anywhere in the package), so unitarity and energy conservation
hold to solver precision at any time. On the dark sector the evolution admits
closed-form amplitudes; :class:`DriveAngles` implements them together with the
pulse-timing conditions used by the protocols.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .model import LAYOUT, Branch, BranchModel, UniformParams
from .spaces import _integer, require_hermitian
from .zeno import eigh

_EPS = float(np.finfo(float).eps)


class Propagator:
    """Cached spectral propagator ``exp(-i H t)`` for a hermitian ``H``.

    Each call decomposes ``h`` anew. The run and compare paths take theirs from
    :func:`model_propagator`, which decomposes each engine's generator once per model.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h)
        require_hermitian(h, what="Hamiltonian")
        self.evals, self.evecs = eigh(h)
        self._radius = float(np.max(np.abs(self.evals)))

    def _phase_error(self, t: float) -> float:
        """eps * max|E| * |t|: the absolute error of the largest phase E * t."""
        return _EPS * self._radius * abs(t)

    def _phases(self, t: float) -> np.ndarray:
        # past a phase error of 1e-2 the phases are noise (and NaN once E * t
        # leaves the float range): fail
        error = self._phase_error(t)
        if not error <= 1e-2:
            raise FloatingPointError(
                f"phase error eps*max|E|*|t| = {error:.3g} exceeds 1e-2 at t = {t:.3g}")
        return np.exp(-1j * self.evals * t)

    def apply(self, vec: np.ndarray, t: float) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        return self.evolve(self.evecs.conj().T @ vec, t)

    def evolve(self, coords: np.ndarray, t: float) -> np.ndarray:
        """``exp(-i H t)`` of the ket whose eigenbasis coordinates are ``coords``."""
        return self.evecs @ (self._phases(t) * coords)

    def flags(self, t: float) -> list[str]:
        """The flag of a phase error above 1e-6 at ``t``, as a list of zero or one flags."""
        # a fidelity drifts by about error**2; at 1e-6 that is the last digit the CLI prints
        error = self._phase_error(t)
        return [] if error <= 1e-6 else [
            f"phase error eps*max|E|*|t| = {error:.3g} above 1e-6; the last digits drift"]


# ---------------------------------------------------------------------------
# closed-form dark-sector dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveAngles:
    """Drive mixing angle and phase rate of one branch's dark-sector pulse.

    The two drives of a branch define ``omega = sqrt(om_a^2 + om_b^2)`` and
    ``tan(theta) = om_b / om_a``; the dark-sector phase advances at
    ``omega * lam / (g * chi)``.
    """

    om_a: float
    om_b: float
    omega: float
    theta: float
    phase_rate: float

    @classmethod
    def of(cls, params: UniformParams, branch: Branch) -> "DriveAngles":
        om_a, om_b, omega, rate = _pulse(params, branch)
        return cls(om_a, om_b, omega, math.atan2(om_b, om_a), rate)

    def amplitudes(self, tau: float) -> tuple[complex, complex, complex]:
        """(A1, A2, A3): weights of the seed, superposition, and transferred
        dark states after a pulse of duration tau."""
        ph = self.phase_rate * tau
        c, s = math.cos(self.theta), math.sin(self.theta)
        a1 = s * s + c * c * math.cos(ph)
        a2 = -1j * c * math.sin(ph)
        a3 = 0.5 * math.sin(2 * self.theta) * (math.cos(ph) - 1.0)
        return complex(a1), complex(a2), complex(a3)


def _pulse(params: UniformParams, branch: Branch) -> tuple[float, float, float, float]:
    """One sector's two drives, ``omega`` and the dark-sector phase rate, checked."""
    layout = LAYOUT.get(branch)
    if layout is None:
        raise ValueError("combined evolution is per-sector; pick a branch")
    om_a, om_b = params.omega1, getattr(params, layout.drive)
    omega = math.hypot(om_a, om_b)
    if omega <= 0:
        raise ValueError("both drives are zero; the dark sector does not move")
    if params.g <= 0 or params.lam <= 0:
        raise ValueError("dark-sector dynamics needs g > 0 and lam > 0")
    return om_a, om_b, omega, omega * params.lam / (params.g * params.chi())


def effective_matrix(params: UniformParams, branch: Branch) -> np.ndarray:
    """The dark-block generator in (D0, D1, D2) coordinates for one branch."""
    ang = DriveAngles.of(params, branch)
    w = params.lam / (params.g * params.chi())
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = w * ang.om_a
    m[1, 2] = m[2, 1] = w * ang.om_b
    return m


def effective_generator(model: BranchModel) -> np.ndarray:
    """The dark-block generator embedded in restricted coordinates.

    For the combined branch this is the direct sum of the two sector blocks,
    which is exact because the sectors never couple.
    """
    h = np.zeros((model.dim, model.dim))
    for sector in model.branch.sectors:
        dark = model.dark[sector]
        m = effective_matrix(model.params, sector)
        h += dark @ m @ dark.T
    return h


# each model's propagators by engine (True: the dark-block generator); an entry dies
# with its model, so no model is held alive and no parameter value keys anything
_PROPAGATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def model_propagator(model: BranchModel, effective: bool) -> tuple[Propagator, np.ndarray]:
    """The propagator of ``model.total``, or of :func:`effective_generator` if ``effective``,
    and the model's seed in its eigenbasis, ``evecs^† seed``.

    The first call per model and engine checks and decomposes the generator and takes the
    seed into the eigenbasis; later calls return the same pair, whose arrays are read-only,
    as are the model's blocks.
    """
    propagators = _PROPAGATORS.get(model)
    if propagators is None:
        propagators = _PROPAGATORS[model] = {}
    entry = propagators.get(effective)
    if entry is None:
        propagator = Propagator(effective_generator(model) if effective else model.total)
        coords = propagator.evecs.conj().T @ model.seed().vec
        for array in (propagator.evals, propagator.evecs, coords):
            array.setflags(write=False)
        entry = propagators[effective] = propagator, coords
    return entry


# ---------------------------------------------------------------------------
# pulse timing
# ---------------------------------------------------------------------------

HALF_PI = "half_pi"   # (2k - 1) * pi/2 : seed -> superposition dark state
PI = "pi"             # k * pi, odd k   : seed -> transferred dark state


def solve_timing(params: UniformParams, branch: Branch | str, condition: str = HALF_PI,
                 k: int = 1) -> float:
    """Pulse duration solving the requested phase condition.

    Any integer ``k >= 1`` is accepted for either condition, numpy integers included
    and bools not, as :class:`~zenocavity.protocols.ProtocolSpec` takes it; note that the
    ``pi`` condition only implements the transfer for odd ``k`` (even
    multiples return the initial state), which callers surface as a flag.
    For the combined branch the two sectors share one clock, so their
    second drives must be equal.
    """
    branch, count = Branch(branch), _integer(k)
    if count is None or count < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if condition == HALF_PI:
        target = (2 * count - 1) * math.pi / 2.0
    elif condition == PI:
        target = count * math.pi
    else:
        raise ValueError(f"unknown timing condition {condition!r}")
    if branch == Branch.COMBINED and not math.isclose(params.omega2, params.omega3,
                                                      rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("combined timing needs omega2 == omega3 (one pulse clock for"
                         f" both sectors), got {params.omega2} vs {params.omega3}")
    rate = _pulse(params, branch.sectors[0])[3]
    tau = target / rate
    if not math.isfinite(tau):
        raise OverflowError(f"pulse time is not finite (phase rate {rate:.3g})")
    return tau


def zeno_ratio(params: UniformParams) -> float:
    """Largest drive over the smallest strong coupling; small means Zeno regime."""
    strong = min(params.g, params.lam)
    return max(params.omega1, params.omega2, params.omega3) / strong


# ---------------------------------------------------------------------------
# engine comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    tau: float
    fidelity: float
    flags: tuple[str, ...]  # of the larger of the two propagators' phase errors


def compare_full_vs_effective(model: BranchModel, taus) -> list[ComparisonRow]:
    """Overlap of the restricted full evolution with the dark-block evolution.

    Returns ``|<psi_eff(tau)|psi_full(tau)>|^2`` and the larger phase error's flag per
    requested duration; the gap measures how far the operating point is from the Zeno limit.
    """
    (full, full_coords), (eff, eff_coords) = (model_propagator(model, e) for e in (False, True))
    rows = []
    for tau in taus:
        t = float(tau)
        f = abs(np.vdot(eff.evolve(eff_coords, t), full.evolve(full_coords, t))) ** 2
        worse = max(full, eff, key=lambda p: p._phase_error(t))
        rows.append(ComparisonRow(t, float(f), tuple(worse.flags(t))))
    return rows
