"""Time evolution: spectral propagation and the closed-form dark dynamics.

Propagation always goes through one Hermitian eigendecomposition (there is no
time stepping anywhere in the package), so unitarity and energy conservation
hold to solver precision at any time. On the dark sector the evolution admits
closed-form amplitudes; :class:`DriveAngles` implements them together with the
pulse-timing conditions used by the protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Branch, BranchModel, UniformParams
from .spaces import State, require_hermitian
from .zeno import _eigh, sector_dark_columns

_EPS = float(np.finfo(float).eps)


class Propagator:
    """Cached spectral propagator ``exp(-i H t)`` for a hermitian ``H``."""

    def __init__(self, h: np.ndarray):
        h = np.asarray(h)
        require_hermitian(h, what="Hamiltonian")
        self.evals, self.evecs = _eigh(h)
        self.dim = h.shape[0]
        self._radius = float(np.max(np.abs(self.evals)))

    def _phases(self, t: float) -> np.ndarray:
        # E * t carries an absolute error of about eps * |E t|; past 1e-2 the
        # phases are noise (and NaN once E * t leaves the float range): fail
        error = _EPS * self._radius * abs(t)
        if not error <= 1e-2:
            raise FloatingPointError(
                f"phase error eps*max|E|*|t| = {error:.3g} exceeds 1e-2 at t = {t:.3g}")
        return np.exp(-1j * self.evals * t)

    def apply(self, vec: np.ndarray, t: float) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        return self.evecs @ (self._phases(t) * (self.evecs.conj().T @ vec))

    def unitary(self, t: float) -> np.ndarray:
        return (self.evecs * self._phases(t)) @ self.evecs.conj().T


def evolve(h: np.ndarray, psi, t: float):
    """One-shot ``exp(-i h t) psi``; accepts a plain vector or a State."""
    prop = Propagator(h)
    if isinstance(psi, State):
        return State(psi.space, prop.apply(psi.vec, t))
    return prop.apply(np.asarray(psi, dtype=complex), t)


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
        if branch == Branch.LEFT:
            om_a, om_b = params.omega1, params.omega2
        elif branch == Branch.RIGHT:
            om_a, om_b = params.omega1, params.omega3
        else:
            raise ValueError("combined evolution is per-sector; pick a branch")
        omega = math.hypot(om_a, om_b)
        if omega <= 0:
            raise ValueError("both drives are zero; the dark sector does not move")
        if params.g <= 0 or params.lam <= 0:
            raise ValueError("dark-sector dynamics needs g > 0 and lam > 0")
        theta = math.atan2(om_b, om_a)
        rate = omega * params.lam / (params.g * params.chi())
        return cls(om_a, om_b, omega, theta, rate)

    def phase(self, tau: float) -> float:
        return self.phase_rate * tau

    def amplitudes(self, tau: float) -> tuple[complex, complex, complex]:
        """(A1, A2, A3): weights of the seed, superposition, and transferred
        dark states after a pulse of duration tau."""
        ph = self.phase(tau)
        c, s = math.cos(self.theta), math.sin(self.theta)
        a1 = s * s + c * c * math.cos(ph)
        a2 = -1j * c * math.sin(ph)
        a3 = 0.5 * math.sin(2 * self.theta) * (math.cos(ph) - 1.0)
        return complex(a1), complex(a2), complex(a3)


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
        dark = sector_dark_columns(model, sector)
        m = effective_matrix(model.params, sector)
        h += dark @ m @ dark.T
    return h


# ---------------------------------------------------------------------------
# pulse timing
# ---------------------------------------------------------------------------

HALF_PI = "half_pi"   # (2k - 1) * pi/2 : seed -> superposition dark state
PI = "pi"             # k * pi, odd k   : seed -> transferred dark state


def solve_timing(params: UniformParams, branch: Branch, condition: str = HALF_PI,
                 k: int = 1) -> float:
    """Pulse duration solving the requested phase condition.

    Any integer ``k >= 1`` is accepted for either condition; note that the
    ``pi`` condition only implements the transfer for odd ``k`` (even
    multiples return the initial state), which callers surface as a flag.
    For the combined branch the two sectors share one clock, so their
    second drives must be equal.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k}")
    if condition == HALF_PI:
        target = (2 * k - 1) * math.pi / 2.0
    elif condition == PI:
        target = k * math.pi
    else:
        raise ValueError(f"unknown timing condition {condition!r}")
    if branch == Branch.COMBINED:
        if not math.isclose(params.omega2, params.omega3, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(
                "combined timing needs omega2 == omega3 (one pulse clock for"
                f" both sectors), got {params.omega2} vs {params.omega3}"
            )
        ang = DriveAngles.of(params, Branch.LEFT)
    else:
        ang = DriveAngles.of(params, branch)
    tau = target / ang.phase_rate
    if not math.isfinite(tau):
        raise OverflowError(f"pulse time is not finite (phase rate {ang.phase_rate:.3g})")
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


def compare_full_vs_effective(model: BranchModel, taus) -> list[ComparisonRow]:
    """Overlap of the restricted full evolution with the dark-block evolution.

    Returns ``|<psi_eff(tau)|psi_full(tau)>|^2`` per requested duration; the
    gap measures how far the operating point is from the Zeno limit.
    """
    seed = model.seed().vec
    full = Propagator(model.total)
    eff = Propagator(effective_generator(model))
    rows = []
    for tau in taus:
        t = float(tau)
        f = abs(np.vdot(eff.apply(seed, t), full.apply(seed, t))) ** 2
        rows.append(ComparisonRow(t, float(f)))
    return rows
