"""System parameters and Hamiltonian assembly.

The full Hamiltonian splits into three parts: atom-cavity couplings (each
excited atomic level exchanges an excitation with one cavity polarization
mode), cavity-fiber couplings (each fiber mode exchanges photons with the
same-polarization mode of both cavities), and classical drives on the
``f -> e`` transitions. All couplings enter as ``coeff * (product operator)
+ h.c.`` with real nonnegative coefficients, so every matrix here is real
symmetric.

Operators are assembled as sparse (CSR) Kronecker products. The physically
relevant blocks are the single-excitation sectors picked out by
:func:`reachable_subspace`, which are 7-dimensional per polarization branch
(14 for the combined two-branch space); :func:`restrict` compresses an
operator onto such a sector as a dense matrix.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .spaces import (
    HilbertSpace,
    InvalidSubsystemError,
    RestrictedSpace,
    SpaceMismatchError,
    State,
    SubsystemSpec,
    standard_subsystems,
)


class ClosureOverflowError(ValueError):
    """A reachable-subspace search exceeded its basis-size cap."""


class Branch(str, enum.Enum):
    """Which polarization sector a computation lives in."""

    LEFT = "left"
    RIGHT = "right"
    COMBINED = "combined"

    def __str__(self) -> str:  # cleaner CLI/JSON rendering
        return self.value

    @property
    def sectors(self) -> tuple["Branch", ...]:
        """The polarization sectors this branch spans: both for COMBINED."""
        return (Branch.LEFT, Branch.RIGHT) if self is Branch.COMBINED else (self,)


@dataclass(frozen=True)
class UniformParams:
    """The symmetric operating point: one g, one lambda, three drives.

    Both atom-cavity couplings of every transition equal ``g``, both fiber
    couplings equal ``lam``; ``omega1`` drives the cavity-A atom (both
    polarizations), ``omega2``/``omega3`` drive the two cavity-B atoms.
    """

    g: float
    lam: float
    omega1: float = 0.0
    omega2: float = 0.0
    omega3: float = 0.0

    def __post_init__(self):
        for name in ("g", "lam", "omega1", "omega2", "omega3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def chi(self) -> float:
        """Bright-state scale factor sqrt(1 + 2 lam^2 / g^2)."""
        if self.g <= 0:
            raise ValueError("chi is undefined for g = 0")
        try:
            return math.sqrt(1.0 + 2.0 * self.lam**2 / self.g**2)
        except ArithmeticError as exc:  # g**2 underflows to 0, or a square overflows
            raise type(exc)(f"chi = sqrt(1 + 2 lam^2 / g^2) leaves the float range"
                            f" at g = {self.g!r}, lam = {self.lam!r}") from None


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@functools.cache
def full_space(cutoff: int = 1) -> HilbertSpace:
    """The standard nine-factor space at the given photon cutoff, built once each."""
    return HilbertSpace(standard_subsystems(cutoff))


@dataclass(frozen=True, eq=False)
class CouplingTerm:
    """One product operator ``coeff * prod_k O_k``; the builder adds ``+ h.c.``."""

    part: str  # "cavity" | "fiber" | "drive"
    coeff: float
    factors: tuple[tuple[str, np.ndarray], ...]  # (subsystem name, local matrix)


def _transition(sub: SubsystemSpec, upper: str, lower: str) -> np.ndarray:
    m = np.zeros((sub.dim, sub.dim))
    m[sub.level_index(upper), sub.level_index(lower)] = 1.0
    return m


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def coupling_terms(params: UniformParams, space: HilbertSpace) -> list[CouplingTerm]:
    """Symbolic term list of the full Hamiltonian (hermitian halves only)."""
    subs = {s.name: s for s in space.subsystems}
    ann = {name: _annihilation(subs[name].dim) for name in subs if subs[name].is_mode}

    def up(atom: str, pol: str) -> np.ndarray:
        return _transition(subs[atom], f"e_{pol}", f"g_{pol}")

    def drv(atom: str, pol: str) -> np.ndarray:
        return _transition(subs[atom], f"e_{pol}", f"f_{pol}")

    terms: list[CouplingTerm] = []

    def add(part, coeff, *factors):
        if coeff != 0.0:
            terms.append(CouplingTerm(part, float(coeff), tuple(factors)))

    # atom-cavity: excited level drops while emitting into the matching mode
    add("cavity", params.g, ("a", up("a", "l")), ("A_l", ann["A_l"]))
    add("cavity", params.g, ("a", up("a", "r")), ("A_r", ann["A_r"]))
    add("cavity", params.g, ("b", up("b", "l")), ("B_l", ann["B_l"]))
    add("cavity", params.g, ("c", up("c", "r")), ("B_r", ann["B_r"]))
    # cavity-fiber: the fiber mode absorbs from either cavity of its polarization
    add("fiber", params.lam, ("F_l", ann["F_l"].conj().T), ("A_l", ann["A_l"]))
    add("fiber", params.lam, ("F_l", ann["F_l"].conj().T), ("B_l", ann["B_l"]))
    add("fiber", params.lam, ("F_r", ann["F_r"].conj().T), ("A_r", ann["A_r"]))
    add("fiber", params.lam, ("F_r", ann["F_r"].conj().T), ("B_r", ann["B_r"]))
    # classical drives on the f -> e transitions; omega1 drives both branches
    add("drive", params.omega1, ("a", drv("a", "l")))
    add("drive", params.omega1, ("a", drv("a", "r")))
    add("drive", params.omega2, ("b", drv("b", "l")))
    add("drive", params.omega3, ("c", drv("c", "r")))
    return terms


def _materialize(term: CouplingTerm, space: HilbertSpace) -> sp.csr_matrix:
    locals_ = dict(term.factors)
    out = sp.identity(1, format="csr")
    for sub in space.subsystems:
        m = locals_.get(sub.name)
        factor = sp.csr_matrix(m) if m is not None else sp.identity(sub.dim, format="csr")
        out = sp.kron(out, factor, format="csr")
    return term.coeff * out


@dataclass(frozen=True, eq=False)
class HamiltonianParts:
    """The three physical parts plus their sums, as CSR matrices on one space.

    ``strong = cavity + fiber`` and ``total = strong + drive``.
    """

    space: HilbertSpace
    cavity: sp.csr_matrix
    fiber: sp.csr_matrix
    drive: sp.csr_matrix
    strong: sp.csr_matrix
    total: sp.csr_matrix


def build_hamiltonian(
    params: UniformParams,
    space: HilbertSpace | None = None,
) -> HamiltonianParts:
    """Assemble the Hamiltonian parts on ``space`` (default cutoff-1 space).

    Every part is a hermitian CSR matrix by construction.
    """
    if space is None:
        space = full_space()
    terms = coupling_terms(params, space)
    parts = {}
    for name in ("cavity", "fiber", "drive"):
        acc = sp.csr_matrix((space.dim, space.dim))
        for term in terms:
            if term.part == name:
                m = _materialize(term, space)
                acc = acc + m + m.conj().T
        parts[name] = acc
    strong = parts["cavity"] + parts["fiber"]
    return HamiltonianParts(space, parts["cavity"], parts["fiber"], parts["drive"],
                            strong, strong + parts["drive"])


# ---------------------------------------------------------------------------
# sector closure and restriction
# ---------------------------------------------------------------------------

def reachable_subspace(
    h,
    seed: State,
    tol: float = 1e-12,
    cap: int = 512,
) -> RestrictedSpace:
    """Breadth-first closure of the seed's support under a Hamiltonian.

    Basis states are added in FIFO discovery order with neighbors sorted by
    basis index, so the result is deterministic; for a single-state seed
    driven along a coupling chain this reproduces the natural chain order.
    Raises :class:`ClosureOverflowError` if more than ``cap`` states appear.
    """
    if isinstance(h, HamiltonianParts):
        h = h.total
    space = seed.space
    if isinstance(space, RestrictedSpace):
        raise InvalidSubsystemError("seed must live on the full space")
    h = sp.csr_matrix(h)
    if h.shape != (space.dim, space.dim):
        raise InvalidSubsystemError("Hamiltonian shape does not match the seed's space")

    start = [int(i) for i in np.flatnonzero(np.abs(seed.vec) > tol)]
    if not start:
        raise ValueError("seed state is (numerically) zero")
    order: list[int] = []
    seen = set(start)
    queue = sorted(start)
    while queue:
        i = queue.pop(0)
        order.append(i)
        lo, hi = h.indptr[i], h.indptr[i + 1]
        neigh = h.indices[lo:hi][np.abs(h.data[lo:hi]) > tol]
        for j in sorted(int(j) for j in neigh):
            if j not in seen:
                seen.add(j)
                queue.append(j)
        if len(seen) > cap:
            raise ClosureOverflowError(
                f"reachable basis exceeded cap={cap}; raise the cap if this is intended"
            )
    return RestrictedSpace(space, tuple(order))


def restrict(h, subspace: RestrictedSpace) -> np.ndarray:
    """Compress a parent-space operator onto a restricted basis (dense output).

    Accepts sparse or dense input; raises :class:`SpaceMismatchError` unless
    the operator is square on the subspace's parent space.
    """
    h = sp.csr_matrix(h)
    n = subspace.parent.dim
    if h.shape != (n, n):
        raise SpaceMismatchError(f"operator shape {h.shape} does not match parent ({n}, {n})")
    ix = list(subspace.indices)
    return np.asarray(h[ix, :][:, ix].todense(), dtype=complex)


# ---------------------------------------------------------------------------
# single-excitation sectors
# ---------------------------------------------------------------------------

# per polarization sector: the level suffix and the cavity-B atom of that
# polarization; each cavity-B atom rests in its own sector's ground level
_LAYOUT = {Branch.LEFT: ("l", "b"), Branch.RIGHT: ("r", "c")}
_REST = {atom: f"g_{pol}" for pol, atom in _LAYOUT.values()}


def sector_kets(space: HilbertSpace, branch: Branch) -> list[State]:
    """The seven chain states of one polarization sector, in chain order.

    Order: driven atom still in f, excited cavity-A atom, photon in cavity A,
    photon in the fiber, photon in cavity B, excited cavity-B atom, cavity-B
    atom transferred to f.
    """
    if branch not in _LAYOUT:
        raise ValueError("sector_kets is defined per polarization branch")
    pol, atom = _LAYOUT[branch]
    ground = {**_REST, "a": f"g_{pol}"}
    return [
        space.ket(**_REST, a=f"f_{pol}"),
        space.ket(**_REST, a=f"e_{pol}"),
        *(space.ket(**ground, **{f"{mode}_{pol}": 1}) for mode in "AFB"),
        space.ket(**{**ground, atom: f"e_{pol}"}),
        space.ket(**{**ground, atom: f"f_{pol}"}),
    ]


def initial_state(space: HilbertSpace, branch: Branch) -> State:
    """The protocol seed: chain head of the branch, or their balanced sum."""
    heads = [sector_kets(space, sector)[0] for sector in branch.sectors]
    return sum(heads[1:], start=heads[0]) * (1.0 / math.sqrt(len(heads)))


# the five couplings every restricted block is linear in, in UniformParams order
_COUPLINGS = ("g", "lam", "omega1", "omega2", "omega3")


@functools.cache
def _unit_operators(space: HilbertSpace) -> tuple[sp.csr_matrix, ...]:
    """Full-space total Hamiltonian of each coupling in ``_COUPLINGS`` at value 1."""
    zero = dict.fromkeys(_COUPLINGS, 0.0)
    return tuple(build_hamiltonian(UniformParams(**{**zero, name: 1.0}), space).total
                 for name in _COUPLINGS)


@dataclass(frozen=True, eq=False)
class _Sector:
    """The parameter-independent part of one branch's model on one space."""

    restricted: RestrictedSpace
    units: tuple[np.ndarray, ...]  # restricted block per coupling in _COUPLINGS, read-only
    seed: np.ndarray  # initial state on the parent space, read-only
    positions: dict[Branch, tuple[int, ...]]  # restricted index of each chain state, per sector


@functools.cache
def _sector(branch: Branch, space: HilbertSpace) -> _Sector:
    """Closure, unit blocks, seed and chain positions, built once per (branch, space).

    The closure runs at unit couplings: sector membership is structural and
    must not depend on parameter values (a tiny ``g`` or a switched-off drive
    would otherwise drop its link below the closure tolerance).
    """
    units = _unit_operators(space)
    seed = initial_state(space, branch).vec
    restricted = reachable_subspace(sum(units[1:], start=units[0]), State(space, seed))
    blocks = tuple(restrict(u, restricted).real for u in units)
    for array in (seed, *blocks):
        array.setflags(write=False)
    positions = {
        sector: tuple(restricted.local_index(int(np.argmax(np.abs(k.vec))))
                      for k in sector_kets(space, sector))
        for sector in branch.sectors}
    return _Sector(restricted, blocks, seed, positions)


@dataclass(frozen=True, eq=False)
class BranchModel:
    """One branch's sector basis plus its restricted Hamiltonian blocks."""

    branch: Branch
    params: UniformParams
    space: HilbertSpace
    restricted: RestrictedSpace
    total: np.ndarray
    strong: np.ndarray
    drive: np.ndarray

    @property
    def dim(self) -> int:
        return self.restricted.dim

    def seed(self) -> State:
        """The protocol initial state in restricted coordinates."""
        full = _sector(self.branch, self.space).seed
        return State(self.restricted, self.restricted.project(full))

    def local_index(self, ket: State) -> int:
        idx = int(np.argmax(np.abs(ket.vec)))
        return self.restricted.local_index(idx)


def build_branch_model(
    params: UniformParams,
    branch: Branch,
    space: HilbertSpace | None = None,
) -> BranchModel:
    """Closure plus restricted Hamiltonians for one branch (or the pair).

    The first call per branch and space assembles the full Hamiltonian of
    each coupling at unit value and takes the closure of their sum, so the
    sector contains the full chain even when some protocol drive is zero.
    Every block is linear in the couplings, so each call after that is a
    five-term combination of the cached unit blocks; each chain entry comes
    from exactly one coupling term, so the result equals a fresh restriction
    of :func:`build_hamiltonian` bit for bit.
    """
    if params.g <= 0 or params.lam <= 0:
        raise ValueError("branch sectors need g > 0 and lam > 0")
    if space is None:
        space = full_space()
    sector = _sector(branch, space)
    u_g, u_lam, u_1, u_2, u_3 = sector.units
    strong = params.g * u_g + params.lam * u_lam
    drive = params.omega1 * u_1 + params.omega2 * u_2 + params.omega3 * u_3
    return BranchModel(
        branch=branch,
        params=params,
        space=space,
        restricted=sector.restricted,
        total=strong + drive,
        strong=strong,
        drive=drive,
    )
