"""System parameters and Hamiltonian assembly.

The full Hamiltonian splits into three parts: atom-cavity couplings (each
excited atomic level exchanges an excitation with one cavity polarization
mode), cavity-fiber couplings (each fiber mode exchanges photons with the
same-polarization mode of both cavities), and classical drives on the
``f -> e`` transitions. All couplings enter as ``coeff * (product operator)
+ h.c.`` with real nonnegative coefficients, so every matrix here is real
symmetric.

The physically relevant blocks are the single-excitation sectors: each
polarization is a chain of seven states, one link per coupling term, so a
branch is 7-dimensional (14 for the combined two-branch space). A branch
model is built from those chain links alone. The full-space path stays as
its oracle: :func:`build_hamiltonian` sums each term as a plain ``sp.kron``
chain over the nine factors (CSR), and :func:`restrict` compresses an
operator onto a sector as a dense matrix. Only these two import
``scipy.sparse``. The tests find the sector themselves, as the closure of
the seed over every nonzero coupling, however small
(``tests/oracles.reachable_subspace``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

from .spaces import (
    HilbertSpace,
    RestrictedSpace,
    SpaceMismatchError,
    State,
    SubsystemSpec,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


class Branch(enum.StrEnum):
    """Which polarization sector a computation lives in."""

    LEFT = "left"
    RIGHT = "right"
    COMBINED = "combined"

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
        for name in COUPLINGS:
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def chi(self) -> float:
        """Bright-state scale factor sqrt(1 + 2 lam^2 / g^2)."""
        if self.g <= 0:
            raise ValueError("chi is undefined for g = 0")
        try:
            chi = math.sqrt(1.0 + 2.0 * self.lam**2 / self.g**2)
            if not math.isfinite(chi):  # float * and / overflow to inf without raising
                raise OverflowError
        except ArithmeticError as exc:  # g**2 underflows to 0, or a square overflows
            raise type(exc)(f"chi = sqrt(1 + 2 lam^2 / g^2) leaves the float range"
                            f" at g = {self.g!r}, lam = {self.lam!r}") from None
        return chi


# the five couplings, in field order: every block is linear in them, and CLI
# flags, config keys and result JSON name them in this order
COUPLINGS = tuple(f.name for f in fields(UniformParams))


class _Layout(NamedTuple):
    """One polarization sector: the chain ``a`` - A - F - B - ``atom``, driven at both ends."""

    pol: str    # suffix of the sector's levels and modes
    atom: str   # the cavity-B atom
    drive: str  # the coupling in COUPLINGS that drives that atom

    def level(self, name: str) -> str:  # level "f", "e" or "g" of this sector
        return f"{name}_{self.pol}"

    def mode(self, cavity: str) -> str:  # cavity "A" or "B", or the fiber "F"
        return f"{cavity}_{self.pol}"

    @property
    def ends(self) -> tuple[tuple[str, str, str], ...]:  # (atom, its cavity's mode, its drive)
        return ("a", self.mode("A"), "omega1"), (self.atom, self.mode("B"), self.drive)

    @property
    def links(self) -> tuple[str, ...]:  # the coupling of each link of the sector_kets chain
        (_, _, first), (_, _, last) = self.ends
        return first, "g", "lam", "lam", "g", last


# the only record of which atom, levels, modes and drive belong to which
# polarization; each cavity-B atom rests in its own sector's ground level
LAYOUT = {Branch.LEFT: _Layout("l", "b", "omega2"), Branch.RIGHT: _Layout("r", "c", "omega3")}
_REST = {layout.atom: layout.level("g") for layout in LAYOUT.values()}


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None, typed=True)  # typed: a cached 2 never answers for 2.0
def full_space(cutoff: int = 1) -> HilbertSpace:
    """The nine-factor register at the given photon cutoff, built once each.

    Atom ``a`` has the ``f, e, g`` levels of each sector in turn, each cavity-B atom
    those of its own sector; then come the modes of cavity A, cavity B and the fiber.
    """
    levels = {layout: tuple(map(layout.level, "feg")) for layout in LAYOUT.values()}
    return HilbertSpace([
        SubsystemSpec("a", levels=sum(levels.values(), ())),
        *(SubsystemSpec(layout.atom, levels=own) for layout, own in levels.items()),
        *(SubsystemSpec(layout.mode(cavity), cutoff=cutoff) for cavity in "ABF"
          for layout in levels),
    ])


def _excite(sub: SubsystemSpec, layout: _Layout, lower: str) -> np.ndarray:
    """The atomic transition ``|e><lower|`` within one sector's levels."""
    m = np.zeros((sub.dim, sub.dim))
    m[sub.level_index(layout.level("e")), sub.level_index(layout.level(lower))] = 1.0
    return m


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


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

    Each coupling term with a nonzero coefficient is ``coeff`` times the ``sp.kron``
    chain of its local matrices over the register, identities filled in; each part is
    the running CSR sum of its terms plus their conjugate transposes, in the order the
    terms are generated, so it is hermitian by construction. This is the oracle of
    :func:`build_branch_model`.
    """
    import scipy.sparse as sp

    if space is None:
        space = full_space()
    subs = {s.name: s for s in space.subsystems}
    parts = {name: sp.csr_matrix((space.dim, space.dim)) for name in ("cavity", "fiber", "drive")}

    def add(part, coeff, *factors):
        if coeff == 0.0:
            return
        local = dict(factors)
        m = sp.identity(1, format="csr")
        for sub in space.subsystems:
            factor = local.get(sub.name)
            m = sp.kron(m, sp.identity(sub.dim, format="csr") if factor is None
                        else sp.csr_matrix(factor), format="csr")
        m = float(coeff) * m
        parts[part] = parts[part] + m + m.conj().T

    for layout in LAYOUT.values():
        fiber = layout.mode("F")
        create = _annihilation(subs[fiber].dim).conj().T
        for atom, cavity, drive in layout.ends:
            ann = _annihilation(subs[cavity].dim)
            # the excited atom emits into its cavity's mode, the fiber mode absorbs from
            # the cavity, and a classical drive acts on the atom's f -> e transition
            add("cavity", params.g, (atom, _excite(subs[atom], layout, "g")), (cavity, ann))
            add("fiber", params.lam, (fiber, create), (cavity, ann))
            add("drive", getattr(params, drive), (atom, _excite(subs[atom], layout, "f")))
    strong = parts["cavity"] + parts["fiber"]
    return HamiltonianParts(space, parts["cavity"], parts["fiber"], parts["drive"],
                            strong, strong + parts["drive"])


def restrict(h, subspace: RestrictedSpace) -> np.ndarray:
    """Compress a parent-space operator onto a restricted basis (dense output).

    Accepts sparse or dense input; raises :class:`SpaceMismatchError` unless
    the operator is square on the subspace's parent space.
    """
    import scipy.sparse as sp

    h = sp.csr_matrix(h)
    n = subspace.parent.dim
    if h.shape != (n, n):
        raise SpaceMismatchError(f"operator shape {h.shape} does not match parent ({n}, {n})")
    ix = list(subspace.indices)
    return np.asarray(h[ix, :][:, ix].todense(), dtype=complex)


# ---------------------------------------------------------------------------
# single-excitation sectors
# ---------------------------------------------------------------------------

def sector_kets(space: HilbertSpace, branch: Branch) -> list[State]:
    """The seven chain states of one polarization sector, in chain order.

    Order: driven atom still in f, excited cavity-A atom, photon in cavity A,
    photon in the fiber, photon in cavity B, excited cavity-B atom, cavity-B
    atom transferred to f. Raises ``TypeError`` unless ``space`` is a :class:`HilbertSpace`.
    """
    if not isinstance(space, HilbertSpace):
        raise TypeError(f"expected HilbertSpace, got {type(space).__name__}")
    if branch not in LAYOUT:
        raise ValueError("sector_kets is defined per polarization branch")
    layout = LAYOUT[branch]
    f, e, g = map(layout.level, "feg")
    ground = {**_REST, "a": g}
    return [
        space.ket(**_REST, a=f),
        space.ket(**_REST, a=e),
        *(space.ket(**ground, **{layout.mode(cavity): 1}) for cavity in "AFB"),
        space.ket(**{**ground, layout.atom: e}),
        space.ket(**{**ground, layout.atom: f}),
    ]


def initial_state(space: HilbertSpace, branch: Branch | str) -> State:
    """The protocol seed: chain head of the branch, or their balanced sum."""
    heads = [sector_kets(space, sector)[0] for sector in Branch(branch).sectors]
    return sum(heads[1:], start=heads[0]) * (1.0 / math.sqrt(len(heads)))


@dataclass(frozen=True, eq=False)
class _Sector:
    """The parameter-independent part of one branch's model on one space."""

    restricted: RestrictedSpace
    units: tuple[np.ndarray, ...]  # restricted block per coupling in COUPLINGS, read-only
    seed: np.ndarray  # initial state in restricted coordinates, read-only
    positions: Mapping[Branch, tuple[int, ...]]  # restricted index of each chain state, read-only


@functools.cache
def _sector(branch: Branch, space: HilbertSpace) -> _Sector:
    """Chain basis, unit blocks, seed and chain positions, built once per (branch, space).

    Each polarization sector is the chain of its :func:`sector_kets`, linked by
    the couplings of :attr:`_Layout.links`. The basis interleaves the chains,
    state by state, the chain with the lower head parent index first. That is
    the order in which a breadth-first closure over the couplings reaches those
    kets from the seed: the heads, then along the disjoint equal-length chains.
    Each unit block holds 1.0 on its coupling's links, which is the restriction
    of that coupling's full Hamiltonian at value 1. Membership is structural,
    so a tiny ``g`` or a switched-off drive keeps its link.
    """
    chains = {sector: [ket.vec.nonzero()[0].item() for ket in sector_kets(space, sector)]
              for sector in branch.sectors}
    links = [(i, j, COUPLINGS.index(name)) for sector, chain in chains.items()
             for i, j, name in zip(chain, chain[1:], LAYOUT[sector].links)]
    order = [i for states in zip(*sorted(chains.values())) for i in states]
    local = {parent: n for n, parent in enumerate(order)}
    units = np.zeros((len(COUPLINGS), len(order), len(order)))
    for i, j, unit in links:
        units[unit, local[i], local[j]] = units[unit, local[j], local[i]] = 1.0
    restricted = RestrictedSpace(space, tuple(order))
    seed = restricted.project(initial_state(space, branch).vec)
    for array in (seed, units):
        array.setflags(write=False)
    positions = {sector: tuple(local[i] for i in chain) for sector, chain in chains.items()}
    return _Sector(restricted, tuple(units), seed, MappingProxyType(positions))


@dataclass(frozen=True, eq=False)
class BranchModel:
    """One branch's sector, the record every module reads: basis, chain positions,
    Hamiltonian blocks and dark states."""

    branch: Branch
    params: UniformParams
    space: HilbertSpace
    restricted: RestrictedSpace
    positions: Mapping[Branch, tuple[int, ...]]  # restricted index of each sector's chain states
    total: np.ndarray
    strong: np.ndarray
    drive: np.ndarray

    @property
    def dim(self) -> int:
        return self.restricted.dim

    def seed(self) -> State:
        """The protocol initial state in restricted coordinates."""
        return State(self.restricted, _sector(self.branch, self.space).seed.copy())

    def local_index(self, ket: State) -> int:
        idx = int(np.argmax(np.abs(ket.vec)))
        return self.restricted.local_index(idx)

    @functools.cached_property
    def dark(self) -> Mapping[Branch, np.ndarray]:
        """Analytic dark columns (seed, transferred, delocalized) per sector, read-only; the
        combined branch also keys their balanced sums (left + right)/sqrt(2)."""
        params = self.params
        lam_over = params.lam / (params.g * params.chi())
        dark = {}
        for sector, positions in self.positions.items():
            cols = dark[sector] = np.zeros((self.dim, 3))
            cols[positions[0], 0] = 1.0
            cols[positions[6], 1] = 1.0
            cols[positions[1], 2] = lam_over
            cols[positions[3], 2] = -1.0 / params.chi()
            cols[positions[5], 2] = lam_over
        if self.branch == Branch.COMBINED:
            dark[self.branch] = (dark[Branch.LEFT] + dark[Branch.RIGHT]) / math.sqrt(2)
        for cols in dark.values():
            cols.setflags(write=False)
        return MappingProxyType(dark)


def build_branch_model(
    params: UniformParams,
    branch: Branch | str,
    space: HilbertSpace | None = None,
) -> BranchModel:
    """Chain basis plus restricted Hamiltonians for one branch (or the pair).

    The first call per branch and space builds the sector from its chain
    links: its basis and one unit block per coupling, with 1.0 on that
    coupling's links, so the sector contains the full chain even when some
    protocol drive is zero. Every block is linear in the couplings, so each
    call is a five-term combination of the cached unit blocks; each chain
    entry comes from exactly one coupling term, so the result equals a fresh
    restriction of :func:`build_hamiltonian` to the closure of the seed bit
    for bit. That full-space path, a sum of plain ``sp.kron`` chains, is the
    oracle only. The blocks are read-only: a run caches each engine's
    decomposition per model, which a write would silently bypass. Raises
    ``TypeError`` unless ``params`` is a :class:`UniformParams`.
    """
    if not isinstance(params, UniformParams):
        raise TypeError(f"expected UniformParams, got {type(params).__name__}")
    if params.g <= 0 or params.lam <= 0:
        raise ValueError("branch sectors need g > 0 and lam > 0")
    branch = Branch(branch)  # a name is resolved here, so that the model holds the member
    if space is None:
        space = full_space()
    sector = _sector(branch, space)
    u_g, u_lam, u_1, u_2, u_3 = sector.units
    strong = params.g * u_g + params.lam * u_lam
    drive = params.omega1 * u_1 + params.omega2 * u_2 + params.omega3 * u_3
    total = strong + drive
    for block in (total, strong, drive):  # runs cache what they derive from them
        block.setflags(write=False)
    return BranchModel(
        branch=branch,
        params=params,
        space=space,
        restricted=sector.restricted,
        positions=sector.positions,
        total=total,
        strong=strong,
        drive=drive,
    )
