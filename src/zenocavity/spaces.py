"""Tensor-product state spaces for the fiber-coupled two-cavity system.

The physical register is an ordered tensor product of nine factors: a six-level
atom held in cavity A, two three-level atoms held in cavity B, the two
polarization modes of each cavity, and the two polarization modes of the
connecting fiber. Basis states are enumerated lexicographically over the
occupation tuple (atom levels first, then mode photon numbers), so the index
map is deterministic and matches the Kronecker-product convention used by the
operator builders in :mod:`zenocavity.model`.

Vectors and density matrices carry a reference to their space; the module-level
functions (inner products, partial traces, fidelities, negativity, single-mode
gates) validate compatibility before doing any arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Structural identities (hermiticity, unitarity, normalization bookkeeping)
# are enforced at this absolute tolerance throughout the package.
STRUCTURAL_TOL = 1e-12

# Partial transposes are dense eigenproblems; reductions in this system are
# at most 6*3*3 = 54 dimensional, so anything larger is a caller bug.
NEGATIVITY_DIM_CAP = 64


class SpaceMismatchError(ValueError):
    """Two objects that must share a space do not."""


class InvalidSubsystemError(ValueError):
    """A subsystem specification or lookup is malformed."""


# ---------------------------------------------------------------------------
# subsystem and space definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsystemSpec:
    """One tensor factor: a named multilevel atom or a truncated boson mode.

    Exactly one of ``levels`` (atom) or ``cutoff`` (mode) must be given. A mode
    with cutoff ``c`` has dimension ``c + 1`` (photon numbers 0..c).
    """

    name: str
    levels: tuple[str, ...] | None = None
    cutoff: int | None = None

    def __post_init__(self):
        if (self.levels is None) == (self.cutoff is None):
            raise InvalidSubsystemError(
                f"subsystem {self.name!r}: give exactly one of levels or cutoff"
            )
        if self.levels is not None:
            if len(self.levels) < 2 or len(set(self.levels)) != len(self.levels):
                raise InvalidSubsystemError(
                    f"subsystem {self.name!r}: levels must be >= 2 distinct labels"
                )
        elif self.cutoff < 1:
            raise InvalidSubsystemError(
                f"mode {self.name!r}: photon cutoff must be >= 1, got {self.cutoff}"
            )

    @property
    def is_mode(self) -> bool:
        return self.cutoff is not None

    @property
    def dim(self) -> int:
        return self.cutoff + 1 if self.is_mode else len(self.levels)

    def level_index(self, label: str) -> int:
        if self.is_mode:
            raise InvalidSubsystemError(f"{self.name!r} is a mode, not an atom")
        try:
            return self.levels.index(label)
        except ValueError:
            raise InvalidSubsystemError(
                f"atom {self.name!r} has no level {label!r} (levels: {self.levels})"
            ) from None


def atom_a() -> SubsystemSpec:
    """Six-level atom in cavity A; drives both polarization branches."""
    return SubsystemSpec("a", levels=("f_l", "e_l", "g_l", "f_r", "e_r", "g_r"))


def atom_b() -> SubsystemSpec:
    """Three-level atom in cavity B coupled to the left-polarized mode."""
    return SubsystemSpec("b", levels=("f_l", "e_l", "g_l"))


def atom_c() -> SubsystemSpec:
    """Three-level atom in cavity B coupled to the right-polarized mode."""
    return SubsystemSpec("c", levels=("f_r", "e_r", "g_r"))


def boson_mode(name: str, cutoff: int = 1) -> SubsystemSpec:
    return SubsystemSpec(name, cutoff=cutoff)


MODE_NAMES = ("A_l", "A_r", "B_l", "B_r", "F_l", "F_r")


def standard_subsystems(cutoff: int = 1) -> tuple[SubsystemSpec, ...]:
    """The canonical nine factors: atoms a, b, c then the six boson modes."""
    return (atom_a(), atom_b(), atom_c()) + tuple(
        boson_mode(m, cutoff) for m in MODE_NAMES
    )


class HilbertSpace:
    """Ordered tensor product of subsystems with a lexicographic basis.

    Basis index ``i`` corresponds to the occupation tuple obtained by treating
    ``i`` as a mixed-radix number with the subsystem dimensions as radices,
    most significant factor first. Two spaces built from equal subsystem
    tuples are equal and produce identical index maps.
    """

    def __init__(self, subsystems: Sequence[SubsystemSpec]):
        subsystems = tuple(subsystems)
        if not subsystems:
            raise InvalidSubsystemError("a space needs at least one subsystem")
        names = [s.name for s in subsystems]
        if len(set(names)) != len(names):
            raise InvalidSubsystemError(f"duplicate subsystem names in {names}")
        self.subsystems = subsystems
        self.dims = tuple(s.dim for s in subsystems)
        self.dim = int(np.prod(self.dims))
        # suffix-product strides; index = occ . strides
        strides = [1] * len(self.dims)
        for i in range(len(self.dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.dims[i + 1]
        self._strides = tuple(strides)
        self._by_name = {s.name: i for i, s in enumerate(subsystems)}
        # every functools.cache keyed on a space hashes it; the factors never change
        self._hash = hash(subsystems)

    def __eq__(self, other) -> bool:
        return isinstance(other, HilbertSpace) and self.subsystems == other.subsystems

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"HilbertSpace({'x'.join(map(str, self.dims))}, dim={self.dim})"

    def subsystem_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidSubsystemError(
                f"no subsystem named {name!r} in {list(self._by_name)}"
            ) from None

    def index(self, occupation: Sequence[int]) -> int:
        """Basis index of an occupation tuple."""
        occupation = tuple(occupation)
        if len(occupation) != len(self.dims):
            raise InvalidSubsystemError(
                f"occupation length {len(occupation)} != {len(self.dims)} subsystems"
            )
        for n, d in zip(occupation, self.dims):
            if not 0 <= n < d:
                raise InvalidSubsystemError(
                    f"occupation {occupation} out of range for dims {self.dims}"
                )
        return int(sum(n * s for n, s in zip(occupation, self._strides)))

    def occupation(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index (inverse of :meth:`index`)."""
        if not 0 <= index < self.dim:
            raise InvalidSubsystemError(f"basis index {index} out of range")
        out = []
        for d in reversed(self.dims):
            index, r = divmod(index, d)
            out.append(r)
        return tuple(reversed(out))

    def basis_state(self, occupation: Sequence[int]) -> "State":
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(occupation)] = 1.0
        return State(self, vec)

    def ket(self, **assignments) -> "State":
        """Basis ket by subsystem name; unassigned modes default to vacuum.

        Atom levels are given by label (``a="f_l"``), modes by photon number
        (``F_l=1``). Every atom must be assigned.
        """
        occ = []
        seen = set()
        for sub in self.subsystems:
            if sub.name in assignments:
                seen.add(sub.name)
                val = assignments[sub.name]
                occ.append(val if sub.is_mode else sub.level_index(val))
            elif sub.is_mode:
                occ.append(0)
            else:
                raise InvalidSubsystemError(f"atom {sub.name!r} needs a level")
        extra = set(assignments) - seen
        if extra:
            raise InvalidSubsystemError(f"unknown subsystem names: {sorted(extra)}")
        return self.basis_state(occ)

    def label(self, index: int) -> str:
        """Human-readable basis label, e.g. ``|f_l g_l g_r; 000000>``."""
        occ = self.occupation(index)
        atoms, modes = [], []
        for sub, n in zip(self.subsystems, occ):
            (modes if sub.is_mode else atoms).append(
                str(n) if sub.is_mode else sub.levels[n]
            )
        if modes:
            return "|" + " ".join(atoms) + "; " + "".join(modes) + ">"
        return "|" + " ".join(atoms) + ">"


@dataclass(frozen=True)
class RestrictedSpace:
    """A subspace spanned by an ordered subset of parent basis states."""

    parent: HilbertSpace
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise InvalidSubsystemError("restricted basis indices must be distinct")
        for i in self.indices:
            if not 0 <= i < self.parent.dim:
                raise InvalidSubsystemError(f"parent index {i} out of range")

    @property
    def dim(self) -> int:
        return len(self.indices)

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates in this subspace -> vector in the parent space."""
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.dim,):
            raise SpaceMismatchError(f"expected shape ({self.dim},), got {vec.shape}")
        out = np.zeros(self.parent.dim, dtype=complex)
        out[list(self.indices)] = vec
        return out

    def project(self, parent_vec: np.ndarray) -> np.ndarray:
        parent_vec = np.asarray(parent_vec, dtype=complex)
        if parent_vec.shape != (self.parent.dim,):
            raise SpaceMismatchError(
                f"expected shape ({self.parent.dim},), got {parent_vec.shape}"
            )
        return parent_vec[list(self.indices)]

    def local_index(self, parent_index: int) -> int:
        try:
            return self.indices.index(parent_index)
        except ValueError:
            raise InvalidSubsystemError(
                f"parent basis index {parent_index} not in restricted basis"
            ) from None

    def occupation(self, local: int) -> tuple[int, ...]:
        return self.parent.occupation(self.indices[local])

    def label(self, local: int) -> str:
        return self.parent.label(self.indices[local])


# ---------------------------------------------------------------------------
# states and density operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class State:
    """A ket with a space reference. Amplitudes are complex128."""

    space: HilbertSpace | RestrictedSpace
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=complex)
        if vec.shape != (self.space.dim,):
            raise SpaceMismatchError(
                f"vector shape {vec.shape} does not match space dim {self.space.dim}"
            )
        object.__setattr__(self, "vec", vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def normalized(self) -> "State":
        n = self.norm()
        if n < STRUCTURAL_TOL:
            raise ValueError("cannot normalize a (numerically) zero vector")
        return State(self.space, self.vec / n)

    def __add__(self, other: "State") -> "State":
        _require_same_space(self.space, other.space)
        return State(self.space, self.vec + other.vec)

    def __sub__(self, other: "State") -> "State":
        _require_same_space(self.space, other.space)
        return State(self.space, self.vec - other.vec)

    def __mul__(self, scalar) -> "State":
        return State(self.space, self.vec * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class DensityOp:
    """A density matrix with a space reference."""

    space: HilbertSpace | RestrictedSpace
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise SpaceMismatchError(
                f"matrix shape {mat.shape} does not match space dim {d}"
            )
        object.__setattr__(self, "mat", mat)

    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))


def _require_same_space(a, b):
    if a != b:
        raise SpaceMismatchError(f"spaces differ: {a!r} vs {b!r}")


def inner(a: State, b: State) -> complex:
    """<a|b> with space compatibility checked."""
    _require_same_space(a.space, b.space)
    return complex(np.vdot(a.vec, b.vec))


def density(state: State) -> DensityOp:
    return DensityOp(state.space, np.outer(state.vec, state.vec.conj()))


def embed(state: State) -> State:
    """Lift a restricted-space ket to its parent space (no-op otherwise)."""
    if isinstance(state.space, RestrictedSpace):
        return State(state.space.parent, state.space.embed(state.vec))
    return state


def require_hermitian(mat: np.ndarray, tol: float = STRUCTURAL_TOL, what: str = "operator"):
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > tol:
        raise ValueError(f"{what} is not hermitian (max deviation {dev:.2e})")


# ---------------------------------------------------------------------------
# reductions, fidelity, negativity
# ---------------------------------------------------------------------------

def _resolve_keep(space: HilbertSpace, keep: Iterable) -> list[int]:
    out = []
    for k in keep:
        out.append(space.subsystem_index(k) if isinstance(k, str) else int(k))
    if len(set(out)) != len(out):
        raise InvalidSubsystemError(f"duplicate entries in keep set {list(keep)}")
    for i in out:
        if not 0 <= i < len(space.dims):
            raise InvalidSubsystemError(f"subsystem index {i} out of range")
    # preserve the original tensor order regardless of how keep was written
    return sorted(out)


@functools.cache
def _kept_space(space: HilbertSpace, kept: tuple[int, ...]) -> HilbertSpace:
    """The space of the ``kept`` factors of ``space``, built once per pair."""
    return HilbertSpace([space.subsystems[i] for i in kept])


def partial_trace(state, keep: Iterable) -> DensityOp:
    """Reduce a State or DensityOp to the named subsystems.

    ``keep`` lists subsystem names (or positional indices); everything else is
    traced out. Restricted-space kets are embedded into their parent first.
    Keeping every subsystem returns the input density matrix exactly (the
    reshape path performs no arithmetic in that case).
    """
    if isinstance(state, State):
        state = embed(state)
        space = state.space
        kept = _resolve_keep(space, keep)
        if len(kept) == len(space.dims):
            return density(state)
        perm = kept + [i for i in range(len(space.dims)) if i not in kept]
        tensor = state.vec.reshape(space.dims).transpose(perm)
        dk = int(np.prod([space.dims[i] for i in kept]))
        block = tensor.reshape(dk, -1)
        return DensityOp(_kept_space(space, tuple(kept)), block @ block.conj().T)

    if isinstance(state, DensityOp):
        space = state.space
        if isinstance(space, RestrictedSpace):
            raise SpaceMismatchError(
                "partial_trace of a restricted-space density matrix is not defined;"
                " embed the underlying states first"
            )
        kept = _resolve_keep(space, keep)
        if len(kept) == len(space.dims):
            return DensityOp(space, state.mat.copy())
        n = len(space.dims)
        tensor = state.mat.reshape(space.dims + space.dims)
        traced = [i for i in range(n) if i not in kept]
        for offset, i in enumerate(sorted(traced, reverse=True)):
            # trace the highest remaining axis pair first so positions stay valid
            tensor = np.trace(tensor, axis1=i, axis2=i + n - offset)
        dk = int(np.prod([space.dims[i] for i in kept]))
        return DensityOp(_kept_space(space, tuple(kept)), tensor.reshape(dk, dk))

    raise TypeError(f"expected State or DensityOp, got {type(state).__name__}")


def fidelity(state, target: State) -> float:
    """Overlap with a pure target: |<t|psi>|^2 for kets, <t|rho|t> for mixtures.

    Global phases never enter. The target must be normalized.
    """
    if abs(target.norm() - 1.0) > 1e-9:
        raise ValueError(f"target is not normalized (norm {target.norm():.6f})")
    if isinstance(state, State):
        return float(abs(inner(target, state)) ** 2)
    if isinstance(state, DensityOp):
        _require_same_space(state.space, target.space)
        return float(np.real(target.vec.conj() @ state.mat @ target.vec))
    raise TypeError(f"expected State or DensityOp, got {type(state).__name__}")


def negativity(state, partition: Iterable) -> float:
    """Entanglement negativity across ``partition`` vs the rest.

    Sum of |negative eigenvalues| of the partial transpose over the named
    subsystems. Restricted to spaces of dimension <= 64 (every reduction in
    this system is at most 54 dimensional).
    """
    if isinstance(state, State):
        state = embed(state)
    elif not isinstance(state, DensityOp):
        raise TypeError(f"expected State or DensityOp, got {type(state).__name__}")
    space = state.space
    if isinstance(space, RestrictedSpace):
        raise SpaceMismatchError("negativity needs a tensor-product space; reduce first")
    if space.dim > NEGATIVITY_DIM_CAP:
        raise ValueError(
            f"negativity capped at dimension {NEGATIVITY_DIM_CAP}, got {space.dim};"
            " trace out spectators first"
        )
    rho = state if isinstance(state, DensityOp) else density(state)
    part = _resolve_keep(space, partition)
    if not part or len(part) == len(space.dims):
        raise InvalidSubsystemError("partition must be a proper nonempty subset")
    n = len(space.dims)
    tensor = rho.mat.reshape(space.dims + space.dims)
    tensor = np.transpose(
        tensor,
        [i + n if i in part else i for i in range(n)]
        + [i - n if (i - n) in part else i for i in range(n, 2 * n)],
    )
    pt = tensor.reshape(space.dim, space.dim)
    evals = np.linalg.eigvalsh(pt)
    return float(np.sum(np.abs(evals[evals < 0])))


# ---------------------------------------------------------------------------
# single-mode gates
# ---------------------------------------------------------------------------

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def apply_on_mode(state: State, mode: str, mat: np.ndarray) -> State:
    """Apply an arbitrary 2x2 matrix along one cutoff-1 mode axis.

    No unitarity is assumed: measurement and leakage branches need
    non-unitary factors. Restricted kets are embedded first.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"mode operator must be 2x2, got shape {mat.shape}")
    state = embed(state)
    space = state.space
    axis = space.subsystem_index(mode)
    sub = space.subsystems[axis]
    if not sub.is_mode or sub.dim != 2:
        raise InvalidSubsystemError(
            f"{mode!r} is not a cutoff-1 boson mode; mode gates are only defined there"
        )
    # the one np.dot np.tensordot(mat, tensor, axes=([1], [axis])) issues: the
    # mode axis moved to the front of a contiguous (2, dim / 2) operand
    n = len(space.dims)
    order = (axis, *range(axis), *range(axis + 1, n))
    front = state.vec.reshape(space.dims).transpose(order).reshape(2, -1)
    out = np.dot(mat, front).reshape([space.dims[i] for i in order])
    back = (*range(1, axis + 1), 0, *range(axis + 1, n))
    return State(space, out.transpose(back).reshape(space.dim))
