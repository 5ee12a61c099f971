"""Tensor-product state spaces.

A space is an ordered tensor product of named factors, each a multilevel atom
or a truncated boson mode. Basis states are enumerated lexicographically over
the occupation tuple (one entry per factor, the first factor most
significant), so the index map is deterministic and matches the
Kronecker-product convention of the operator builders in
:mod:`zenocavity.model`, which also defines the register of the system.

Vectors and density matrices carry a reference to their space; the module-level
functions (inner products, partial traces, fidelities, negativity) validate
compatibility before doing any arithmetic. A :class:`ReadoutPlan` is the one
readout of a ket: single-mode gates, post-selection, reduction and negativity,
checked when the plan is built. The tests hold it byte for byte to the
``np.tensordot`` gate and to the transpose formulations of the reduction and
the partial transpose.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Hermiticity is enforced at this absolute tolerance throughout the package.
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
        else:
            cutoff = _integer(self.cutoff)
            if cutoff is None or cutoff < 1:
                raise InvalidSubsystemError(
                    f"mode {self.name!r}: photon cutoff must be an integer >= 1,"
                    f" got {self.cutoff!r}"
                )
            object.__setattr__(self, "cutoff", cutoff)  # numpy integers in, a plain int kept

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
        except (KeyError, TypeError):  # TypeError: an unhashable name
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
            if _integer(n) is None or not 0 <= n < d:  # a fraction would index another state
                raise InvalidSubsystemError(
                    f"occupation {occupation} must hold integers 0 <= n < d for dims {self.dims}"
                )
        return int(np.ravel_multi_index(occupation, self.dims))

    def ket(self, **assignments) -> "State":
        """Basis ket by subsystem name; unassigned modes default to vacuum.

        Atom levels are given by label (``q="up"``), modes by photon number
        (``m=1``). Every atom must be assigned.
        """
        occ = []
        for sub in self.subsystems:
            if sub.name in assignments:
                val = assignments[sub.name]
                occ.append(val if sub.is_mode else sub.level_index(val))
            elif sub.is_mode:
                occ.append(0)
            else:
                raise InvalidSubsystemError(f"atom {sub.name!r} needs a level")
        extra = set(assignments) - set(self._by_name)
        if extra:
            raise InvalidSubsystemError(f"unknown subsystem names: {sorted(extra)}")
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(occ)] = 1.0
        return State(self, vec)


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

    def __add__(self, other: "State") -> "State":
        _require_same_space(self.space, other.space)
        return State(self.space, self.vec + other.vec)

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
    """Lift a restricted-space ket to its parent space (no-op otherwise); ``TypeError`` if
    ``state`` is not a :class:`State`."""
    if not isinstance(state, State):
        raise TypeError(f"expected State, got {type(state).__name__}")
    if isinstance(state.space, RestrictedSpace):
        return State(state.space.parent, state.space.embed(state.vec))
    return state


def require_hermitian(mat: np.ndarray, what: str = "operator"):
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > STRUCTURAL_TOL:
        raise ValueError(f"{what} is not hermitian (max deviation {dev:.2e})")


# ---------------------------------------------------------------------------
# reductions, fidelity, negativity
# ---------------------------------------------------------------------------

def _integer(value) -> int | None:
    """``value`` as a plain int, numpy integers included; None for a bool or a non-integer."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _keep_positions(space: HilbertSpace, keep: Iterable) -> tuple[int, ...]:
    """The factor positions ``keep`` names, by name or by integer index, in tensor order.

    A bare string is one name, never a sequence of one-character names.
    """
    keep, out = [keep] if isinstance(keep, str) else list(keep), []
    for k in keep:
        i = space.subsystem_index(k) if isinstance(k, str) else _integer(k)
        if i is None:
            raise InvalidSubsystemError(
                f"a subsystem entry is a name or an integer index, got {k!r}")
        out.append(i)
    if len(set(out)) != len(out):
        raise InvalidSubsystemError(f"duplicate entries in keep set {keep}")
    for i in out:
        if not 0 <= i < len(space.dims):
            raise InvalidSubsystemError(f"subsystem index {i} out of range")
    # preserve the original tensor order regardless of how keep was written
    return tuple(sorted(out))


@functools.cache
def _kept_space(space: HilbertSpace, kept: tuple[int, ...]) -> HilbertSpace:
    """The space of the ``kept`` factors of ``space``, built once per pair."""
    return HilbertSpace([space.subsystems[i] for i in kept])


# Index maps: ``flat.take(index)`` is the C-contiguous copy that
# ``flat.reshape(shape).transpose(axes).reshape(rows, -1)`` makes, so every
# BLAS/LAPACK call receives the same array. Each is built once per structure
# key (a space and a tuple of axes, never a parameter value) and is read-only.

def _index_map(shape: tuple[int, ...], axes: tuple[int, ...], rows: int) -> np.ndarray:
    index = np.arange(int(np.prod(shape)), dtype=np.intp)
    index = np.ascontiguousarray(index.reshape(shape).transpose(axes).reshape(rows, -1))
    index.setflags(write=False)
    return index


@functools.cache
def _kept_block(space: HilbertSpace, kept: tuple[int, ...]) -> np.ndarray:
    """The (dk, rest) block of a ket whose ``kept`` factors index the rows."""
    rest = tuple(i for i in range(len(space.dims)) if i not in kept)
    return _index_map(space.dims, kept + rest, _kept_space(space, kept).dim)


def _reduction(space: HilbertSpace,
               kept: tuple[int, ...]) -> tuple[HilbertSpace, np.ndarray | None]:
    """The space of the ``kept`` factors and the map of a ket's (dk, rest) block: None for
    a prefix, whose block is a view."""
    rows = None if kept == tuple(range(len(kept))) else _kept_block(space, kept)
    return _kept_space(space, kept), rows


@functools.cache
def _partial_transpose(space: HilbertSpace, part: tuple[int, ...]) -> np.ndarray:
    """The flattened density matrix with the row and column axes of ``part`` swapped."""
    n = len(space.dims)
    rows = [i + n if i in part else i for i in range(n)]
    cols = [i if i in part else i + n for i in range(n)]
    return _index_map(space.dims * 2, (*rows, *cols), space.dim)


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
        kept = _keep_positions(space, keep)
        if len(kept) == len(space.dims):
            return density(state)
        reduced, rows = _reduction(space, kept)
        return DensityOp(reduced, _reduce(state.vec, reduced, rows))

    if isinstance(state, DensityOp):
        space = state.space
        if isinstance(space, RestrictedSpace):
            raise SpaceMismatchError(
                "partial_trace of a restricted-space density matrix is not defined;"
                " embed the underlying states first"
            )
        kept = _keep_positions(space, keep)
        if len(kept) == len(space.dims):
            return DensityOp(space, state.mat.copy())
        n = len(space.dims)
        tensor = state.mat.reshape(space.dims + space.dims)
        traced = [i for i in range(n) if i not in kept]
        for offset, i in enumerate(sorted(traced, reverse=True)):
            # trace the highest remaining axis pair first so positions stay valid
            tensor = np.trace(tensor, axis1=i, axis2=i + n - offset)
        dk = int(np.prod([space.dims[i] for i in kept]))
        return DensityOp(_kept_space(space, kept), tensor.reshape(dk, dk))

    raise TypeError(f"expected State or DensityOp, got {type(state).__name__}")


def fidelity(state, target: State) -> float:
    """Overlap with a pure target: |<t|psi>|^2 for kets, <t|rho|t> for mixtures.

    Global phases never enter. The target must be normalized. Raises ``TypeError`` unless
    ``target`` is a :class:`State` and ``state`` a State or a DensityOp.
    """
    if not isinstance(target, State):
        raise TypeError(f"expected State, got {type(target).__name__}")
    if abs(target.norm() - 1.0) > 1e-9:
        raise ValueError(f"target is not normalized (norm {target.norm():.6f})")
    return overlap(state, target)


def overlap(state, target: State) -> float:
    """:func:`fidelity` without its check that ``target`` is normalized.

    For a target the package built normalized, such as each protocol's.
    """
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
    transpose = _transpose_map(space, partition)
    rho = state if isinstance(state, DensityOp) else density(state)
    return _negativity(rho.mat, transpose)


def _transpose_map(space: HilbertSpace, partition: Iterable) -> np.ndarray:
    """The partial-transpose map of ``space`` across ``partition``, both checked."""
    if space.dim > NEGATIVITY_DIM_CAP:
        raise ValueError(
            f"negativity capped at dimension {NEGATIVITY_DIM_CAP}, got {space.dim};"
            " trace out spectators first"
        )
    part = _keep_positions(space, partition)
    if not part or len(part) == len(space.dims):
        raise InvalidSubsystemError("partition must be a proper nonempty subset")
    return _partial_transpose(space, part)


# ---------------------------------------------------------------------------
# the readout: single-mode gates, post-selection, reduction
# ---------------------------------------------------------------------------

def _mode_axis(space: HilbertSpace, mode: str) -> int:
    axis = space.subsystem_index(mode)
    sub = space.subsystems[axis]
    if not sub.is_mode or sub.dim != 2:
        raise InvalidSubsystemError(
            f"{mode!r} is not a cutoff-1 boson mode; mode gates are only defined there"
        )
    return axis


def _inverse(index: np.ndarray) -> np.ndarray:
    """Where each flat index sits in ``index``: ``a.take(index).take(_inverse(index))`` is ``a``."""
    inverse = np.empty(index.size, dtype=np.intp)
    inverse[index.ravel()] = np.arange(index.size, dtype=np.intp)
    return inverse


# A post-selection whose histories' summed squared norms fall below this is refused.
ZERO_PROBABILITY_TOL = 1e-12


class ReadoutPlan:
    """The readout of kets of one space: each mode's gates, one coherent history per
    operator, post-selected unless ``outcomes`` is None (the gates hold the projections, and
    the outcomes name them when the plan refuses one), then the reduction of each history to
    the ``keep`` factors and the negativity of their sum across ``part`` of them, unless
    ``part`` is None.

    A plan holds index maps and operators, never an amplitude, and its arrays are
    read-only; build one per structure and reuse it. Its names are checked when it is
    built: no mode may repeat, and ``keep`` must leave out some factor; :meth:`read`
    checks nothing and takes the kets of its own space.
    Each kernel receives the operand that ``np.tensordot``, :func:`partial_trace` and
    :func:`negativity` give it, so the output bytes are theirs, and the tests hold a plan
    to the tensordot and transpose formulations byte for byte. Restricted kets go straight
    into the first operand, and the histories pass from one mode's operand to the next
    without the parent vector.
    """

    def __init__(self, space: HilbertSpace | RestrictedSpace,
                 gates: Sequence[tuple[str, Sequence[np.ndarray]]],
                 outcomes: Sequence[int] | None, keep: Iterable, part: Iterable | None):
        restricted = isinstance(space, RestrictedSpace)
        parent = space.parent if restricted else space
        # where a ket's coordinates sit in the first array: the first gate's operand, or
        # with no gates the parent vector
        into = np.array(space.indices, dtype=np.intp) if restricted else np.arange(space.dim)
        self._shape = (2, parent.dim // 2) if gates else (parent.dim,)
        self._ops, self._gathers, self._back = [], [], None
        axes = [_mode_axis(parent, mode) for mode, _ in gates]
        if len(set(axes)) != len(axes):  # a repeated mode would take its gate twice
            raise InvalidSubsystemError(f"repeated modes in {[mode for mode, _ in gates]}")
        for axis, (_, ops) in zip(axes, gates):
            front = _kept_block(parent, (axis,))
            inverse = _inverse(front)
            if self._back is None:
                into = inverse[into]
            # the next operand, gathered from the last result; None: the first operand
            self._gathers.append(None if self._back is None else self._back[front])
            self._ops.append(tuple(ops))
            self._back = inverse  # the last result back in parent order
        self._into = into
        self._outcomes = outcomes
        kept = _keep_positions(parent, keep)
        if len(kept) == len(parent.dims):
            raise InvalidSubsystemError("a readout must trace out some factor")
        self.space, self._rows = _reduction(parent, kept)
        self._transpose = None if part is None else _transpose_map(self.space, part)
        for array in (into, self._back, *self._gathers):
            if array is not None:
                array.setflags(write=False)

    def read(self, vec: np.ndarray) -> tuple[np.ndarray, float | None, float | None]:
        """``(rho, p, negativity)`` of the ket ``vec``, coordinates in the plan's space.

        Each history is one coherent sequence, one operator per mode, taken per mode
        operator-major; their reductions add incoherently, in order. Post-selected, the sum
        is normalized by the histories' summed squared norms ``p``, and a ``p`` below
        ``ZERO_PROBABILITY_TOL`` raises ``ValueError``; otherwise ``p`` is None. The
        negativity is that of ``rho`` across ``part``, or None.
        """
        first = np.zeros(self._shape, dtype=complex)
        first.put(self._into, vec)
        histories = [first]
        for ops, gather in zip(self._ops, self._gathers):
            operands = histories if gather is None else [h.take(gather) for h in histories]
            histories = [_gate(op, x) for op in ops for x in operands]
        if self._back is not None:
            histories = [h.take(self._back) for h in histories]
        prob = None
        if self._outcomes is not None:
            prob = sum(float(np.linalg.norm(h)) ** 2 for h in histories)
            if prob < ZERO_PROBABILITY_TOL:
                raise ValueError(
                    f"post-selection on outcome(s) {list(self._outcomes)} has probability ~0")
        mats = [_reduce(h, self.space, self._rows) for h in histories]
        rho = sum(mats[1:], start=mats[0])
        if prob is not None:
            rho = rho / prob
        return rho, prob, None if self._transpose is None else _negativity(rho, self._transpose)


# The kernels: the public functions above and ReadoutPlan make every numeric call here.

def _gate(mat: np.ndarray, operand: np.ndarray) -> np.ndarray:
    # the one np.dot that np.tensordot(mat, tensor, axes=([1], [axis])) makes, on the
    # same (2, dim / 2) operand, the mode's axis in front
    return np.dot(mat, operand)


def _reduce(vec: np.ndarray, reduced: HilbertSpace, rows: np.ndarray | None) -> np.ndarray:
    # the density matrix of the (dk, rest) block of a parent-space ket; see _reduction
    block = vec.reshape(reduced.dim, -1) if rows is None else vec.take(rows)
    return block @ block.conj().T


def _negativity(mat: np.ndarray, transpose: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(mat.take(transpose))
    return float(np.sum(np.abs(evals[evals < 0])))
