"""Oracles the tests hold the package to, each derived independently of it.

The Zeno limit follows Facchi & Pascazio, PRL 89, 080401 (2002).
"""

import functools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import expm_multiply

import zenocavity as zc
from zenocavity.model import LAYOUT
from zenocavity.protocols import ZERO_PROBABILITY_TOL
from zenocavity.spaces import apply_on_mode, overlap


def chain_hamiltonian(params: zc.UniformParams, branch: zc.Branch) -> np.ndarray:
    """Hand-written 7x7 tridiagonal block of one single-excitation sector.

    Couplings along the chain are (omega1, g, lam, lam, g, omega2 or omega3).
    """
    if branch == zc.Branch.LEFT:
        tail = params.omega2
    elif branch == zc.Branch.RIGHT:
        tail = params.omega3
    else:
        raise ValueError("chain_hamiltonian is defined per polarization branch")
    c = (params.omega1, params.g, params.lam, params.lam, params.g, tail)
    h = np.zeros((7, 7))
    for i, v in enumerate(c):
        h[i, i + 1] = h[i + 1, i] = v
    return h


def occupation(space: zc.HilbertSpace, index: int) -> tuple[int, ...]:
    """The occupation tuple of a basis index: its mixed-radix digits over ``space.dims``."""
    return tuple(int(n) for n in np.unravel_index(index, space.dims))


def excitation_number(space: zc.HilbertSpace) -> np.ndarray:
    """Diagonal of the conserved excitation counter.

    Photons count 1 each; atomic ``e``/``f`` levels count 1, ``g`` levels 0.
    The first factor is the most significant index, as in the space itself.
    """
    weights = [np.arange(sub.dim, dtype=float) if sub.is_mode
               else np.array([0.0 if lv.startswith("g") else 1.0 for lv in sub.levels])
               for sub in space.subsystems]
    return functools.reduce(lambda acc, w: np.add.outer(acc, w).ravel(), weights)


def number_commutator_maxabs(h, number_diag: np.ndarray) -> float:
    """max |[H, N]_ij| for diagonal N, without forming the commutator."""
    coo = sp.coo_matrix(h)
    if coo.nnz == 0:
        return 0.0
    return float(np.max(np.abs(coo.data * (number_diag[coo.row] - number_diag[coo.col]))))


def cluster_sum(dec: zc.ZenoDecomposition) -> np.ndarray:
    """``sum_n E_n P_n``: the matrix a clustered decomposition stands for."""
    return sum(e * p for e, p in zip(dec.eigenvalues, dec.projectors))


def limiting_generator(dec: zc.ZenoDecomposition, h_s: np.ndarray,
                       coupling: float) -> np.ndarray:
    """Generator of the large-coupling limit: ``sum_n (K E_n P_n + P_n H_S P_n)``."""
    out = zc.zeno_hamiltonian(dec, h_s)
    for e, p in zip(dec.eigenvalues, dec.projectors):
        out += coupling * e * p
    return out


def dark_projector_residual(basis: zc.DarkBrightBasis, strong: np.ndarray) -> np.ndarray:
    """Norms ||H_strong . D_i|| for each analytic dark column."""
    return np.linalg.norm(strong @ basis.dark, axis=0)


def reduced_density(state: zc.State, kept: tuple[int, ...]) -> np.ndarray:
    """``Tr_rest |psi><psi|`` with the kept factors transposed to the front of the ket tensor.

    ``kept`` lists factor positions in tensor order.
    """
    state = zc.embed(state)
    dims = state.space.dims
    perm = list(kept) + [i for i in range(len(dims)) if i not in kept]
    dk = int(np.prod([dims[i] for i in kept]))
    block = state.vec.reshape(dims).transpose(perm).reshape(dk, -1)
    return block @ block.conj().T


def partial_transpose(rho: zc.DensityOp, part: tuple[int, ...]) -> np.ndarray:
    """``rho`` with the row and column axes of the ``part`` factors swapped."""
    dims = rho.space.dims
    n = len(dims)
    tensor = rho.mat.reshape(dims + dims).transpose(
        [i + n if i in part else i for i in range(n)]
        + [i - n if (i - n) in part else i for i in range(n, 2 * n)])
    return tensor.reshape(rho.space.dim, rho.space.dim)


def negativity(rho: zc.DensityOp, part: tuple[int, ...]) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over ``part``."""
    evals = np.linalg.eigvalsh(partial_transpose(rho, part))
    return float(np.sum(np.abs(evals[evals < 0])))


# each sector's cavity-B atom and fiber mode, spelled out here rather than read from the code
_SECTOR_ENDS = {zc.Branch.LEFT: ("b", "F_l"), zc.Branch.RIGHT: ("c", "F_r")}
# the gate on each fiber mode, one coherent history per operator: the literal Hadamard, or a
# splitter against a vacuum ancilla whose output port is not seen (photon kept or leaked)
_FIBER_KRAUS = {
    zc.GateConvention.UNITARY: (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),),
    zc.GateConvention.BEAMSPLITTER: (np.array([[1.0, 0.0], [0.0, -1.0 / np.sqrt(2.0)]]),
                                     np.array([[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0]])),
}


def two_pass_readout(state: zc.State, modes: list[str], keep: tuple[str, ...],
                     interpretation: zc.Interpretation, outcome, convention: zc.GateConvention):
    """``hadamard_and_reduce`` as two walks over the modes: every history through each
    mode's gate, then every history through each mode's projector on its Fock outcome.
    ``outcome`` is one int for every mode or a tuple with one per mode.
    """
    outcomes = list(outcome) if isinstance(outcome, tuple) else [outcome] * len(modes)
    branches = [zc.embed(state)]
    for mode in modes:
        branches = [apply_on_mode(b, mode, op) for op in _FIBER_KRAUS[convention]
                    for b in branches]
    prob = None
    if interpretation == zc.Interpretation.POSTSELECT:
        for mode, o in zip(modes, outcomes):
            branches = [apply_on_mode(b, mode, np.diag(np.eye(2)[o])) for b in branches]
        prob = sum(b.norm() ** 2 for b in branches)
        if prob < ZERO_PROBABILITY_TOL:
            raise ValueError(f"post-selection on outcome(s) {outcomes} has probability ~0")
    reduced = [zc.partial_trace(b, keep) for b in branches]
    rho = sum((r.mat for r in reduced[1:]), start=reduced[0].mat)
    if prob is not None:
        rho = rho / prob
    return zc.DensityOp(reduced[0].space, rho), prob


# The targets as the paper writes them, from literal level names. Per sector: its level
# suffix, its cavity-B atom, and the other cavity-B atom with the level it rests in.
_SECTOR_LEVELS = {zc.Branch.LEFT: ("l", "b", {"c": "g_r"}),
                  zc.Branch.RIGHT: ("r", "c", {"b": "g_l"})}


def _ket(space: zc.HilbertSpace, sector: zc.Branch, **levels) -> zc.State:
    """A ket of ``space`` in one sector: atoms not named rest in ``g``, modes are empty."""
    pol, atom, other = _SECTOR_LEVELS[sector]
    names = {sub.name for sub in space.subsystems}
    assigned = {"a": f"g_{pol}", atom: f"g_{pol}", **other, **levels}
    return space.ket(**{name: value for name, value in assigned.items() if name in names})


def paper_target(spec: zc.ProtocolSpec, space: zc.HilbertSpace) -> zc.State:
    """The state ``spec``'s protocol aims at, on ``space``: the full register for
    ``state_transfer``, ``swap`` and ``ghz``, the register's atoms for the others.

    Per sector, before the sectors are summed with equal weight and normalized:

    - D1, the transferred state (``swap``, and ``ghz`` over both sectors): atom
      ``a`` in ``g`` and the cavity-B atom in ``f``;
    - D2, the delocalized dark state (``state_transfer``): the null vector
      ``lam (|e>_a + |e>_B) - g |1>_F`` of the strong couplings;
    - Bell: ``|e g> + |g e>`` on ``a`` and the cavity-B atom;
    - threedim: ``|e g> - |g g> + |g e>`` (and ``sixdim`` over both sectors).
    """
    p, protocol = spec.params, spec.protocol
    kets = []
    for sector in spec.branch.sectors:
        pol, atom, _ = _SECTOR_LEVELS[sector]
        e, f = f"e_{pol}", f"f_{pol}"
        if protocol in (zc.Protocol.SWAP, zc.Protocol.GHZ):
            kets.append(_ket(space, sector, **{atom: f}))
        elif protocol == zc.Protocol.STATE_TRANSFER:
            emitted = _ket(space, sector, a=e) + _ket(space, sector, **{atom: e})
            kets.append(emitted * p.lam + _ket(space, sector, **{f"F_{pol}": 1}) * -p.g)
        else:
            kets += [_ket(space, sector, a=e), _ket(space, sector, **{atom: e})]
            if protocol != zc.Protocol.BELL:
                kets.append(_ket(space, sector) * -1.0)
    target = sum(kets[1:], start=kets[0])
    return target * (1.0 / target.norm())


def _on_axis(op: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """``op`` applied along one axis of the ket tensor."""
    return np.moveaxis(np.tensordot(op, tensor, axes=([1], [axis])), 0, axis)


def full_space_protocol(spec: zc.ProtocolSpec, tau: float) -> tuple:
    """``(fidelity, negativity, success_probability)`` of ``spec`` on the full-engine path,
    run in the whole 3456-dimensional space without restriction, embedding or cached maps.

    The pulse is ``expm_multiply`` of the full Hamiltonian on the seed; the gates and
    projectors act by ``np.tensordot`` on the nine-axis ket tensor; the atoms are kept
    by transposing them to the front. Each score is against :func:`paper_target`.
    Entries a protocol does not report are None.
    """
    space = zc.full_space(1)
    h = zc.build_hamiltonian(spec.params, space).total
    psi = expm_multiply(-1j * tau * h, zc.initial_state(space, spec.branch).vec)
    sectors = spec.branch.sectors
    names = [sub.name for sub in space.subsystems]
    atoms = tuple(sorted(names.index(x) for x in ("a", *(_SECTOR_ENDS[s][0] for s in sectors))))
    atom_space = zc.HilbertSpace([space.subsystems[i] for i in atoms])

    def reduce(vec):
        return reduced_density(zc.State(space, vec), atoms)

    def atom_negativity(rho):
        return negativity(zc.DensityOp(atom_space, rho), (0,))

    protocol = spec.protocol
    if protocol in (zc.Protocol.STATE_TRANSFER, zc.Protocol.SWAP, zc.Protocol.GHZ):
        f = abs(np.vdot(paper_target(spec, space).vec, psi)) ** 2
        return f, atom_negativity(reduce(psi)) if protocol == zc.Protocol.GHZ else None, None
    target = paper_target(spec, atom_space)
    if protocol == zc.Protocol.BELL:
        rho = reduce(psi)
        return float(np.real(np.vdot(target.vec, rho @ target.vec))), atom_negativity(rho), None

    # threedim and sixdim: the gate on each sector's fiber mode, then the reduction
    ops = _FIBER_KRAUS[spec.convention]
    if spec.interpretation == zc.Interpretation.POSTSELECT:  # the gate, then |o><o|
        ops = [np.diag(np.eye(2)[spec.outcome]) @ k for k in ops]
    histories = [psi.reshape(space.dims)]
    for sector in sectors:
        axis = names.index(_SECTOR_ENDS[sector][1])
        histories = [_on_axis(op, t, axis) for op in ops for t in histories]
    rho = sum(reduce(t.ravel()) for t in histories)
    p = None
    if spec.interpretation == zc.Interpretation.POSTSELECT:
        p = float(np.real(np.trace(rho)))
        rho = rho / p if p else rho  # an outcome that cannot occur keeps its zero state
    return float(np.real(np.vdot(target.vec, rho @ target.vec))), atom_negativity(rho), p


def pulse_time(params: zc.UniformParams, sector: zc.Branch, end: int, arrival: int) -> float:
    """The time of the ``arrival``-th peak of the weight on dark state ``end`` (1 for D1,
    2 for D2) as D0 evolves under ``exp(-i M t)``, ``M`` the sector's 3x3 effective matrix.

    A forward scan on a grid finds the peak; a bounded scalar minimization then puts it
    where the weight's time derivative vanishes. The derivative, unlike the weight, is not
    flat to float precision at the peak, so the time comes out near float precision.
    """
    m = zc.effective_matrix(params, sector)
    # a weight oscillates no faster than 2 ||M||: 128 samples per half period of that
    dt = np.pi / (128 * np.linalg.norm(m, 2))

    def slope_squared(t):
        psi = expm(-1j * t * m)[:, 0]
        return (2 * np.imag(np.conj(psi[end]) * (m @ psi)[end])) ** 2

    step, psi = expm(-1j * dt * m), np.array([1.0, 0.0, 0.0], dtype=complex)
    weights, peaks = [0.0], 0
    while peaks < arrival:
        psi = step @ psi
        weights.append(abs(psi[end]) ** 2)
        if len(weights) >= 3 and weights[-3] < weights[-2] >= weights[-1]:
            peaks += 1
    t = (len(weights) - 2) * dt
    found = minimize_scalar(lambda s: slope_squared(t + s), bounds=(-dt, dt),
                            method="bounded", options={"xatol": 1e-14 * dt})
    return t + found.x


# ---------------------------------------------------------------------------
# run() as a composition of the public readout functions
# ---------------------------------------------------------------------------

_PI_PULSE = (zc.Protocol.SWAP, zc.Protocol.GHZ)  # the others end on a half-pi pulse
_ONE_DRIVE = (zc.Protocol.STATE_TRANSFER, zc.Protocol.THREE_DIM, zc.Protocol.BELL,
              zc.Protocol.SIX_DIM)


def _reference_flags(spec: zc.ProtocolSpec) -> list[str]:
    """The regime flags of ``spec``, one ``if`` per protocol assumption."""
    p = spec.params
    flags = []
    r = zc.zeno_ratio(p)
    if r > 0.1:
        flags.append(f"zeno ratio {r:.3g} above 0.1; dark-sector picture degrades")
    if spec.protocol == zc.Protocol.BELL and p.g / p.lam > 0.2:
        flags.append(f"bell regime wants g << lam; g/lam = {p.g / p.lam:.3g}")
    if spec.protocol in (zc.Protocol.THREE_DIM, zc.Protocol.SIX_DIM) and not math.isclose(
            p.g, p.lam, rel_tol=1e-12):
        flags.append("equal couplings g = lam assumed by this protocol")
    drives = [LAYOUT[sector].drive for sector in spec.branch.sectors]
    if spec.protocol == zc.Protocol.SWAP and not math.isclose(
            p.omega1, getattr(p, drives[0]), rel_tol=1e-12):
        flags.append("swap assumes equal drives on both atoms")
    if spec.protocol in _ONE_DRIVE and any(getattr(p, drive) != 0 for drive in drives):
        flags.append(f"{spec.protocol} assumes {' = '.join(drives)} = 0")
    if spec.protocol == zc.Protocol.GHZ and not (
            math.isclose(p.omega1, p.omega2, rel_tol=1e-12)
            and math.isclose(p.omega2, p.omega3, rel_tol=1e-12)):
        flags.append("ghz assumes omega1 = omega2 = omega3")
    if spec.protocol in _PI_PULSE and spec.k % 2 == 0:
        flags.append("even k: the pi pulse returns the initial state")
    return flags


def _reference_target(spec: zc.ProtocolSpec, model: zc.BranchModel) -> zc.State:
    """The target ket: a dark column of the sector, or the atom state built level by level."""
    if spec.protocol in (zc.Protocol.STATE_TRANSFER, zc.Protocol.SWAP, zc.Protocol.GHZ):
        col = 2 if spec.protocol == zc.Protocol.STATE_TRANSFER else 1
        return zc.State(model.restricted, model.dark[model.branch][:, col].astype(complex))
    signs = (1, 0, 1) if spec.protocol == zc.Protocol.BELL else (1, -1, 1)
    atoms = ("a", *(LAYOUT[sector].atom for sector in spec.branch.sectors))
    atom_space = zc.HilbertSpace([sub for sub in model.space.subsystems if sub.name in atoms])
    rest = {LAYOUT[sector].atom: LAYOUT[sector].level("g") for sector in spec.branch.sectors}
    terms = []
    for sector in spec.branch.sectors:
        layout = LAYOUT[sector]
        e, g = layout.level("e"), layout.level("g")
        for sign, (level_a, level_b) in zip(signs, ((e, g), (g, g), (g, e))):
            if sign:
                terms.append(sign * atom_space.ket(**{**rest, "a": level_a, layout.atom: level_b}))
    return sum(terms[1:], start=terms[0]) * (1 / math.sqrt(len(terms)))


def reference_run(spec: zc.ProtocolSpec, model: zc.BranchModel | None = None):
    """``run(spec, model)`` as the package wrote it with one branch per protocol: a fresh
    :class:`Propagator` for the engine, then :func:`two_pass_readout` on the fiber modes
    and the public ``partial_trace``, ``negativity`` and ``overlap``."""
    if model is None:
        model = zc.build_branch_model(spec.params, spec.branch)
    elif model.params != spec.params or model.branch != spec.branch:
        raise ValueError("supplied model does not match the protocol spec")
    pulse = zc.PI if spec.protocol in _PI_PULSE else zc.HALF_PI
    tau = zc.solve_timing(spec.params, spec.branch, pulse, spec.k)
    flags = _reference_flags(spec)

    effective = spec.engine == zc.Engine.EFFECTIVE
    propagator = zc.Propagator(zc.effective_generator(model) if effective else model.total)
    psi = zc.State(model.restricted, propagator.apply(model.seed().vec, tau))
    flags += propagator.flags(tau)
    target = _reference_target(spec, model)

    atoms = ("a", *(LAYOUT[sector].atom for sector in spec.branch.sectors))
    final = psi
    prob = neg = None
    if spec.protocol in (zc.Protocol.THREE_DIM, zc.Protocol.SIX_DIM):
        modes = [LAYOUT[sector].mode("F") for sector in spec.branch.sectors]
        final, prob = two_pass_readout(psi, modes, atoms, spec.interpretation, spec.outcome,
                                       spec.convention)
    elif spec.protocol == zc.Protocol.BELL:
        final = zc.partial_trace(psi, atoms)
    if spec.protocol not in (zc.Protocol.STATE_TRANSFER, zc.Protocol.SWAP):
        reduced = final if isinstance(final, zc.DensityOp) else zc.partial_trace(psi, atoms)
        neg = zc.negativity(reduced, ("a",))

    return zc.ProtocolResult(
        spec=spec,
        tau=float(tau),
        fidelity=overlap(final, target),
        success_probability=None if prob is None else float(prob),
        negativity=None if neg is None else float(neg),
        flags=tuple(flags),
        final_state=final,
        target=target,
    )
