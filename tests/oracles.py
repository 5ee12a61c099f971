"""Oracles the tests hold the package to, each derived independently of it.

The Zeno limit follows Facchi & Pascazio, PRL 89, 080401 (2002).
"""

import functools

import numpy as np
import scipy.sparse as sp

import zenocavity as zc
from zenocavity.model import CouplingTerm, coupling_terms


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


def excitation_number(space: zc.HilbertSpace) -> np.ndarray:
    """Diagonal of the conserved excitation counter.

    Photons count 1 each; atomic ``e``/``f`` levels count 1, ``g`` levels 0.
    The first factor is the most significant index, as in the space itself.
    """
    weights = [np.arange(sub.dim, dtype=float) if sub.is_mode
               else np.array([0.0 if lv.startswith("g") else 1.0 for lv in sub.levels])
               for sub in space.subsystems]
    return functools.reduce(lambda acc, w: np.add.outer(acc, w).ravel(), weights)


def kron_chain(term: CouplingTerm, space: zc.HilbertSpace) -> sp.csr_matrix:
    """``coeff * kron(O_1, ..., O_n)``: one ``sp.kron`` per factor, identities filled in."""
    local = dict(term.factors)
    out = sp.identity(1, format="csr")
    for sub in space.subsystems:
        m = local.get(sub.name)
        factor = sp.csr_matrix(m) if m is not None else sp.identity(sub.dim, format="csr")
        out = sp.kron(out, factor, format="csr")
    return term.coeff * out


def kron_hamiltonian(params: zc.UniformParams, space: zc.HilbertSpace) -> dict:
    """The five parts of ``build_hamiltonian`` as running CSR sums of Kronecker chains."""
    terms = coupling_terms(params, space)
    parts = {}
    for name in ("cavity", "fiber", "drive"):
        acc = sp.csr_matrix((space.dim, space.dim))
        for term in terms:
            if term.part == name:
                m = kron_chain(term, space)
                acc = acc + m + m.conj().T
        parts[name] = acc
    parts["strong"] = parts["cavity"] + parts["fiber"]
    parts["total"] = parts["strong"] + parts["drive"]
    return parts


def number_commutator_maxabs(h, number_diag: np.ndarray) -> float:
    """max |[H, N]_ij| for diagonal N, without forming the commutator."""
    coo = sp.coo_matrix(h)
    if coo.nnz == 0:
        return 0.0
    return float(np.max(np.abs(coo.data * (number_diag[coo.row] - number_diag[coo.col]))))


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
