"""Eigenprojection clustering, Zeno Hamiltonians, and dark/bright bases.

Splitting a Hamiltonian as ``H_K = H_S + K * H_C`` and letting the strong
coupling ``K`` grow confines the dynamics to the eigenspaces of ``H_C``:
writing ``H_C = sum_n E_n P_n`` over clustered eigenprojections, the dynamics
approaches ``exp(-i t sum_n (K E_n P_n + P_n H_S P_n))``. The functions here
build that decomposition numerically and, for the single-excitation sectors
of this system, construct the zero-eigenvalue (dark) states in closed form.

Dark states are exact and analytic; bright states come from the numeric
eigensolver because the closed forms quoted for them in the source material
are not normalized consistently (:func:`printed_bright_forms` keeps the
literal versions so reports can quantify the mismatch).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

from .model import Branch, BranchModel, UniformParams, _sector
from .spaces import InvalidSubsystemError, RestrictedSpace, require_hermitian

SPECTRAL_TOL = 1e-9

# fraction of the spectral radius used as the default clustering width
DEFAULT_CLUSTER_FRACTION = 1e-6


class ClusterAmbiguityError(ValueError):
    """Eigenvalue spacing is comparable to the clustering width."""


class DegenerateStructureError(ValueError):
    """Analytic dark/bright structure needs g > 0 and lam > 0."""


# workspace arguments of each driver, in the order its size query returns them
_WORKSPACE = {"syevr": ("lwork", "liwork"), "heevr": ("lwork", "lrwork", "liwork")}


@functools.cache
def _evr(dtype: np.dtype, n: int):
    """The LAPACK driver ``scipy.linalg.eigh`` picks for ``dtype``, and its workspace for ``n``."""
    name = ("he" if dtype.kind == "c" else "sy") + "evr"
    driver, query = get_lapack_funcs((name, name + "_lwork"), [np.empty((0, 0), dtype)])
    return driver, dict(zip(_WORKSPACE[name], _compute_lwork(query, n=n, lower=True)))


def _eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh(h)`` of one matrix, minus its per-call set-up.

    The same driver (``syevr``/``heevr``, lower triangle, vectors on) with the
    same workspace sizes, so every output byte is the same; the driver lookup
    and the workspace query are cached per (dtype, n). The input checks and
    their errors are those of ``scipy.linalg.eigh``.
    """
    a = np.asarray_chkfinite(h)  # ValueError on inf or nan
    if a.dtype == object:
        raise ValueError("object arrays are not supported")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError('expected square "a" matrix')
    n = a.shape[0]
    driver, workspace = _evr(a.dtype, n)
    if n == 0:
        return np.empty(0, driver.dtype.char.lower()), np.empty((0, 0), driver.dtype)
    w, v, *_, info = driver(a=a, overwrite_a=False, lower=True, compute_v=1, **workspace)
    if info != 0:
        raise LinAlgError(f"{driver.__name__} failed with info = {info}")
    return w, v


@dataclass(frozen=True, eq=False)
class ZenoDecomposition:
    """Clustered eigenprojections ``H = sum_n E_n P_n`` of a hermitian matrix."""

    eigenvalues: np.ndarray          # one representative per cluster, ascending
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]
    width: float

    def projector_near(self, value: float) -> np.ndarray:
        """The cluster projector whose eigenvalue is closest to ``value``."""
        i = int(np.argmin(np.abs(self.eigenvalues - value)))
        if abs(self.eigenvalues[i] - value) > max(10 * self.width, SPECTRAL_TOL):
            raise ValueError(
                f"no cluster near {value}; cluster eigenvalues are {self.eigenvalues}"
            )
        return self.projectors[i]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0])
        for e, p in zip(self.eigenvalues, self.projectors):
            out = out + e * p
        return out


def decompose(h_c: np.ndarray, cluster_width: float | None = None) -> ZenoDecomposition:
    """Eigendecompose ``h_c`` and merge eigenvalues closer than the width.

    The default width is ``1e-6`` times the spectral radius. Distinct clusters
    must be separated by at least twice the width, otherwise the grouping is
    ambiguous and a :class:`ClusterAmbiguityError` is raised.
    """
    h_c = np.asarray(h_c)
    if h_c.size == 0:
        raise ValueError(f"H_C must be a nonempty matrix, got shape {h_c.shape}")
    require_hermitian(h_c, what="H_C")
    evals, evecs = _eigh(h_c)
    radius = float(np.max(np.abs(evals)))
    if cluster_width is None:
        cluster_width = DEFAULT_CLUSTER_FRACTION * radius
    if cluster_width < 0:
        raise ValueError("cluster_width must be >= 0")

    groups: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][-1]] <= cluster_width:
            groups[-1].append(i)
        else:
            groups.append([i])
    for a, b in zip(groups, groups[1:]):
        gap = evals[b[0]] - evals[a[-1]]
        if gap < 2 * cluster_width:
            raise ClusterAmbiguityError(
                f"cluster gap {gap:.3e} is below twice the clustering width "
                f"{cluster_width:.3e}; choose the width explicitly"
            )

    reps, projs, mults = [], [], []
    for g in groups:
        reps.append(float(np.mean(evals[g])))
        v = evecs[:, g]
        projs.append(v @ v.conj().T)
        mults.append(len(g))
    return ZenoDecomposition(np.array(reps), tuple(projs), tuple(mults),
                             float(cluster_width))


def zeno_hamiltonian(dec: ZenoDecomposition, h_s: np.ndarray) -> np.ndarray:
    """Block-diagonal part of ``h_s`` over the cluster projectors."""
    h_s = np.asarray(h_s)
    require_hermitian(h_s, what="H_S")
    out = np.zeros_like(h_s, dtype=complex)
    for p in dec.projectors:
        out += p @ h_s @ p
    return out


# ---------------------------------------------------------------------------
# dark / bright structure of the single-excitation sectors
# ---------------------------------------------------------------------------

def predicted_strong_spectrum(params: UniformParams, branch: Branch = Branch.LEFT) -> np.ndarray:
    """Closed-form eigenvalues {0,0,0,+g,-g,+g*chi,-g*chi} (doubled if combined)."""
    if params.g <= 0 or params.lam <= 0:
        raise DegenerateStructureError("spectrum formula needs g > 0 and lam > 0")
    gx = params.g * params.chi()
    one = [0.0, 0.0, 0.0, params.g, -params.g, gx, -gx]
    return np.sort(np.array(one * len(Branch(branch).sectors)))


@dataclass(frozen=True, eq=False)
class DarkBrightBasis:
    """Dark and bright states of a branch in restricted coordinates.

    ``dark`` columns are the analytic zero-eigenvalue states (seed state,
    transferred state, delocalized superposition). ``bright`` columns are
    numeric eigenvectors of the strong restricted Hamiltonian, ordered by the
    eigenvalues in ``bright_eigenvalues`` (+g, -g, +g*chi, -g*chi; the
    combined branch carries the balanced two-sector combinations).
    """

    branch: Branch
    restricted: RestrictedSpace
    chi: float
    dark: np.ndarray
    bright: np.ndarray
    bright_eigenvalues: tuple[float, ...]


def _sector_positions(model: BranchModel, sector: Branch) -> tuple[int, ...]:
    """Restricted indices of ``sector``'s seven chain states, in chain order."""
    try:
        return _sector(model.branch, model.space).positions[sector]
    except KeyError:
        raise InvalidSubsystemError(
            f"the {sector} chain is not in the {model.branch} sector") from None


def _dark_columns(model: BranchModel, branch: Branch) -> np.ndarray:
    """Analytic dark columns of ``branch`` in the model's restricted coordinates.

    For the combined branch these are the balanced sums (left + right)/sqrt(2).
    """
    params = model.params
    lam_over = params.lam / (params.g * params.chi())
    cols = np.zeros((model.dim, 3))
    for sector in branch.sectors:
        positions = _sector_positions(model, sector)
        cols[positions[0], 0] = 1.0
        cols[positions[6], 1] = 1.0
        cols[positions[1], 2] = lam_over
        cols[positions[3], 2] = -1.0 / params.chi()
        cols[positions[5], 2] = lam_over
    return cols / math.sqrt(len(branch.sectors))


def _numeric_bright_block(block: np.ndarray, g: float, chi: float) -> np.ndarray:
    evals, evecs = _eigh(block)
    targets = (g, -g, g * chi, -g * chi)
    scale = max(abs(v) for v in targets)
    cols = []
    for t in targets:
        i = int(np.argmin(np.abs(evals - t)))
        if abs(evals[i] - t) > SPECTRAL_TOL * max(1.0, scale):
            raise DegenerateStructureError(
                f"no isolated eigenvalue near {t:.6g}; spectrum is {evals}"
            )
        v = evecs[:, i]
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot] / abs(v[pivot])
        cols.append(v / phase)  # deterministic sign convention
    return np.column_stack(cols)


def sector_dark_columns(model: BranchModel, sector: Branch) -> np.ndarray:
    """Analytic dark columns of one sector, embedded in restricted coordinates."""
    if sector == Branch.COMBINED:
        raise ValueError("pick one sector; the combined basis lives in analytic_dark_bright")
    return _dark_columns(model, sector)


def analytic_dark_bright(model: BranchModel) -> DarkBrightBasis:
    """Dark states in closed form, bright states from the eigensolver."""
    params = model.params
    if params.g <= 0 or params.lam <= 0:
        raise DegenerateStructureError("dark/bright structure needs g > 0 and lam > 0")
    chi = params.chi()
    dark = _dark_columns(model, model.branch)
    bright = np.zeros((model.dim, 4))
    sectors = model.branch.sectors
    for sector in sectors:
        pos = _sector_positions(model, sector)
        block = _numeric_bright_block(model.strong[np.ix_(pos, pos)], params.g, chi)
        bright[pos, :] = block / math.sqrt(len(sectors))

    gx = params.g * chi
    return DarkBrightBasis(
        branch=model.branch,
        restricted=model.restricted,
        chi=chi,
        dark=dark,
        bright=bright,
        bright_eigenvalues=(params.g, -params.g, gx, -gx),
    )


def printed_bright_forms(params: UniformParams) -> np.ndarray:
    """The literal closed-form bright states, normalized, in sector coordinates.

    These are kept only for comparison reports: their quoted prefactors are
    mutually inconsistent (the first two columns are genuine eigenvectors,
    the last two are not), which is why :func:`analytic_dark_bright` takes
    bright states from the eigensolver instead.
    """
    if params.g <= 0 or params.lam <= 0:
        raise DegenerateStructureError("bright forms need g > 0 and lam > 0")
    chi = params.chi()
    ratio = params.lam / params.g
    cols = np.zeros((7, 4))
    cols[[1, 2, 4, 5], 0] = [-0.5, -0.5, 0.5, 0.5]
    cols[[1, 2, 4, 5], 1] = [-0.5, 0.5, -0.5, 0.5]
    cols[[1, 2, 3, 4, 5], 2] = [1.0, chi, ratio, -chi, 1.0]
    cols[[1, 2, 3, 4, 5], 3] = [1.0, -chi, ratio, -chi, 1.0]
    return cols / np.linalg.norm(cols, axis=0)


def bright_comparison(model: BranchModel, sector: Branch) -> list[tuple[float, float]]:
    """Per bright state: (eigenvalue, |<printed form|numeric eigenvector>|^2).

    Quantifies how far the literal closed forms are from the true
    eigenvectors; the first two overlaps are 1, the last two are not.
    """
    if sector == Branch.COMBINED:
        raise ValueError("bright comparison is defined per sector")
    params = model.params
    pos = _sector_positions(model, sector)
    numeric = _numeric_bright_block(
        model.strong[np.ix_(pos, pos)], params.g, params.chi()
    )
    printed = printed_bright_forms(params)[1:6, :]  # chain interior only
    out = []
    gx = params.g * params.chi()
    for i, e in enumerate((params.g, -params.g, gx, -gx)):
        ov = abs(np.vdot(printed[:, i], numeric[1:6, i])) ** 2
        out.append((float(e), float(ov)))
    return out


def principal_angles(basis: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """Angles between span(basis columns) and the range of a projector.

    Computed from projector residuals, ``theta_i = arcsin ||(1 - P) q_i||``
    over an orthonormalization of the basis; near zero angles this is exact
    to machine precision where the SVD-cosine form is not.
    """
    q, _ = np.linalg.qr(np.asarray(basis, dtype=complex))
    res = q - projector @ q
    sines = np.clip(np.linalg.norm(res, axis=0), 0.0, 1.0)
    return np.arcsin(sines)
