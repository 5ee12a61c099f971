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
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises too

from .model import Branch, BranchModel, UniformParams
from .spaces import InvalidSubsystemError, require_hermitian

SPECTRAL_TOL = 1e-9

# fraction of the spectral radius used as the default clustering width
DEFAULT_CLUSTER_FRACTION = 1e-6


class ClusterAmbiguityError(ValueError):
    """Eigenvalue spacing is comparable to the clustering width."""


class DegenerateStructureError(ValueError):
    """No analytic dark/bright structure: g or lam is not > 0, or two bright
    energies name one eigenvector, being closer than the eigensolver resolves."""


# workspace arguments of each driver, in the order its size query returns them
_WORKSPACE = {"dsyevr": ("lwork", "liwork"), "zheevr": ("lwork", "lrwork", "liwork")}


@functools.cache
def _flapack():
    """scipy's Fortran LAPACK extension, without importing ``scipy.linalg``.

    The extension needs only numpy, so it is loaded from its file under its own
    name (its init symbol is ``PyInit__flapack``) and then dropped from
    ``sys.modules``, where a later ``import scipy.linalg`` loads its own copy.
    Once ``scipy.linalg`` is loaded, or if scipy or the file is not found, this
    is a plain import.
    """
    name = "scipy.linalg._flapack"
    package = importlib.util.find_spec("scipy")  # finds scipy without running its __init__
    if "scipy.linalg" not in sys.modules and package is not None:
        finder = importlib.machinery.FileFinder(  # find_spec(name) imports scipy.linalg
            os.path.join(package.submodule_search_locations[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    from scipy.linalg import _flapack
    return _flapack


@functools.cache
def _evr(driver: str, n: int):
    """The LAPACK routine ``driver`` (``dsyevr`` or ``zheevr``) and its ``n`` workspace, sized as
    ``scipy.linalg.lapack._compute_lwork`` sizes a double-precision query: truncated, and
    within LAPACK's 32-bit integers.
    """
    lapack = _flapack()
    *sizes, info = getattr(lapack, driver + "_lwork")(n=n, lower=True)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    workspace = {}
    for key, size in zip(_WORKSPACE[driver], sizes):
        size = int(size.real)
        if not 0 <= size <= np.iinfo(np.int32).max:
            raise ValueError("Too large work array required -- computation cannot be "
                             "performed with standard 32-bit LAPACK.")
        workspace[key] = size
    return getattr(lapack, driver), workspace


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh(h)`` of one matrix in double precision, minus its per-call set-up.

    A real matrix goes to ``dsyevr`` and a complex one to ``zheevr`` (lower triangle, vectors
    on), the drivers ``scipy.linalg.eigh`` picks for float64 and complex128, with the same
    workspace sizes, so for those dtypes every output byte is the same. Any other dtype is cast
    to float64 or complex128 first. The lookup and the workspace query are cached per (driver,
    n). The input checks and their errors are those of ``scipy.linalg.eigh``.
    """
    a = np.asarray_chkfinite(h)  # ValueError on inf or nan
    if a.dtype == object:
        raise ValueError("object arrays are not supported")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError('expected square "a" matrix')
    a = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64, copy=False)
    routine, workspace = _evr("zheevr" if a.dtype.kind == "c" else "dsyevr", len(a))
    if len(a) == 0:
        return np.empty(0), np.empty((0, 0), a.dtype)
    w, v, *_, info = routine(a=a, overwrite_a=False, lower=True, compute_v=1, **workspace)
    if info != 0:
        raise LinAlgError(f"{routine.__name__} failed with info = {info}")
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
    evals, evecs = eigh(h_c)
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

def _bright_energies(params: UniformParams) -> tuple[float, float, float, float]:
    """The bright eigenvalues of one sector, in bright-column order: +g, -g, +g*chi, -g*chi."""
    gx = params.g * params.chi()
    return (params.g, -params.g, gx, -gx)


def predicted_strong_spectrum(params: UniformParams, branch: Branch = Branch.LEFT) -> np.ndarray:
    """Closed-form eigenvalues {0,0,0,+g,-g,+g*chi,-g*chi} (doubled if combined)."""
    if params.g <= 0 or params.lam <= 0:
        raise DegenerateStructureError("spectrum formula needs g > 0 and lam > 0")
    one = [0.0, 0.0, 0.0, *_bright_energies(params)]
    return np.sort(np.array(one * len(Branch(branch).sectors)))


@dataclass(frozen=True, eq=False)
class DarkBrightBasis:
    """Dark and bright states of a branch in restricted coordinates.

    ``dark`` columns are the analytic zero-eigenvalue states (seed state,
    transferred state, delocalized superposition). ``bright`` columns are
    numeric eigenvectors of the strong restricted Hamiltonian, ordered by the
    eigenvalues in ``bright_eigenvalues`` (+g, -g, +g*chi, -g*chi; the
    combined branch carries the balanced two-sector combinations), each with
    the sign the eigensolver gives it.
    ``printed_overlaps[sector]`` holds, in the same order, each
    ``|<printed form|numeric eigenvector>|^2`` over the sector's chain interior
    (:func:`printed_bright_forms`): the first two are 1, the last two are not.
    """

    dark: np.ndarray
    bright: np.ndarray
    bright_eigenvalues: tuple[float, ...]
    printed_overlaps: Mapping[Branch, tuple[float, ...]]


def _numeric_bright_block(block: np.ndarray, targets: tuple[float, ...]) -> np.ndarray:
    """Eigenvectors of ``block`` at the eigenvalues ``targets``, one distinct column each."""
    evals, evecs = eigh(block)
    scale = max(abs(v) for v in targets)
    cols, seen = [], {}
    for t in targets:
        i = int(np.argmin(np.abs(evals - t)))
        if abs(evals[i] - t) > SPECTRAL_TOL * max(1.0, scale):
            raise DegenerateStructureError(
                f"no isolated eigenvalue near {t:.6g}; spectrum is {evals}"
            )
        if i in seen:  # e.g. g and g*chi once chi rounds to 1
            raise DegenerateStructureError(
                f"bright energies {seen[i]:.6g} and {t:.6g} name the same eigenvector")
        seen[i] = t
        cols.append(evecs[:, i])
    return np.column_stack(cols)


def sector_dark_columns(model: BranchModel, sector: Branch) -> np.ndarray:
    """Analytic dark columns of one sector, embedded in restricted coordinates."""
    if sector == Branch.COMBINED:
        raise ValueError("pick one sector; the combined basis lives in analytic_dark_bright")
    if sector not in model.positions:
        raise InvalidSubsystemError(f"the {sector} chain is not in the {model.branch} sector")
    return model.dark[sector].copy()


def analytic_dark_bright(model: BranchModel) -> DarkBrightBasis:
    """Dark states in closed form, bright states from the eigensolver."""
    energies = _bright_energies(model.params)
    printed = printed_bright_forms(model.params)[1:6, :]  # chain interior only
    bright = np.zeros((model.dim, 4))
    overlaps = {}
    for sector, pos in model.positions.items():
        block = _numeric_bright_block(model.strong[np.ix_(pos, pos)], energies)
        bright[pos, :] = block / math.sqrt(len(model.positions))
        overlaps[sector] = tuple(float(abs(np.vdot(printed[:, i], block[1:6, i])) ** 2)
                                 for i in range(len(energies)))
    return DarkBrightBasis(model.dark[model.branch].copy(), bright, energies,
                           MappingProxyType(overlaps))


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
