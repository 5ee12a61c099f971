"""Clustered eigenprojections, dark/bright structure, limiting generator."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack
from scipy.linalg.lapack import _compute_lwork
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenocavity as zc
from oracles import chain_hamiltonian, cluster_sum, dark_projector_residual, limiting_generator
from zenocavity.zeno import (
    DEFAULT_CLUSTER_FRACTION,
    _evr,
    _numeric_bright_block,
    eigh,
    printed_bright_forms,
)

ATOL = 1e-12

PARAMS = zc.UniformParams(g=1.0, lam=2.0, omega1=0.01, omega2=0.02, omega3=0.03)


@pytest.fixture(scope="module")
def left_model():
    return zc.build_branch_model(PARAMS, zc.Branch.LEFT)


# ---------------------------------------------------------------------------
# clustered decomposition
# ---------------------------------------------------------------------------

def test_decompose_strong_chain(left_model):
    dec = zc.decompose(left_model.strong)
    assert dec.multiplicities == (1, 1, 3, 1, 1)
    chi = PARAMS.chi()
    want = [-PARAMS.g * chi, -PARAMS.g, 0.0, PARAMS.g, PARAMS.g * chi]
    assert np.allclose(dec.eigenvalues, want, atol=1e-9)
    assert np.max(np.abs(cluster_sum(dec) - left_model.strong)) < 1e-9


def test_projectors_resolve_identity(left_model):
    dec = zc.decompose(left_model.strong)
    total = sum(dec.projectors)
    assert np.allclose(total, np.eye(left_model.dim), atol=1e-9)
    for i, p in enumerate(dec.projectors):
        assert np.allclose(p, p @ p, atol=1e-9)
        assert np.allclose(p, p.conj().T, atol=1e-9)
        for q in dec.projectors[i + 1:]:
            assert np.max(np.abs(p @ q)) < 1e-9


def test_projector_near(left_model):
    dec = zc.decompose(left_model.strong)
    p0 = dec.projector_near(0.0)
    assert abs(np.trace(p0).real - 3.0) < 1e-9
    with pytest.raises(ValueError):
        dec.projector_near(0.5)


@pytest.mark.parametrize("width, offset, found", [
    (1e-3, 0.99e-2, True), (1e-3, 1.01e-2, False),  # ten cluster widths
    (0.0, 0.9e-9, True), (0.0, 1.1e-9, False),      # and never less than SPECTRAL_TOL
])
def test_projector_near_reaches_ten_cluster_widths_and_at_least_1e_9(width, offset, found):
    projectors = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    dec = zc.ZenoDecomposition(np.array([0.0, 1.0]), projectors, (1, 1), width)
    for value in (1.0 - offset, 1.0 + offset):
        if found:
            assert dec.projector_near(value) is projectors[1]
        else:
            with pytest.raises(ValueError, match="no cluster near"):
                dec.projector_near(value)


def test_decompose_explicit_width_merges():
    dec = zc.decompose(np.diag([0.0, 1e-7, 1.0]))
    # default width 1e-6 swallows the 1e-7 splitting
    assert dec.multiplicities == (2, 1)
    assert abs(dec.eigenvalues[0] - 5e-8) < ATOL
    fine = zc.decompose(np.diag([0.0, 1e-7, 1.0]), cluster_width=1e-9)
    assert fine.multiplicities == (1, 1, 1)


def test_decompose_ambiguous_gap_raises():
    # gap of 1.5 widths: too wide to merge, too narrow to trust
    with pytest.raises(zc.ClusterAmbiguityError):
        zc.decompose(np.diag([0.0, 1.5e-6, 1.0]))


def test_decompose_validation():
    with pytest.raises(ValueError):
        zc.decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        zc.decompose(np.eye(2), cluster_width=-1.0)
    with pytest.raises(ValueError, match=r"H_C .*\(0, 0\)"):
        zc.decompose(np.zeros((0, 0)))


@given(seed=st.integers(0, 2**32 - 1))
def test_decompose_random_hermitian_reconstructs(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2
    dec = zc.decompose(h)
    assert sum(dec.multiplicities) == 6
    assert np.max(np.abs(cluster_sum(dec) - h)) < 1e-8 * max(1.0, np.abs(h).max())


# ---------------------------------------------------------------------------
# the eigensolver every spectral path shares; scipy.linalg.eigh is its oracle
# ---------------------------------------------------------------------------

_NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])


def _same_arrays(want, got):
    assert len(want) == len(got)
    for w, g in zip(want, got):
        assert (w.dtype, w.shape) == (g.dtype, g.shape)
        assert w.tobytes() == g.tobytes()


@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), hermitian=st.booleans())
def test_eigh_is_scipy_eigh_byte_for_byte(n, seed, hermitian):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if hermitian:
        a = a + 1j * rng.normal(size=(n, n))
    h = a + a.conj().T
    _same_arrays(sla.eigh(h), eigh(h))
    _same_arrays(sla.eigh(np.asfortranarray(h)), eigh(np.asfortranarray(h)))


@pytest.mark.parametrize("dtype", [float, complex, np.float32, np.complex64, int])
def test_eigh_matches_scipy_eigh_on_every_dtype(dtype):
    # every dtype runs in double precision: scipy's result for the matrix cast up
    h = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=dtype)
    cast = h.astype(np.promote_types(dtype, np.float64))
    _same_arrays(sla.eigh(cast), eigh(h))
    _same_arrays(sla.eigh(cast[:0, :0]), eigh(h[:0, :0]))  # an empty matrix is no error


@pytest.mark.parametrize("bad", [
    _NAN,
    np.array([[np.inf]], dtype=complex),
    np.zeros((2, 3)),
    np.zeros(3),
    np.empty((2, 2), dtype=object),
])
def test_eigh_raises_what_scipy_eigh_raises(bad):
    with pytest.raises(Exception) as want:
        sla.eigh(bad)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        eigh(bad)


@pytest.mark.parametrize("driver", ["dsyevr", "zheevr"])
def test_evr_workspace_is_what_scipy_computes(driver):
    query = getattr(lapack, driver + "_lwork")
    for n in range(1, 65):
        want = _compute_lwork(query, n=n, lower=True)
        assert tuple(_evr(driver, n)[1].values()) == want


# The suite imports scipy.linalg, so in this process eigh runs on scipy's own
# copy of the LAPACK extension. A fresh process runs the other load path.
_FRESH_PROCESS = r"""
import contextlib, io, sys
import numpy as np
import test_golden as golden
from zenocavity.cli import main
from zenocavity.zeno import eigh

def check(what):
    for name in ("scipy.linalg", "scipy.sparse"):
        assert name not in sys.modules, f"{what} imported {name}"

check("import")
for part, test in (("protocol-cli", golden.test_protocol_cli_bytes),
                   ("run-reuse", golden.test_run_reuse_bytes),
                   ("sweep-grid", golden.test_sweep_grid_bytes)):
    for key in sorted(golden.REFERENCE[part]):
        test(key)
    check(part)
for argv in (["protocol", "--name", "sixdim"], ["compare"], ["spectrum"],
             ["darkstates", "--branch", "combined"],
             ["sweep", "--name", "swap", "--axis", "omega1:lin:0.005:0.01:2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    check(argv[0])

import scipy.linalg
rng = np.random.default_rng(0)
for dtype in (np.float32, float, np.complex64, complex):
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h = (a + a.conj().T).astype(dtype)
    cast = h.astype(np.promote_types(dtype, np.float64))  # eigh runs in double precision
    for want, got in zip(scipy.linalg.eigh(cast), eigh(h)):
        assert (want.dtype, want.tobytes()) == (got.dtype, got.tobytes()), dtype
"""


def test_a_fresh_process_never_imports_scipy_linalg_or_sparse():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr


def _bright(h):
    return _numeric_bright_block(h, (1.0, -1.0, math.sqrt(3.0), -math.sqrt(3.0)))


@pytest.mark.parametrize("target", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("miss, found", [(0.9e-9, True), (1.1e-9, False)])
def test_a_bright_energy_is_found_within_1e_9_of_the_larger_of_1_and_its_scale(target, miss,
                                                                              found):
    # the eigenvalues of a diagonal block are its entries
    offset = miss * max(1.0, target)
    for value in (target - offset, target + offset):
        block = np.diag([-5e3, value, 5e3])
        if found:
            assert np.array_equal(np.abs(_numeric_bright_block(block, (target,))),
                                  [[0.0], [1.0], [0.0]])
        else:
            with pytest.raises(zc.DegenerateStructureError, match="no isolated eigenvalue"):
                _numeric_bright_block(block, (target,))


@pytest.mark.parametrize("solve, bad, message", [
    (zc.Propagator, _NAN, "must not contain infs or NaNs"),
    (zc.Propagator, np.zeros((2, 3)), "could not be broadcast"),
    (zc.Propagator, np.zeros((0, 0)), "zero-size array"),
    (zc.decompose, _NAN, "must not contain infs or NaNs"),
    (zc.decompose, np.zeros((2, 3)), "could not be broadcast"),
    (zc.decompose, np.zeros((0, 0)), "nonempty matrix"),
    (_bright, _NAN, "must not contain infs or NaNs"),
    (_bright, np.zeros((2, 3)), 'expected square "a" matrix'),
    (_bright, np.zeros((0, 0)), "empty sequence"),
])
def test_spectral_callers_keep_their_input_errors(solve, bad, message):
    with pytest.raises(ValueError, match=message):
        solve(bad)


# ---------------------------------------------------------------------------
# zeno and limiting generators
# ---------------------------------------------------------------------------

def test_zeno_hamiltonian_is_block_diagonal(left_model):
    dec = zc.decompose(left_model.strong)
    hz = zc.zeno_hamiltonian(dec, left_model.drive)
    for i, p in enumerate(dec.projectors):
        for j, q in enumerate(dec.projectors):
            block = p @ hz @ q
            if i != j:
                assert np.max(np.abs(block)) < 1e-9
    direct = sum(p @ left_model.drive @ p for p in dec.projectors)
    assert np.allclose(hz, direct, atol=1e-9)


def test_dark_block_of_zeno_hamiltonian_is_effective_matrix(left_model):
    dec = zc.decompose(left_model.strong)
    hz = zc.zeno_hamiltonian(dec, left_model.drive)
    dark = zc.sector_dark_columns(left_model, zc.Branch.LEFT)
    block = dark.T @ hz @ dark
    assert np.max(np.abs(block - zc.effective_matrix(PARAMS, zc.Branch.LEFT))) < 1e-10


def test_limiting_generator_adds_rescaled_clusters(left_model):
    dec = zc.decompose(left_model.strong)
    k = 250.0
    gen = limiting_generator(dec, left_model.drive, k)
    hz = zc.zeno_hamiltonian(dec, left_model.drive)
    # K H_C + H_Z: the strong clusters are exact here, so sum_n E_n P_n is H_C itself
    assert np.allclose(gen, hz + k * left_model.strong, atol=1e-9 * k)


def test_limiting_generator_converges_with_coupling():
    """Error of the Zeno limit falls at least ~1/K per decade of K."""
    strong = chain_hamiltonian(zc.UniformParams(g=1.0, lam=1.0), zc.Branch.LEFT)
    driven = zc.UniformParams(g=1.0, lam=1.0, omega1=0.3, omega2=0.2)
    weak = chain_hamiltonian(driven, zc.Branch.LEFT) - strong
    dec = zc.decompose(strong)
    t = 5.0
    psi0 = np.zeros(7, dtype=complex)
    psi0[0] = 1.0
    errors = []
    for k in (1e2, 1e3, 1e4):
        u_full = sla.expm(-1j * (weak + k * strong) * t)
        u_lim = sla.expm(-1j * limiting_generator(dec, weak, k) * t)
        errors.append(float(np.linalg.norm((u_full - u_lim) @ psi0)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[1] >= 2.0
    assert errors[1] / errors[2] >= 2.0


# ---------------------------------------------------------------------------
# spectrum and dark/bright structure
# ---------------------------------------------------------------------------

def test_predicted_strong_spectrum():
    chi = PARAMS.chi()
    single = zc.predicted_strong_spectrum(PARAMS, zc.Branch.LEFT)
    want = np.sort([0.0, 0.0, 0.0, PARAMS.g, -PARAMS.g, PARAMS.g * chi, -PARAMS.g * chi])
    assert np.allclose(single, want, atol=ATOL)
    both = zc.predicted_strong_spectrum(PARAMS, zc.Branch.COMBINED)
    assert np.allclose(both, np.sort(np.concatenate([want, want])), atol=ATOL)


def test_dark_columns_structure(left_model):
    dark = zc.sector_dark_columns(left_model, zc.Branch.LEFT)
    assert dark.shape == (7, 3)
    assert np.allclose(dark.T @ dark, np.eye(3), atol=ATOL)
    assert np.max(np.abs(left_model.strong @ dark)) < 1e-10
    chi = PARAMS.chi()
    w = PARAMS.lam / (PARAMS.g * chi)
    # D2 lives on chain sites 1, 3, 5 with weights (w, -1/chi, w)
    assert abs(dark[1, 2] - w) < ATOL
    assert abs(dark[3, 2] + 1.0 / chi) < ATOL
    assert abs(dark[5, 2] - w) < ATOL
    with pytest.raises(ValueError):
        zc.sector_dark_columns(left_model, zc.Branch.COMBINED)


def test_analytic_dark_bright_diagonalizes_strong(left_model):
    basis = zc.analytic_dark_bright(left_model)
    chi = PARAMS.chi()
    assert np.allclose(
        basis.bright_eigenvalues,
        [PARAMS.g, -PARAMS.g, PARAMS.g * chi, -PARAMS.g * chi], atol=ATOL)
    residual = left_model.strong @ basis.bright - basis.bright @ np.diag(
        basis.bright_eigenvalues)
    assert np.max(np.abs(residual)) < 1e-9
    full = np.hstack([basis.dark, basis.bright])
    assert np.allclose(full.conj().T @ full, np.eye(7), atol=1e-9)
    assert np.max(dark_projector_residual(basis, left_model.strong)) < 1e-10


def test_combined_dark_basis_is_symmetrized(combined_model):
    basis = zc.analytic_dark_bright(combined_model)
    dl = zc.sector_dark_columns(combined_model, zc.Branch.LEFT)
    dr = zc.sector_dark_columns(combined_model, zc.Branch.RIGHT)
    assert np.allclose(basis.dark, (dl + dr) / math.sqrt(2.0), atol=ATOL)
    assert np.max(np.abs(combined_model.strong @ basis.dark)) < 1e-10


def test_combined_basis_carries_each_sectors_printed_overlaps(combined_model):
    # each from its own sector's unscaled bright block, not the balanced combination
    overlaps = zc.analytic_dark_bright(combined_model).printed_overlaps
    assert list(overlaps) == [zc.Branch.LEFT, zc.Branch.RIGHT]
    assert overlaps[zc.Branch.LEFT] == overlaps[zc.Branch.RIGHT]
    assert overlaps[zc.Branch.LEFT][:2] == pytest.approx((1.0, 1.0), abs=1e-10)


@pytest.mark.parametrize("params", [None, 1.0], ids=["None", "float"])
def test_printed_bright_forms_names_what_is_not_a_parameter_point(params):
    # it read params.g and raised AttributeError
    with pytest.raises(TypeError, match=f"expected UniformParams, got {type(params).__name__}$"):
        printed_bright_forms(params)
    assert "``TypeError``" in printed_bright_forms.__doc__


def test_printed_bright_forms_partially_wrong(left_model):
    forms = printed_bright_forms(PARAMS)
    assert np.allclose(np.linalg.norm(forms, axis=0), 1.0, atol=ATOL)
    # the +/- g forms are genuine eigenvectors ...
    for col, e in ((0, PARAMS.g), (1, -PARAMS.g)):
        r = left_model.strong @ forms[:, col] - e * forms[:, col]
        assert np.max(np.abs(r)) < 1e-10
    # ... the +/- g*chi forms are not, with reproducible overlaps at lam/g = 2
    basis = zc.analytic_dark_bright(left_model)
    assert list(basis.printed_overlaps) == [zc.Branch.LEFT]
    overlaps = dict()
    for e, ov in zip(basis.bright_eigenvalues, basis.printed_overlaps[zc.Branch.LEFT]):
        overlaps[round(e, 9)] = ov
    chi = PARAMS.chi()
    assert abs(overlaps[round(PARAMS.g, 9)] - 1.0) < 1e-10
    assert abs(overlaps[round(-PARAMS.g, 9)] - 1.0) < 1e-10
    assert abs(overlaps[round(PARAMS.g * chi, 9)] - 25.0 / 216.0) < 1e-10
    assert abs(overlaps[round(-PARAMS.g * chi, 9)] - 49.0 / 54.0) < 1e-10
    with pytest.raises(TypeError):  # read-only, like model.dark
        basis.printed_overlaps[zc.Branch.RIGHT] = ()


def test_degenerate_structure_errors():
    with pytest.raises(zc.DegenerateStructureError):
        printed_bright_forms(zc.UniformParams(g=0.0, lam=1.0))


def test_bright_energies_that_coincide_in_float_are_a_degenerate_structure():
    # at lam/g = 1e-8, chi = sqrt(1 + 2e-16) rounds to 1, so +-g and +-g*chi name
    # the same two eigenvectors; four bright columns would repeat two of them
    model = zc.build_branch_model(zc.UniformParams(g=1.0, lam=1e-8), zc.Branch.LEFT)
    with pytest.raises(zc.DegenerateStructureError, match="same eigenvector"):
        zc.analytic_dark_bright(model)


@settings(max_examples=200)
@example(log_g=0.0, log_lam=-8.0, branch=zc.Branch.LEFT)
@example(log_g=2.0, log_lam=-6.5, branch=zc.Branch.COMBINED)
@given(log_g=st.floats(-8.0, 8.0), log_lam=st.floats(-8.0, 8.0),
       branch=st.sampled_from(list(zc.Branch)))
def test_bright_columns_are_orthonormal_wherever_they_are_returned(log_g, log_lam, branch):
    model = zc.build_branch_model(zc.UniformParams(g=10**log_g, lam=10**log_lam), branch)
    try:
        bright = zc.analytic_dark_bright(model).bright
    except zc.DegenerateStructureError:
        return
    assert np.max(np.abs(bright.T @ bright - np.eye(4))) <= 1e-12


def test_a_sector_outside_the_model_is_an_invalid_subsystem(left_model):
    with pytest.raises(zc.InvalidSubsystemError, match="right chain is not in the left"):
        zc.sector_dark_columns(left_model, zc.Branch.RIGHT)


def test_principal_angles_against_constructed_case():
    # basis e0 vs a projector tilted by alpha: the angle must be alpha
    alpha = 0.3
    v = np.array([math.cos(alpha), math.sin(alpha), 0.0])
    projector = np.outer(v, v)
    basis = np.zeros((3, 1))
    basis[0, 0] = 1.0
    angles = zc.principal_angles(basis, projector)
    assert angles.shape == (1,)
    assert abs(angles[0] - alpha) < 1e-12


def test_principal_angles_of_dark_span_are_tiny(left_model):
    dec = zc.decompose(left_model.strong)
    dark = zc.sector_dark_columns(left_model, zc.Branch.LEFT)
    angles = zc.principal_angles(dark, dec.projector_near(0.0))
    assert np.max(angles) < 1e-12


def test_default_cluster_fraction_is_tight():
    # regression guard: the clustering scale the whole package relies on
    assert DEFAULT_CLUSTER_FRACTION == 1e-6
