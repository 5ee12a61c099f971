"""Spectral propagation, closed-form dark amplitudes, pulse timing."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st

import zenocavity as zc
from zenocavity import dynamics
from zenocavity.dynamics import DriveAngles
from zenocavity.protocols import _PROTOCOLS, Engine, default_spec, run

ATOL = 1e-12


def _hermitian(seed, n=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

def _columns(prop, t, n=5):
    """The matrix of ``prop.apply(., t)``, one basis vector at a time."""
    return np.column_stack([prop.apply(e, t) for e in np.eye(n)])


def test_propagator_matches_expm():
    h = _hermitian(0)
    t = 0.73
    u = _columns(zc.Propagator(h), t)
    assert np.max(np.abs(u - sla.expm(-1j * h * t))) < 1e-12


def test_propagator_unitarity_and_identity():
    h = _hermitian(1)
    prop = zc.Propagator(h)
    u = _columns(prop, 13.7)
    assert np.max(np.abs(u - sla.expm(-13.7j * h))) < 1e-11
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12
    assert np.max(np.abs(_columns(prop, 0.0) - np.eye(5))) < 1e-12


def test_propagator_rejects_nonhermitian():
    with pytest.raises(ValueError):
        zc.Propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("deviation, hermitian", [(0.0, True), (0.9e-12, True),
                                                  (2e-12, False), (1e-9, False)])
def test_propagator_accepts_a_hermitian_deviation_up_to_1e_12(deviation, hermitian):
    h = np.array([[1.0, 0.5 + deviation], [0.5, -1.0]])
    if hermitian:
        assert zc.Propagator(h).evals.shape == (2,)
    else:
        with pytest.raises(ValueError, match="not hermitian"):
            zc.Propagator(h)


def test_propagator_rejects_an_overflowing_phase():
    prop = zc.Propagator(_hermitian(2))
    for t in (1e308, math.inf, math.nan):
        with pytest.raises(FloatingPointError):
            prop.apply(np.ones(5), t)


def test_propagator_rejects_a_phase_error_above_one_percent():
    prop = zc.Propagator(np.diag([0.0, -1.0]))  # max|E| = 1
    eps = np.finfo(float).eps
    for t in (0.9e-2 / eps, -0.9e-2 / eps):
        assert np.all(np.isfinite(prop.apply(np.ones(2), t)))
    for t in (1.1e-2 / eps, -1.1e-2 / eps):
        with pytest.raises(FloatingPointError, match="phase error"):
            prop.apply(np.ones(2), t)


# ---------------------------------------------------------------------------
# closed-form dark dynamics
# ---------------------------------------------------------------------------

def test_drive_angles_of():
    p = zc.UniformParams(g=1.0, lam=2.0, omega1=0.03, omega2=0.04, omega3=0.05)
    left = DriveAngles.of(p, zc.Branch.LEFT)
    assert abs(left.omega - 0.05) < ATOL
    assert abs(left.theta - math.atan2(0.04, 0.03)) < ATOL
    assert abs(left.phase_rate - 0.05 * 2.0 / (1.0 * p.chi())) < ATOL
    right = DriveAngles.of(p, zc.Branch.RIGHT)
    assert abs(right.om_b - 0.05) < ATOL
    with pytest.raises(ValueError):
        DriveAngles.of(p, zc.Branch.COMBINED)
    with pytest.raises(ValueError):
        DriveAngles.of(zc.UniformParams(g=1.0, lam=1.0), zc.Branch.LEFT)


def test_amplitudes_special_points():
    p = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)  # theta = 0
    ang = DriveAngles.of(p, zc.Branch.LEFT)
    a1, a2, a3 = ang.amplitudes(0.0)
    assert abs(a1 - 1.0) < ATOL and abs(a2) < ATOL and abs(a3) < ATOL
    tau_half = (math.pi / 2) / ang.phase_rate
    a1, a2, a3 = ang.amplitudes(tau_half)
    assert abs(a1) < ATOL and abs(a2 + 1j) < ATOL and abs(a3) < ATOL
    tau_full = (2 * math.pi) / ang.phase_rate
    a1, a2, a3 = ang.amplitudes(tau_full)
    assert abs(a1 - 1.0) < 1e-10 and abs(a2) < 1e-10 and abs(a3) < 1e-10


@given(theta=st.floats(0.0, math.pi / 2), phase=st.floats(0.0, 20.0))
def test_amplitudes_are_unitary(theta, phase):
    om = 0.02
    p = zc.UniformParams(g=1.0, lam=1.0,
                         omega1=om * math.cos(theta) + 1e-300,
                         omega2=om * math.sin(theta))
    ang = DriveAngles.of(p, zc.Branch.LEFT)
    tau = phase / ang.phase_rate
    a1, a2, a3 = ang.amplitudes(tau)
    assert abs(abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2 - 1.0) < 1e-9


def test_amplitudes_match_effective_matrix_evolution():
    rng = np.random.default_rng(42)
    for _ in range(20):
        theta = rng.uniform(0.0, math.pi / 2)
        phase = rng.uniform(0.0, 12.0)
        p = zc.UniformParams(
            g=rng.uniform(0.5, 2.0), lam=rng.uniform(0.5, 2.0),
            omega1=0.02 * math.cos(theta), omega2=0.02 * math.sin(theta),
        )
        if p.omega1 == 0.0 and p.omega2 == 0.0:
            continue
        ang = DriveAngles.of(p, zc.Branch.LEFT)
        tau = phase / ang.phase_rate
        m = zc.effective_matrix(p, zc.Branch.LEFT)
        coeffs = sla.expm(-1j * m * tau)[:, 0]  # start in D0
        a1, a2, a3 = ang.amplitudes(tau)
        # state order is (D0, D1, D2): the transferred amplitude sits last
        assert np.max(np.abs(coeffs - np.array([a1, a3, a2]))) < 1e-10


def test_effective_matrix_structure():
    p = zc.UniformParams(g=1.0, lam=2.0, omega1=0.03, omega2=0.04)
    m = zc.effective_matrix(p, zc.Branch.LEFT)
    w = p.lam / (p.g * p.chi())
    want = np.zeros((3, 3))
    want[0, 2] = want[2, 0] = w * 0.03
    want[1, 2] = want[2, 1] = w * 0.04
    assert np.allclose(m, want, atol=ATOL)


def test_effective_generator_is_dark_embedding(st_model):
    gen = zc.effective_generator(st_model)
    dark = zc.sector_dark_columns(st_model, zc.Branch.LEFT)
    m = zc.effective_matrix(st_model.params, zc.Branch.LEFT)
    assert np.allclose(gen, dark @ m @ dark.T, atol=ATOL)
    assert np.allclose(gen, gen.T, atol=ATOL)


def test_effective_generator_combined_is_direct_sum(combined_model):
    gen = zc.effective_generator(combined_model)
    total = np.zeros_like(gen)
    for sector in (zc.Branch.LEFT, zc.Branch.RIGHT):
        dark = zc.sector_dark_columns(combined_model, sector)
        m = zc.effective_matrix(combined_model.params, sector)
        total += dark @ m @ dark.T
    assert np.allclose(gen, total, atol=ATOL)


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def test_solve_timing_values():
    p = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)
    rate = DriveAngles.of(p, zc.Branch.LEFT).phase_rate
    assert abs(zc.solve_timing(p, zc.Branch.LEFT) - (math.pi / 2) / rate) < ATOL
    assert abs(zc.solve_timing(p, zc.Branch.LEFT, zc.HALF_PI, k=2)
               - (3 * math.pi / 2) / rate) < ATOL
    assert abs(zc.solve_timing(p, zc.Branch.LEFT, zc.PI, k=1) - math.pi / rate) < ATOL
    assert abs(zc.solve_timing(p, zc.Branch.LEFT, zc.PI, k=4) - 4 * math.pi / rate) < ATOL


def test_solve_timing_validation():
    p = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01, omega2=0.01, omega3=0.02)
    with pytest.raises(ValueError):
        zc.solve_timing(p, zc.Branch.LEFT, k=0)
    with pytest.raises(ValueError):
        zc.solve_timing(p, zc.Branch.LEFT, condition="quarter")
    with pytest.raises(ValueError):
        zc.solve_timing(p, zc.Branch.COMBINED)  # omega2 != omega3
    same = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01, omega2=0.02, omega3=0.02)
    assert zc.solve_timing(same, zc.Branch.COMBINED) > 0
    tiny = zc.UniformParams(g=1.0, lam=5e-324, omega2=1.0)  # pi/2 over it overflows
    with pytest.raises(OverflowError, match="not finite"):
        zc.solve_timing(tiny, zc.Branch.LEFT)


@pytest.mark.parametrize("k", [True, 2.0, "2", None])
def test_one_pulse_count_rule_for_timing_and_specs(k):
    p = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)
    message = f"k must be a positive integer, got {k}"
    with pytest.raises(ValueError, match=message):
        zc.solve_timing(p, "left", k=k)
    with pytest.raises(ValueError, match=message):
        default_spec("bell", k=k)


def test_solve_timing_takes_a_numpy_pulse_count():
    p = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)
    assert zc.solve_timing(p, "left", k=np.int64(2)) == zc.solve_timing(p, "left", k=2)


def test_solve_timing_takes_a_branch_name():
    p = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01, omega2=0.02, omega3=0.02)
    for name in ("left", "combined"):
        assert zc.solve_timing(p, name) == zc.solve_timing(p, zc.Branch(name))
    with pytest.raises(ValueError, match="'bogus' is not a valid Branch"):
        zc.solve_timing(p, "bogus")


def test_zeno_ratio():
    p = zc.UniformParams(g=0.5, lam=2.0, omega1=0.01, omega2=0.05)
    assert abs(zc.zeno_ratio(p) - 0.1) < ATOL


def test_compare_full_vs_effective(st_model):
    tau = zc.solve_timing(st_model.params, zc.Branch.LEFT)
    rows = zc.compare_full_vs_effective(st_model, [0.0, tau])
    assert [r.tau for r in rows] == [0.0, tau]
    assert abs(rows[0].fidelity - 1.0) < ATOL
    assert 0.99 < rows[1].fidelity <= 1.0 + ATOL


# ---------------------------------------------------------------------------
# one decomposition per (model, engine)
# ---------------------------------------------------------------------------

def _counting_eigh(monkeypatch):
    """The matrices that ``dynamics`` decomposes from now on, one entry per eigensolve."""
    calls = []
    real = dynamics.eigh

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(dynamics, "eigh", counting)
    return calls


@pytest.mark.parametrize("protocol", ["state_transfer", "bell", "sixdim"])
def test_a_model_decomposes_each_engine_once(monkeypatch, protocol):
    calls = _counting_eigh(monkeypatch)
    spec = default_spec(protocol)
    model = zc.build_branch_model(spec.params, spec.branch)
    assert calls == []  # building a model decomposes nothing
    for _ in range(5):
        run(spec, model)
    assert len(calls) == 1
    for engine in (Engine.EFFECTIVE, Engine.FULL, Engine.EFFECTIVE):
        run(replace(spec, engine=engine), model)
    assert len(calls) == 2
    tau = zc.solve_timing(spec.params, spec.branch, _PROTOCOLS[spec.protocol].pulse)
    zc.compare_full_vs_effective(model, [0.0, tau])
    assert len(calls) == 2
    fresh = zc.build_branch_model(spec.params, spec.branch)
    run(spec, fresh)
    assert len(calls) == 3


def test_compare_decomposes_each_engine_once_and_runs_reuse_it(monkeypatch, st_model):
    calls = _counting_eigh(monkeypatch)
    model = zc.build_branch_model(st_model.params, st_model.branch)
    zc.compare_full_vs_effective(model, [0.0, 1.0])
    zc.compare_full_vs_effective(model, [2.0])
    assert len(calls) == 2
    spec = default_spec("state_transfer", params=model.params)
    for engine in Engine:
        run(replace(spec, engine=engine), model)
    assert len(calls) == 2


@pytest.mark.parametrize("effective", [False, True])
def test_a_models_decomposition_is_read_only(st_model, effective):
    model = zc.build_branch_model(st_model.params, st_model.branch)  # a write must not leak
    propagator, coords = dynamics.model_propagator(model, effective)
    assert dynamics.model_propagator(model, effective)[0] is propagator
    for array in (propagator.evals, propagator.evecs, coords):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("block", ["total", "strong", "drive"])
def test_a_write_to_a_model_block_after_a_run_raises(st_model, block):
    # each engine's decomposition and seed coordinates are cached per model, so a write
    # that a later run would not see must fail loudly
    model = zc.build_branch_model(st_model.params, st_model.branch)
    for engine in Engine:
        run(default_spec("state_transfer", params=model.params, engine=engine), model)
    with pytest.raises(ValueError, match="read-only"):
        getattr(model, block)[0, 0] = 7.0


@pytest.mark.parametrize("offset, raises", [(0.0, False), (5e-13, False), (2e-12, True),
                                            (1e-9, True)])
def test_combined_timing_holds_omega2_equal_omega3_to_a_relative_1e_12(offset, raises):
    params = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01, omega2=0.01,
                              omega3=0.01 * (1 + offset))
    if raises:
        with pytest.raises(ValueError, match="combined timing needs omega2 == omega3"):
            zc.solve_timing(params, zc.Branch.COMBINED)
    else:  # one pulse clock: the left sector's
        assert zc.solve_timing(params, zc.Branch.COMBINED) == zc.solve_timing(params,
                                                                              zc.Branch.LEFT)


def test_a_models_decompositions_die_with_it():
    # a sweep builds one model per point; its decompositions must not outlive it
    spec = default_spec("ghz")
    model = zc.build_branch_model(spec.params, spec.branch)
    for engine in Engine:
        run(replace(spec, engine=engine), model)
    zc.compare_full_vs_effective(model, [1.0])
    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None
