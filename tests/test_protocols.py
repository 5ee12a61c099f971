"""End-to-end protocol scoring against frozen reference values.

The effective-engine numbers are closed forms; the full-engine numbers are
regression values pinned from runs well inside the Zeno regime.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenocavity as zc
from zenocavity.protocols import (
    Engine,
    GateConvention,
    Interpretation,
    Protocol,
    ProtocolSpec,
    _PROTOCOLS,
    default_params,
    default_spec,
    hadamard_and_reduce,
    run,
)

# full-engine regressions at the per-protocol default parameters
ST_FULL = 0.9999449868575423
SWAP_FULL = 0.9998848360783745
GHZ_FULL = 0.999884836078371
GHZ_NEG_FULL = 0.5075410555368344
BELL_FULL = 0.994975353994491
BELL_NEG_FULL = 0.4949816835615392
ST_TAU = 272.0699046351327


@pytest.fixture(scope="module")
def sixdim_model(space1):
    return zc.build_branch_model(default_params(Protocol.SIX_DIM),
                                 zc.Branch.COMBINED, space=space1)


# ---------------------------------------------------------------------------
# state transfer / swap / ghz
# ---------------------------------------------------------------------------

def test_state_transfer_effective_is_exact(st_model):
    res = run(default_spec("state_transfer", engine=Engine.EFFECTIVE), model=st_model)
    assert abs(res.fidelity - 1.0) < 1e-10
    assert abs(res.tau - ST_TAU) < 1e-9
    assert res.success_probability is None and res.negativity is None


def test_state_transfer_full_regression(st_model):
    res = run(default_spec("state_transfer"), model=st_model)
    assert abs(res.fidelity - ST_FULL) < 1e-9


def test_swap_effective_and_full():
    spec = default_spec("swap")
    model = zc.build_branch_model(spec.params, spec.branch)
    eff = run(ProtocolSpec(**{**spec.__dict__, "engine": Engine.EFFECTIVE}), model=model)
    assert abs(eff.fidelity - 1.0) < 1e-10
    full = run(spec, model=model)
    assert abs(full.fidelity - SWAP_FULL) < 1e-9


def test_swap_even_k_returns_home():
    spec = default_spec("swap", engine=Engine.EFFECTIVE, k=2)
    res = run(spec)
    # fidelity is scored against the swapped target, which even k never reaches
    assert res.fidelity < 1e-10
    assert "even k: the pi pulse returns the initial state" in res.flags


def test_ghz_effective_and_full(combined_model):
    eff = run(default_spec("ghz", engine=Engine.EFFECTIVE), model=combined_model)
    assert abs(eff.fidelity - 1.0) < 1e-10
    assert abs(eff.negativity - 0.5) < 1e-8
    full = run(default_spec("ghz"), model=combined_model)
    assert abs(full.fidelity - GHZ_FULL) < 1e-9
    assert abs(full.negativity - GHZ_NEG_FULL) < 1e-9


# ---------------------------------------------------------------------------
# bell
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [0.05, 0.1, 0.3, 0.7])
def test_bell_effective_closed_form(g):
    params = zc.UniformParams(g=g, lam=1.0, omega1=0.001)
    res = run(default_spec("bell", engine=Engine.EFFECTIVE, params=params))
    want = 2 * 1.0 / (g * g + 2 * 1.0)
    assert abs(res.fidelity - want) < 1e-12
    assert 0.0 < res.negativity <= 0.5 + 1e-12


def test_bell_full_regression():
    res = run(default_spec("bell"))
    assert abs(res.fidelity - BELL_FULL) < 1e-9
    assert abs(res.negativity - BELL_NEG_FULL) < 1e-9


def test_bell_runs_on_right_branch():
    res = run(default_spec("bell", engine=Engine.EFFECTIVE, branch=zc.Branch.RIGHT))
    assert abs(res.fidelity - 2.0 / 2.01) < 1e-12


# ---------------------------------------------------------------------------
# measurement-based protocols
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("convention,outcome,prob,fid", [
    (GateConvention.UNITARY, 0, 0.5, 1.0),
    (GateConvention.UNITARY, 1, 0.5, 1.0 / 9.0),
    (GateConvention.BEAMSPLITTER, 0, 5.0 / 6.0, 3.0 / 5.0),
    (GateConvention.BEAMSPLITTER, 1, 1.0 / 6.0, 1.0 / 3.0),
])
def test_threedim_effective_postselect(st_model, convention, outcome, prob, fid):
    spec = default_spec("threedim", engine=Engine.EFFECTIVE,
                        convention=convention, outcome=outcome)
    res = run(spec, model=st_model)
    assert abs(res.success_probability - prob) < 1e-10
    assert abs(res.fidelity - fid) < 1e-10


def test_threedim_effective_trace(st_model):
    spec = default_spec("threedim", engine=Engine.EFFECTIVE,
                        interpretation=Interpretation.TRACE)
    res = run(spec, model=st_model)
    assert res.success_probability is None
    assert abs(res.fidelity - 5.0 / 9.0) < 1e-10


def test_threedim_beamsplitter_click_leaves_product_state(st_model):
    spec = default_spec("threedim", engine=Engine.EFFECTIVE,
                        convention=GateConvention.BEAMSPLITTER, outcome=1)
    res = run(spec, model=st_model)
    rho = res.final_state
    purity = np.trace(rho.mat @ rho.mat).real
    assert abs(purity - 1.0) < 1e-10
    gg = rho.space.ket(a="g_l", b="g_l")
    assert abs(zc.fidelity(rho, gg) - 1.0) < 1e-10


def test_sixdim_effective(sixdim_model):
    uni = run(default_spec("sixdim", engine=Engine.EFFECTIVE), model=sixdim_model)
    assert abs(uni.success_probability - 0.25) < 1e-10
    assert abs(uni.fidelity - 1.0) < 1e-10
    bs = run(default_spec("sixdim", engine=Engine.EFFECTIVE,
                          convention=GateConvention.BEAMSPLITTER), model=sixdim_model)
    assert abs(bs.success_probability - 5.0 / 6.0) < 1e-10
    assert abs(bs.fidelity - 17.0 / 30.0) < 1e-10


def _sixdim_premeasurement(model):
    tau = zc.solve_timing(model.params, zc.Branch.COMBINED)
    gen = zc.effective_generator(model)
    return zc.State(model.restricted, zc.Propagator(gen).apply(model.seed().vec, tau))


def test_outcome_probabilities_sum_to_one(sixdim_model):
    psi = _sixdim_premeasurement(sixdim_model)
    total = 0.0
    for outcome in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        _, p = hadamard_and_reduce(psi, ["F_l", "F_r"], ("a", "b", "c"),
                                   outcome=outcome)
        total += p
    assert abs(total - 1.0) < 1e-10
    # one excitation cannot click both fibers through a beamsplitter, so the
    # (1,1) outcome is forbidden there and the remaining three exhaust the mass
    total = 0.0
    for outcome in [(0, 0), (0, 1), (1, 0)]:
        _, p = hadamard_and_reduce(psi, ["F_l", "F_r"], ("a", "b", "c"),
                                   outcome=outcome,
                                   convention=GateConvention.BEAMSPLITTER)
        total += p
    assert abs(total - 1.0) < 1e-10
    with pytest.raises(ValueError, match="probability"):
        hadamard_and_reduce(psi, ["F_l", "F_r"], ("a", "b", "c"),
                            outcome=(1, 1),
                            convention=GateConvention.BEAMSPLITTER)


def _outcome_probability(psi, modes, keep, outcome, convention):
    try:
        _, p = hadamard_and_reduce(psi, modes, keep, outcome=outcome,
                                   convention=convention)
        return p
    except ValueError as err:  # refused only below the zero-probability tolerance
        assert "probability ~0" in str(err)
        return 0.0


@settings(max_examples=10)
@given(omega1=st.floats(1e-3, 0.05), ratio=st.floats(0.0, 5.0),
       convention=st.sampled_from(list(GateConvention)))
def test_outcome_probabilities_sum_to_one_at_any_drive_ratio(space1, omega1, ratio,
                                                             convention):
    # the combined pulse needs omega2 == omega3, so one ratio sets both
    params = zc.UniformParams(g=1.0, lam=1.0, omega1=omega1,
                              omega2=omega1 * ratio, omega3=omega1 * ratio)
    cases = ((zc.Branch.LEFT, ["F_l"], ("a", "b")),                 # threedim: one mode
             (zc.Branch.COMBINED, ["F_l", "F_r"], ("a", "b", "c")))  # sixdim: two modes
    for branch, modes, keep in cases:
        model = zc.build_branch_model(params, branch, space=space1)
        tau = zc.solve_timing(params, branch)
        vec = zc.Propagator(model.total).apply(model.seed().vec, tau)
        psi = zc.State(model.restricted, vec)
        total = sum(_outcome_probability(psi, modes, keep, list(outcome), convention)
                    for outcome in itertools.product((0, 1), repeat=len(modes)))
        assert abs(total - 1.0) < 1e-10


def test_hadamard_trace_returns_no_probability(sixdim_model):
    psi = _sixdim_premeasurement(sixdim_model)
    rho, p = hadamard_and_reduce(psi, ["F_l", "F_r"], ("a", "b", "c"),
                                 interpretation=Interpretation.TRACE)
    assert p is None
    assert abs(np.trace(rho.mat).real - 1.0) < 1e-10


def test_hadamard_zero_probability_branch_raises(space1):
    atoms = dict(a="g_l", b="g_l", c="g_r")
    psi = (space1.ket(**atoms) - space1.ket(**atoms, F_l=1)) * (1 / math.sqrt(2))
    with pytest.raises(ValueError, match="probability"):
        hadamard_and_reduce(psi, ["F_l"], ("a", "b"), outcome=0)


def test_hadamard_validation(space1):
    psi = space1.ket(a="g_l", b="g_l", c="g_r")
    with pytest.raises(ValueError, match="at least one mode"):
        hadamard_and_reduce(psi, [], ("a",))
    with pytest.raises(ValueError, match="one outcome per mode"):
        hadamard_and_reduce(psi, ["F_l", "F_r"], ("a",), outcome=(0,))
    with pytest.raises(ValueError, match="0 or 1"):
        hadamard_and_reduce(psi, ["F_l"], ("a",), outcome=2)


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------

def test_spec_coerces_strings():
    spec = ProtocolSpec(protocol="bell", branch="right",
                        params=default_params("bell"),
                        engine="effective", interpretation="trace",
                        convention="beamsplitter")
    assert spec.protocol is Protocol.BELL
    assert spec.branch is zc.Branch.RIGHT
    assert spec.engine is Engine.EFFECTIVE


def test_spec_branch_rules():
    with pytest.raises(ValueError, match="combined branch"):
        default_spec("ghz", branch=zc.Branch.LEFT)
    with pytest.raises(ValueError, match="single polarization branch"):
        default_spec("bell", branch=zc.Branch.COMBINED)
    # state transfer is the one single-branch protocol that also runs combined
    spec = default_spec("state_transfer", branch=zc.Branch.COMBINED)
    assert spec.branch is zc.Branch.COMBINED


def test_run_rejects_mismatched_model(st_model):
    spec = default_spec("bell")
    with pytest.raises(ValueError, match="does not match"):
        run(spec, model=st_model)


def test_result_dict_shape_and_determinism(st_model):
    spec = default_spec("state_transfer", engine=Engine.EFFECTIVE)
    d = run(spec, model=st_model).to_dict()
    assert list(d) == ["name", "branch", "params", "k", "tau", "engine",
                       "interpretation", "convention", "fidelity",
                       "negativity", "success_probability", "flags"]
    assert d["name"] == "state_transfer"
    assert list(d["params"]) == ["g", "lam", "omega1", "omega2", "omega3"]
    again = run(spec, model=st_model).to_dict()
    assert json.dumps(d) == json.dumps(again)


def _every_branch_spec():
    return [default_spec(p, branch=b) for p in Protocol for b in _PROTOCOLS[p].branches]


@pytest.mark.parametrize("spec", _every_branch_spec(), ids=str)
def test_writing_to_a_result_does_not_reach_the_next_run(spec):
    first = run(spec)
    text, target = json.dumps(first.to_dict()), first.target.vec.copy()
    first.target.vec[:] = 7.0
    final = first.final_state
    (final.vec if isinstance(final, zc.State) else final.mat)[...] = 7.0
    again = run(spec)
    assert json.dumps(again.to_dict()) == text
    assert again.target.vec.tobytes() == target.tobytes()


def test_a_warm_run_builds_no_space_and_no_ket(monkeypatch):
    specs = _every_branch_spec()
    for spec in specs:
        run(spec)  # the first run of a (protocol, branch) may build its structure
    calls = []
    for name in ("__init__", "ket"):
        real = getattr(zc.HilbertSpace, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(zc.HilbertSpace, name, counted)
    for spec, engine, interpretation in itertools.product(specs, Engine, Interpretation):
        p = spec.params
        params = replace(p, g=1.1 * p.g, omega1=0.9 * p.omega1)  # a new parameter point
        run(replace(spec, params=params, engine=engine, interpretation=interpretation))
    assert calls == []


def test_regime_flags():
    hot = run(default_spec("state_transfer", engine=Engine.EFFECTIVE,
                           params=zc.UniformParams(g=1.0, lam=1.0, omega1=0.2)))
    assert any(f.startswith("zeno ratio 0.2 above 0.1") for f in hot.flags)

    bell = run(default_spec("bell", engine=Engine.EFFECTIVE,
                            params=zc.UniformParams(g=0.5, lam=1.0, omega1=0.001)))
    assert "bell regime wants g << lam; g/lam = 0.5" in bell.flags

    tri = run(default_spec("threedim", engine=Engine.EFFECTIVE,
                           params=zc.UniformParams(g=1.0, lam=2.0, omega1=0.01)))
    assert "equal couplings g = lam assumed by this protocol" in tri.flags

    swap = run(default_spec("swap", engine=Engine.EFFECTIVE,
                            params=zc.UniformParams(g=1.0, lam=1.0,
                                                    omega1=0.01, omega2=0.02)))
    assert "swap assumes equal drives on both atoms" in swap.flags

    ghz = run(default_spec("ghz", engine=Engine.EFFECTIVE,
                           params=zc.UniformParams(g=1.0, lam=1.0, omega1=0.02,
                                                   omega2=0.01, omega3=0.01)))
    assert "ghz assumes omega1 = omega2 = omega3" in ghz.flags

    clean = run(default_spec("state_transfer", engine=Engine.EFFECTIVE))
    assert clean.flags == ()


def test_default_params_table():
    assert default_params("bell") == zc.UniformParams(g=0.1, lam=1.0, omega1=0.001)
    assert default_params("swap").omega2 == 0.01
    ghz = default_params("ghz")
    assert ghz.omega1 == ghz.omega2 == ghz.omega3 == 0.01
    assert default_params("sixdim") == zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)
    assert default_spec("sixdim").branch is zc.Branch.COMBINED
    assert default_spec("bell").branch is zc.Branch.LEFT
