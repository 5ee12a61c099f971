"""End-to-end protocol scoring against frozen reference values.

The effective-engine numbers are closed forms; the full-engine numbers are
regression values pinned from runs well inside the Zeno regime.
"""

import functools
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import zenocavity as zc
from zenocavity.protocols import (
    Engine,
    GateConvention,
    Interpretation,
    Protocol,
    ProtocolSpec,
    _PROTOCOLS,
    default_spec,
    hadamard_and_reduce,
    run,
)
from zenocavity.spaces import ZERO_PROBABILITY_TOL

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
    return zc.build_branch_model(default_spec(Protocol.SIX_DIM).params,
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


@pytest.mark.parametrize("protocol,convention,passes", [
    (Protocol.THREE_DIM, GateConvention.UNITARY, 1),
    (Protocol.THREE_DIM, GateConvention.BEAMSPLITTER, 2),
    (Protocol.SIX_DIM, GateConvention.UNITARY, 2),
    (Protocol.SIX_DIM, GateConvention.BEAMSPLITTER, 6),
])
def test_a_readout_passes_each_history_over_each_mode_once(monkeypatch, protocol, convention,
                                                           passes):
    # one pass per Kraus history and mode: under postselect the outcome projector rides
    # along with the gate instead of taking a second walk over the modes; each pass is one
    # call of the gate kernel
    calls = []
    real = zc.spaces._gate

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(zc.spaces, "_gate", counted)
    for interpretation in Interpretation:
        calls.clear()
        run(default_spec(protocol, convention=convention, interpretation=interpretation))
        assert len(calls) == passes, interpretation


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
    psi = (space1.ket(**atoms) + (-1) * space1.ket(**atoms, F_l=1)) * (1 / math.sqrt(2))
    with pytest.raises(ValueError, match="probability"):
        hadamard_and_reduce(psi, ["F_l"], ("a", "b"), outcome=0)


_READOUTS = {zc.Branch.LEFT: (["F_l"], ("a", "b")), zc.Branch.RIGHT: (["F_r"], ("a", "c")),
             zc.Branch.COMBINED: (["F_l", "F_r"], ("a", "b", "c"))}


@functools.cache
def _readout_space(branch):
    return zc.build_branch_model(zc.UniformParams(g=1.0, lam=1.0, omega1=0.01), branch).restricted


@settings(max_examples=300)
@given(branch=st.sampled_from(list(zc.Branch)), seed=st.integers(0, 2**32 - 1),
       interpretation=st.sampled_from(list(Interpretation)),
       convention=st.sampled_from(list(GateConvention)),
       outcome=st.sampled_from([0, 1, (0, 1), (1, 0), (1, 1)]))
def test_hadamard_and_reduce_is_the_two_pass_readout_byte_for_byte(branch, seed, interpretation,
                                                                   convention, outcome):
    modes, keep = _READOUTS[branch]
    if isinstance(outcome, tuple) and len(modes) == 1:
        outcome = outcome[:1]
    restricted = _readout_space(branch)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=restricted.dim) + 1j * rng.normal(size=restricted.dim)
    vec *= rng.random(restricted.dim) < 0.6  # some kets leave a fiber mode empty
    psi = zc.State(restricted, vec / max(np.linalg.norm(vec), 1.0))
    args = (psi, modes, keep, interpretation, outcome, convention)
    try:
        want = oracles.two_pass_readout(*args)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            hadamard_and_reduce(*args)
        return
    rho, p = hadamard_and_reduce(*args)
    assert rho.space == want[0].space
    assert (rho.mat.dtype, rho.mat.tobytes()) == (want[0].mat.dtype, want[0].mat.tobytes())
    assert (type(p), p) == (type(want[1]), want[1])


def test_hadamard_validation(space1):
    psi = space1.ket(a="g_l", b="g_l", c="g_r")
    with pytest.raises(ValueError, match="at least one mode"):
        hadamard_and_reduce(psi, [], ("a",))
    with pytest.raises(ValueError, match="one outcome per mode"):
        hadamard_and_reduce(psi, ["F_l", "F_r"], ("a",), outcome=(0,))
    with pytest.raises(ValueError, match="0 or 1"):
        hadamard_and_reduce(psi, ["F_l"], ("a",), outcome=2)
    # a repeated mode would take the gate twice (H H = 1): p = 1 on the vacuum, not 0.5
    for modes in (["F_l", "F_l"], ["F_l", "F_r", "F_l"]):
        with pytest.raises(zc.InvalidSubsystemError, match="repeated"):
            hadamard_and_reduce(psi, modes, ("a", "b"), outcome=0)


# an atom and one cutoff-1 mode
_ATOM_AND_MODE = zc.HilbertSpace([zc.SubsystemSpec("a", levels=("g", "e")),
                                  zc.SubsystemSpec("F", cutoff=1)])


@pytest.mark.parametrize("interpretation", list(Interpretation))
def test_a_readout_that_keeps_every_factor_is_refused(interpretation):
    psi = _ATOM_AND_MODE.ket(a="e")  # outcome 0 has probability 1/2
    with pytest.raises(zc.InvalidSubsystemError, match="a readout must trace out some factor"):
        hadamard_and_reduce(psi, ["F"], ("a", "F"), interpretation)


@pytest.mark.parametrize("modes, keep, message", [
    (["F_l"], [["a"]], "a subsystem entry is a name or an integer index, got ['a']"),
    (["F_l"], [0.7], "a subsystem entry is a name or an integer index, got 0.7"),
    ([["F_l"]], ["a"], "no subsystem named ['F_l']"),
    (["F_l", ["F_l"]], ["a"], "no subsystem named ['F_l']"),
])
def test_a_readout_entry_that_is_not_a_name_is_refused(space1, modes, keep, message):
    psi = space1.ket(a="g_l", b="g_l", c="g_r")
    for interpretation in Interpretation:
        with pytest.raises(zc.InvalidSubsystemError, match=re.escape(message)):
            hadamard_and_reduce(psi, modes, keep, interpretation)


@pytest.mark.parametrize("interpretation", list(Interpretation))
def test_a_bare_string_is_one_mode_and_one_kept_factor(space1, interpretation):
    psi = space1.ket(a="g_l", b="g_l", c="g_r", F_l=1)
    want = hadamard_and_reduce(psi, ["F_l"], ["a"], interpretation)
    got = hadamard_and_reduce(psi, "F_l", "a", interpretation)
    assert got[0].space == want[0].space and got[0].mat.tobytes() == want[0].mat.tobytes()
    assert got[1] == want[1]


def test_a_bad_keep_set_is_refused_before_an_outcome_of_probability_0():
    # H (|0> - |1>)/sqrt2 = |1>: outcome 0 cannot occur
    psi = (_ATOM_AND_MODE.ket(a="g") + (-1) * _ATOM_AND_MODE.ket(a="g", F=1)) * (1 / math.sqrt(2))
    with pytest.raises(ValueError, match="probability ~0"):
        hadamard_and_reduce(psi, ["F"], ("a",), outcome=0)
    with pytest.raises(zc.InvalidSubsystemError, match="no subsystem named 'b'"):
        hadamard_and_reduce(psi, ["F"], ("b",), outcome=0)


# The Zeno limit on the sector state (Facchi & Pascazio, PRL 89, 080401): at
# the protocol's own pulse, the full sector evolution departs from the
# dark-block evolution by an infidelity of order r^2, r = zeno_ratio. The bound
# is stated for g and lam in [0.3, 3] and r in [1e-4, 0.05], drives set to
# r * min(g, lam) on the atoms each protocol drives (measured: below 2.2 r^2
# for swap and ghz, below 0.57 r^2 for the others). It is not a bound on the
# sweep's engine_gap: bell, threedim and sixdim score a reduced state, whose
# fidelity sees the O(r) bright admixture to first order.
ZENO_LIMIT_C2 = 3.0


@given(protocol=st.sampled_from(list(Protocol)), g=st.floats(0.3, 3.0),
       lam=st.floats(0.3, 3.0), log_r=st.floats(math.log(1e-4), math.log(0.05)))
def test_sector_infidelity_is_second_order_in_the_zeno_ratio(protocol, g, lam, log_r):
    r = math.exp(log_r)
    driven = {key: r * min(g, lam) for key in ("omega1", "omega2", "omega3")
              if getattr(default_spec(protocol).params, key) > 0}
    params = zc.UniformParams(g=g, lam=lam, **driven)
    assert math.isclose(zc.zeno_ratio(params), r, rel_tol=1e-12)
    spec = default_spec(protocol, params=params)
    tau = zc.solve_timing(params, spec.branch, _PROTOCOLS[protocol].pulse, spec.k)
    [row] = zc.compare_full_vs_effective(zc.build_branch_model(params, spec.branch), [tau])
    assert 1.0 - row.fidelity <= ZENO_LIMIT_C2 * r**2


# The sweep's engine_gap, |F_full - F_effective| at the protocol's pulse, over
# the same ranges: g and lam in [0.3, 3], r log-uniform in [1e-4, 0.05], drives
# r * min(g, lam) on the atoms each protocol drives. Whole-ket scores
# (state_transfer, swap, ghz) see the O(r) bright admixture squared; reduced
# atom states (bell, threedim, sixdim) see it linearly. Measured on 1400 points
# per protocol, edges included: below 0.26 r and 2.21 r^2.
ENGINE_GAP_C1 = 0.5
REDUCED_STATE = (Protocol.BELL, Protocol.THREE_DIM, Protocol.SIX_DIM)


@given(protocol=st.sampled_from(list(Protocol)), g=st.floats(0.3, 3.0),
       lam=st.floats(0.3, 3.0), log_r=st.floats(math.log(1e-4), math.log(0.05)))
def test_engine_gap_is_first_order_on_reduced_states_and_second_order_on_kets(protocol, g,
                                                                                lam, log_r):
    r = math.exp(log_r)
    driven = {key: r * min(g, lam) for key in ("omega1", "omega2", "omega3")
              if getattr(default_spec(protocol).params, key) > 0}
    spec = default_spec(protocol, params=zc.UniformParams(g=g, lam=lam, **driven))
    model = zc.build_branch_model(spec.params, spec.branch)
    gap = abs(run(spec, model).fidelity
              - run(replace(spec, engine=Engine.EFFECTIVE), model).fidelity)
    assert gap <= (ENGINE_GAP_C1 * r if protocol in REDUCED_STATE else ZENO_LIMIT_C2 * r**2)


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------

def test_spec_coerces_strings():
    spec = ProtocolSpec(protocol="bell", branch="right",
                        params=default_spec("bell").params,
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


@pytest.mark.parametrize("outcome", [-1, 2, 5])
def test_spec_outcome_must_be_0_or_1(outcome):
    with pytest.raises(ValueError, match="outcome must be 0 or 1, got"):
        default_spec("threedim", outcome=outcome)


@pytest.mark.parametrize("k", [0, -3, 1.5])
def test_spec_k_must_be_a_positive_integer(k):
    with pytest.raises(ValueError, match=f"k must be a positive integer, got {k}"):
        default_spec("swap", k=k)


@pytest.mark.parametrize("key, value, needle", [
    ("outcome", 1.0, "outcome must be 0 or 1, got 1.0"),
    ("outcome", True, "outcome must be 0 or 1, got True"),
    ("k", True, "k must be a positive integer, got True"),
    ("k", 3.0, "k must be a positive integer, got 3.0"),
])
def test_spec_integer_fields_reject_bools_and_floats(key, value, needle):
    with pytest.raises(ValueError, match=needle):
        default_spec("threedim" if key == "outcome" else "swap", **{key: value})


def test_spec_integer_fields_store_numpy_integers_as_ints():
    spec = default_spec("threedim", outcome=np.int64(1), k=np.int32(3))
    assert type(spec.k) is int and type(spec.outcome) is int
    assert (spec.k, spec.outcome) == (3, 1)
    assert json.loads(json.dumps(run(spec).to_dict()))["k"] == 3


@pytest.mark.parametrize("outcome", [1.0, 0.5, True, (1.0,), ([1],)])
def test_hadamard_outcomes_must_be_integers(space1, outcome):
    psi = space1.ket(a="g_l", b="g_l", c="g_r")
    with pytest.raises(ValueError, match="outcomes must be 0 or 1"):
        hadamard_and_reduce(psi, ["F_l"], ("a",), outcome=outcome)


def test_hadamard_takes_numpy_integer_outcomes(space1):
    psi = space1.ket(a="g_l", b="g_l", c="g_r")
    rho, p = hadamard_and_reduce(psi, ["F_l"], ("a",), outcome=np.int64(0))
    assert abs(p - 0.5) < 1e-12


@pytest.mark.parametrize("key,value,choices", [
    ("branch", "up", "'left', 'right', 'combined'"),
    ("engine", "fast", "'effective', 'full'"),
    ("interpretation", "ignore", "'postselect', 'trace'"),
    ("convention", "mirror", "'unitary', 'beamsplitter'"),
])
def test_spec_names_the_choices_of_a_bad_value(key, value, choices):
    with pytest.raises(ValueError, match=f"{key} must be one of {choices}, got '{value}'"):
        default_spec("state_transfer", **{key: value})


_CHOICES = [member for kind in (zc.Branch, Protocol, Engine, Interpretation, GateConvention)
            for member in kind]


@pytest.mark.parametrize("member", _CHOICES, ids=lambda m: f"{type(m).__name__}.{m.name}")
def test_a_choice_renders_as_its_bare_value(member):
    # CLI output, result JSON and error messages print members as they print their values
    assert str(member) == f"{member}" == member.value
    assert json.dumps(member) == json.dumps(member.value)


def test_run_rejects_mismatched_model(st_model):
    spec = default_spec("bell")
    for model in (st_model, "model", spec.params):  # another branch's model, then no model
        with pytest.raises(ValueError, match="supplied model does not match the protocol spec"):
            run(spec, model=model)


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


@pytest.mark.parametrize("spec", _every_branch_spec(), ids=str)
def test_the_run_target_is_the_paper_target(spec):
    target = zc.embed(run(spec, zc.build_branch_model(spec.params, spec.branch)).target)
    paper = oracles.paper_target(spec, target.space)
    assert abs(abs(np.vdot(paper.vec, target.vec)) ** 2 - 1.0) <= 1e-12


def _outcome(spec, model=None, function=run):
    """A run's JSON, final-state type, space and bytes and target bytes, or the type and
    message of an error ``run()`` documents; any other exception fails the test."""
    try:
        result = function(spec, model)
    except (ValueError, FloatingPointError, OverflowError) as exc:
        return type(exc), str(exc)
    final = result.final_state
    array = final.vec if isinstance(final, zc.State) else final.mat
    return (json.dumps(result.to_dict()), type(final), final.space, array.dtype, array.tobytes(),
            result.target.space, result.target.vec.tobytes())


@settings(max_examples=40)
@given(pair=st.sampled_from([(p, b) for p in Protocol for b in _PROTOCOLS[p].branches]),
       drive=st.floats(0.5, 2.0),
       choices=st.lists(st.tuples(st.sampled_from(list(Engine)),
                                  st.sampled_from(list(Interpretation)), st.integers(0, 1),
                                  st.sampled_from(list(GateConvention)), st.integers(1, 3)),
                        min_size=1, max_size=6),
       order=st.randoms(use_true_random=False))
def test_runs_on_one_shared_model_match_runs_on_fresh_models_byte_for_byte(pair, drive, choices,
                                                                          order):
    # the shared model decomposes each engine on its first run and reuses it in any order
    protocol, branch = pair
    base = default_spec(protocol, branch=branch)
    params = replace(base.params, omega1=drive * base.params.omega1)
    specs = [replace(base, params=params, engine=engine, interpretation=interpretation,
                     outcome=outcome, convention=convention, k=k)
             for engine, interpretation, outcome, convention, k in choices]
    fresh = [_outcome(spec) for spec in specs]
    model = zc.build_branch_model(params, branch)
    sequence = list(range(len(specs))) * 2
    order.shuffle(sequence)
    for i in sequence:
        assert _outcome(specs[i], model) == fresh[i]


# drive ratios in the Zeno regime, out of it, and past the phase-error flag and failure
_LOG_RATIO = st.floats(math.log(1e-14), math.log(0.5))


@settings(max_examples=150)
@given(pair=st.sampled_from([(p, b) for p in Protocol for b in _PROTOCOLS[p].branches]),
       couplings=st.one_of(st.none(), st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0))),
       log_r=_LOG_RATIO,
       seconds=st.tuples(*[st.one_of(st.sampled_from(["zero", "equal"]), _LOG_RATIO)
                           for _ in range(2)]),
       one_clock=st.booleans(),
       choices=st.lists(st.tuples(st.sampled_from(list(Engine)),
                                  st.sampled_from(list(Interpretation)), st.integers(0, 1),
                                  st.sampled_from(list(GateConvention)), st.integers(1, 3)),
                        min_size=1, max_size=4))
def test_run_is_the_reference_run_byte_for_byte(pair, couplings, log_r, seconds, one_clock,
                                                choices):
    # one model per example, so that later specs take the warm path of the first
    protocol, branch = pair
    base = default_spec(protocol, branch=branch)
    g, lam = (base.params.g, base.params.lam) if couplings is None else couplings
    omega1 = math.exp(log_r) * min(g, lam)
    drives = [0.0 if s == "zero" else omega1 if s == "equal" else math.exp(s) * min(g, lam)
              for s in seconds]
    if one_clock:  # else the combined branch refuses its timing
        drives[1] = drives[0]
    params = zc.UniformParams(g=g, lam=lam, omega1=omega1, omega2=drives[0], omega3=drives[1])
    model = zc.build_branch_model(params, branch)
    for engine, interpretation, outcome, convention, k in choices:
        spec = replace(base, params=params, engine=engine, interpretation=interpretation,
                       outcome=outcome, convention=convention, k=k)
        assert _outcome(spec, model) == _outcome(spec, model, oracles.reference_run)
    assert _outcome(spec) == _outcome(spec, None, oracles.reference_run)


def test_a_warm_run_builds_no_space_and_no_ket(monkeypatch):
    specs = _every_branch_spec()
    zc.protocols._plan.cache_clear()  # a plan an earlier test cached is no warm-up of this one
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


# (protocol, branch, the field offset, the field it must equal, the flag when they differ)
_EQUALITIES = [
    ("threedim", "left", "g", "lam", "equal couplings g = lam assumed by this protocol"),
    ("sixdim", "combined", "g", "lam", "equal couplings g = lam assumed by this protocol"),
    ("swap", "left", "omega2", "omega1", "swap assumes equal drives on both atoms"),
    ("swap", "right", "omega3", "omega1", "swap assumes equal drives on both atoms"),
    ("ghz", "combined", "omega1", "omega2", "ghz assumes omega1 = omega2 = omega3"),
]


@pytest.mark.parametrize("offset, flagged", [(0.0, False), (5e-13, False), (2e-12, True),
                                             (1e-9, True)])
@pytest.mark.parametrize("protocol, branch, field, reference, flag", _EQUALITIES,
                         ids=[f"{p}-{b}" for p, b, *_ in _EQUALITIES])
def test_an_assumed_equality_holds_to_a_relative_1e_12(protocol, branch, field, reference,
                                                       flag, offset, flagged):
    spec = default_spec(protocol, branch=branch)
    value = getattr(spec.params, reference) * (1 + offset)
    flags = run(replace(spec, params=replace(spec.params, **{field: value}))).flags
    assert (flag in flags) == flagged


@pytest.mark.parametrize("probability, refused", [(1.01e-12, False), (2e-12, False),
                                                  (0.99e-12, True), (1e-13, True)])
@pytest.mark.parametrize("convention, outcome, photons", [
    (GateConvention.UNITARY, 0, 0),       # H|0> = (|0> + |1>)/sqrt2: outcome 0 keeps half
    (GateConvention.BEAMSPLITTER, 1, 1),  # a photon stays with amplitude -1/sqrt2
])
def test_a_post_selection_is_refused_below_a_probability_of_1e_12(space1, probability, refused,
                                                                  convention, outcome, photons):
    # the only amplitude, sqrt(2 p), on the fiber photon number `photons` gives outcome
    # `outcome` probability p
    atoms = dict(a="g_l", b="g_l", c="g_r")
    psi = space1.ket(**atoms, F_l=photons) * math.sqrt(2 * probability)
    args = (psi, ["F_l"], ("a", "b"), Interpretation.POSTSELECT, outcome, convention)
    if refused:
        refusal = f"outcome(s) [{outcome}] has probability ~0"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            hadamard_and_reduce(*args)
    else:
        _, p = hadamard_and_reduce(*args)
        assert p == pytest.approx(probability, rel=1e-12)


def test_a_refusal_names_its_outcomes_as_plain_ints(space1):
    psi = space1.ket(a="g_l", b="g_l", c="g_r")  # vacuum: no photon can click behind the splitter
    for outcome in (np.int64(1), [np.int64(1)], np.array([1])):
        with pytest.raises(ValueError, match=re.escape("post-selection on outcome(s) [1] has")):
            hadamard_and_reduce(psi, ["F_l"], ("a",), outcome=outcome, convention="beamsplitter")


# the protocols that assume each sector's cavity-B drive is zero
ONE_DRIVE = (Protocol.STATE_TRANSFER, Protocol.THREE_DIM, Protocol.BELL, Protocol.SIX_DIM)
SECOND_DRIVE = {zc.Branch.LEFT: "omega2", zc.Branch.RIGHT: "omega3"}


@settings(max_examples=60)
@given(protocol=st.sampled_from(ONE_DRIVE), branch_index=st.integers(0, 1),
       engine=st.sampled_from(Engine), g=st.floats(0.3, 3.0), lam=st.floats(0.3, 3.0),
       log_r=st.floats(math.log(1e-4), math.log(0.05)),
       seconds=st.tuples(*[st.one_of(st.just(0.0), st.floats(math.log(1e-4), math.log(0.05)))
                           for _ in range(2)]))
def test_a_second_drive_is_flagged_exactly_when_it_is_nonzero(protocol, branch_index, engine,
                                                              g, lam, log_r, seconds):
    branches = _PROTOCOLS[protocol].branches
    branch = branches[branch_index % len(branches)]
    strong = min(g, lam)
    drives = [0.0 if s == 0.0 else math.exp(s) * strong for s in seconds]
    if branch is zc.Branch.COMBINED:
        drives[1] = drives[0]  # one pulse clock for both sectors
    params = zc.UniformParams(g=g, lam=lam, omega1=math.exp(log_r) * strong,
                              omega2=drives[0], omega3=drives[1])
    flags = run(default_spec(protocol, branch=branch, engine=engine, params=params)).flags
    names = [SECOND_DRIVE[sector] for sector in branch.sectors]
    flag = f"{protocol} assumes {' = '.join(names)} = 0"
    # a drive outside the run's sectors does not enter its model
    assert (flag in flags) == any(getattr(params, name) != 0 for name in names)
    assert not any("assumes" in f and f != flag for f in flags)


# The propagator's phases E * t carry an absolute error of about eps * max|E| * |t|,
# and a fidelity drifts from its exact value by about the square of that error: on
# bell at g = 0.1, lam = 1, a phase error of 7.0e-3 (omega1 = 1e-13) drifts 4.9e-5
# from the closed form, one of 7.0e-7 (omega1 = 1e-9) 3.8e-13. Above a phase error
# of 1e-6 the run is flagged; above 1e-2 it fails. Stated for bell on the full
# engine inside its regime: lam in [0.5, 2], g/lam in [0.02, 0.2], and r =
# omega1 / g log-uniform in [1e-13, 1e-2]. The lower end is past the failure edge
# for every g/lam drawn (r = 3.6e-13 at g/lam = 0.2, 3.5e-12 at 0.02).
PHASE_FLAG = "phase error eps*max|E|*|t| = "


@settings(max_examples=60)
@given(lam=st.floats(0.5, 2.0), g_over_lam=st.floats(0.02, 0.2),
       log_r=st.floats(math.log(1e-13), math.log(1e-2)))
def test_bell_meets_its_closed_form_or_flags_its_phase_error(lam, g_over_lam, log_r):
    g = g_over_lam * lam
    r = math.exp(log_r)
    spec = default_spec("bell", params=zc.UniformParams(g=g, lam=lam, omega1=r * g))
    assert spec.engine is Engine.FULL
    try:
        res = run(spec)
    except FloatingPointError:  # a phase error above 1e-2: the CLI exits 1
        return
    closed = 2 * lam**2 / (g**2 + 2 * lam**2)
    assert (abs(res.fidelity - closed) <= ENGINE_GAP_C1 * r + 2e-12
            or any(flag.startswith(PHASE_FLAG) for flag in res.flags))


# The whole protocol against oracles.full_space_protocol, which runs it in the full
# 3456-dimensional space with none of the sector machinery. r = drive / min(g, lam) stays
# at 1e-2 or above because expm_multiply's cost grows with tau * ||H||, and tau grows as
# 1/r: at r = 1e-2 a case takes 0.2-2 s on 2 vCPUs, at r = 1e-4 six cases took over 300 s.
# g/lam is in [0.5, 2], and in [0.1, 0.2] for bell, the regime it is defined in.
_ORACLE_BASE = dict(branch=0, outcome=0, lam=1.0, spread=0.5, log_r=math.log(5e-2))


@settings(max_examples=8)
@example(protocol=Protocol.STATE_TRANSFER, convention=GateConvention.UNITARY,
         interpretation=Interpretation.POSTSELECT, **{**_ORACLE_BASE, "branch": 2})
@example(protocol=Protocol.THREE_DIM, convention=GateConvention.BEAMSPLITTER,
         interpretation=Interpretation.POSTSELECT, **{**_ORACLE_BASE, "branch": 1, "outcome": 1})
@example(protocol=Protocol.BELL, convention=GateConvention.UNITARY,
         interpretation=Interpretation.POSTSELECT, **{**_ORACLE_BASE, "spread": 0.0})
@example(protocol=Protocol.SWAP, convention=GateConvention.UNITARY,
         interpretation=Interpretation.POSTSELECT, **{**_ORACLE_BASE, "branch": 1})
@example(protocol=Protocol.GHZ, convention=GateConvention.UNITARY,
         interpretation=Interpretation.POSTSELECT, **_ORACLE_BASE)
@example(protocol=Protocol.SIX_DIM, convention=GateConvention.BEAMSPLITTER,
         interpretation=Interpretation.TRACE, **_ORACLE_BASE)
@example(protocol=Protocol.SIX_DIM, convention=GateConvention.UNITARY,
         interpretation=Interpretation.POSTSELECT, **{**_ORACLE_BASE, "outcome": 1})
# both fiber modes on outcome 1 after the splitter: one photon cannot give that
@example(protocol=Protocol.SIX_DIM, convention=GateConvention.BEAMSPLITTER,
         interpretation=Interpretation.POSTSELECT, **{**_ORACLE_BASE, "outcome": 1})
@given(protocol=st.sampled_from(list(Protocol)), branch=st.integers(0, 2),
       convention=st.sampled_from(list(GateConvention)),
       interpretation=st.sampled_from(list(Interpretation)), outcome=st.integers(0, 1),
       lam=st.floats(0.5, 2.0), spread=st.floats(0.0, 1.0),
       log_r=st.floats(math.log(1e-2), math.log(5e-2)))
def test_run_matches_the_full_space_oracle(protocol, branch, convention, interpretation,
                                           outcome, lam, spread, log_r):
    g = lam * (0.1 * 2**spread if protocol == Protocol.BELL else 0.5 * 4**spread)
    drive = math.exp(log_r) * min(g, lam)
    pi_pulse = _PROTOCOLS[protocol].pulse == zc.PI  # swap and ghz drive every atom
    drives = ("omega1", "omega2", "omega3") if pi_pulse else ("omega1",)
    branches = _PROTOCOLS[protocol].branches
    spec = ProtocolSpec(protocol, branches[branch % len(branches)],
                        zc.UniformParams(g=g, lam=lam, **dict.fromkeys(drives, drive)),
                        interpretation=interpretation, outcome=outcome, convention=convention)
    tau = zc.solve_timing(spec.params, spec.branch, _PROTOCOLS[protocol].pulse)
    want = oracles.full_space_protocol(spec, tau)
    if want[2] is not None and want[2] < ZERO_PROBABILITY_TOL:
        with pytest.raises(ValueError, match="probability"):
            run(spec)
        return
    res = run(spec)
    assert res.tau == tau
    for got, value in zip((res.fidelity, res.negativity, res.success_probability), want):
        assert (got is None) == (value is None)
        assert got is None or abs(got - value) < 1e-10


def _paper_fidelity(result) -> float:
    """``result``'s final state scored against the target the paper writes."""
    final = result.final_state
    if isinstance(final, zc.DensityOp):
        target = oracles.paper_target(result.spec, final.space).vec
        return float(np.real(np.vdot(target, final.mat @ target)))
    final = zc.embed(final)
    return abs(np.vdot(oracles.paper_target(result.spec, final.space).vec, final.vec)) ** 2


# Every protocol, branch, engine, gate convention, interpretation and outcome, at random
# couplings and drive strengths: run() scores against the same state the paper writes.
@settings(max_examples=200)
@given(protocol=st.sampled_from(list(Protocol)), branch=st.integers(0, 2),
       engine=st.sampled_from(list(Engine)), convention=st.sampled_from(list(GateConvention)),
       interpretation=st.sampled_from(list(Interpretation)), outcome=st.integers(0, 1),
       g=st.floats(0.2, 5.0), lam=st.floats(0.2, 5.0), drive=st.floats(0.3, 3.0))
def test_run_scores_against_the_paper_target(protocol, branch, engine, convention,
                                             interpretation, outcome, g, lam, drive):
    defaults = default_spec(protocol)
    p = defaults.params
    branches = _PROTOCOLS[protocol].branches
    spec = replace(defaults, branch=branches[branch % len(branches)], engine=engine,
                   convention=convention, interpretation=interpretation, outcome=outcome,
                   params=zc.UniformParams(g, lam, *(drive * w for w in (p.omega1, p.omega2,
                                                                         p.omega3))))
    try:
        res = run(spec)
    except ValueError as exc:  # both fiber modes on outcome 1 behind the splitters
        assert "probability ~0" in str(exc)
        return
    assert abs(res.fidelity - _paper_fidelity(res)) <= 1e-10


# Every protocol and branch, at random couplings and drives: run()'s pulse time is the
# arrival-th time the dark-block evolution peaks on the pulse's end state, D2 for a half-pi
# pulse and D1 for a pi pulse. A pi pulse reaches D1 at odd k only: arrival n is k = 2n - 1.
@settings(max_examples=60)
@example(protocol=Protocol.SWAP, branch=1, arrival=2, g=1.0, lam=1.0, drive=0.01, ratio=1.0)
@example(protocol=Protocol.SIX_DIM, branch=0, arrival=3, g=1.0, lam=1.0, drive=0.01, ratio=1.0)
@given(protocol=st.sampled_from(list(Protocol)), branch=st.integers(0, 2),
       arrival=st.integers(1, 3), g=st.floats(0.2, 5.0), lam=st.floats(0.2, 5.0),
       drive=st.floats(1e-3, 0.3), ratio=st.floats(0.3, 3.0))
def test_run_pulse_time_matches_the_evolution_oracle(protocol, branch, arrival, g, lam, drive,
                                                     ratio):
    pi_pulse = _PROTOCOLS[protocol].pulse == zc.PI
    second = drive * ratio if pi_pulse else 0.0  # swap and ghz need the cavity-B drive
    branches = _PROTOCOLS[protocol].branches
    spec = ProtocolSpec(protocol, branches[branch % len(branches)],
                        zc.UniformParams(g, lam, drive, second, second),
                        k=2 * arrival - 1 if pi_pulse else arrival, engine=Engine.EFFECTIVE)
    tau = run(spec).tau
    for sector in spec.branch.sectors:  # the combined branch runs both sectors on one clock
        want = oracles.pulse_time(spec.params, sector, 1 if pi_pulse else 2, arrival)
        assert abs(tau - want) <= 1e-9 * want


def test_default_params_table():
    assert default_spec("bell").params == zc.UniformParams(g=0.1, lam=1.0, omega1=0.001)
    assert default_spec("swap").params.omega2 == 0.01
    ghz = default_spec("ghz").params
    assert ghz.omega1 == ghz.omega2 == ghz.omega3 == 0.01
    assert default_spec("sixdim").params == zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)
    assert default_spec("sixdim").branch is zc.Branch.COMBINED
    assert default_spec("bell").branch is zc.Branch.LEFT


@pytest.mark.parametrize("call, message", [
    (lambda: default_spec("bell", params=None), "expected UniformParams, got NoneType"),
    (lambda: ProtocolSpec("bell", "left", {"g": 1.0, "lam": 1.0}),
     "expected UniformParams, got dict"),
    (lambda: zc.build_branch_model(None, "left"), "expected UniformParams, got NoneType"),
    (lambda: run(None), "expected ProtocolSpec, got NoneType"),
    (lambda: run(default_spec("bell").params), "expected ProtocolSpec, got UniformParams"),
], ids=["default_spec", "ProtocolSpec", "build_branch_model", "run-None", "run-params"])
def test_a_spec_or_model_needs_a_parameter_point(call, message):
    # the spec was built and its run, like the model build, raised AttributeError
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()
    for documented in (ProtocolSpec, zc.build_branch_model, run):
        assert "``TypeError``" in documented.__doc__
