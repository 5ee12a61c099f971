"""State-space layer: indexing, reductions, fidelity, negativity, mode gates."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import zenocavity as zc
from zenocavity import spaces
from zenocavity.model import initial_state
from zenocavity.protocols import _HADAMARD, _KRAUS, _POSTSELECTED
from zenocavity.spaces import (
    NEGATIVITY_DIM_CAP,
    InvalidSubsystemError,
    SpaceMismatchError,
    SubsystemSpec,
    density,
    inner,
)

ATOL = 1e-12

# the register's factors, spelled out here so that no test reads them from the code under test
MODE_NAMES = ("A_l", "A_r", "B_l", "B_r", "F_l", "F_r")


def atom_a():
    return SubsystemSpec("a", levels=("f_l", "e_l", "g_l", "f_r", "e_r", "g_r"))


def atom_b():
    return SubsystemSpec("b", levels=("f_l", "e_l", "g_l"))


def boson_mode(name, cutoff=1):
    return SubsystemSpec(name, cutoff=cutoff)


def _random_state(space, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return zc.State(space, vec / np.linalg.norm(vec))


def _pair_space():
    return zc.HilbertSpace([atom_a(), atom_b()])


# ---------------------------------------------------------------------------
# subsystems and indexing
# ---------------------------------------------------------------------------

def test_subsystem_spec_needs_exactly_one_kind():
    with pytest.raises(InvalidSubsystemError):
        zc.SubsystemSpec("x", levels=("a", "b"), cutoff=1)
    with pytest.raises(InvalidSubsystemError):
        zc.SubsystemSpec("x")
    with pytest.raises(InvalidSubsystemError):
        zc.SubsystemSpec("x", cutoff=0)
    with pytest.raises(InvalidSubsystemError):
        zc.SubsystemSpec("x", levels=("a", "a"))
    assert boson_mode("m", cutoff=2).dim == 3
    assert atom_a().dim == 6


_NOT_AN_INTEGER_CUTOFF = "photon cutoff must be an integer >= 1"


@pytest.mark.parametrize("cutoff", [1.5, 2.0, np.float64(1.0), "2", True], ids=repr)
def test_a_mode_cutoff_is_an_integer(cutoff):
    with pytest.raises(InvalidSubsystemError, match=_NOT_AN_INTEGER_CUTOFF):
        SubsystemSpec("m", cutoff=cutoff)


def test_a_register_cutoff_is_an_integer():
    zc.full_space(2)  # a register cached for 2 answers for neither 2.0 nor True
    for cutoff in (1.5, 2.0, True):
        with pytest.raises(InvalidSubsystemError, match=_NOT_AN_INTEGER_CUTOFF):
            zc.full_space(cutoff)
    mode = SubsystemSpec("m", cutoff=np.int64(2))
    assert type(mode.cutoff) is int and mode == boson_mode("m", cutoff=2)
    assert zc.full_space(np.int64(2)) == zc.full_space(2)


def test_standard_space_shape(space1):
    assert space1.dims == (6, 3, 3, 2, 2, 2, 2, 2, 2)
    assert space1.dim == 3456
    assert [s.name for s in space1.subsystems] == ["a", "b", "c", *MODE_NAMES]


@pytest.mark.parametrize("cutoff", [1, 2])
def test_the_register_is_the_nine_factors_of_the_paper(cutoff):
    atom_c = SubsystemSpec("c", levels=("f_r", "e_r", "g_r"))
    assert zc.full_space(cutoff).subsystems == (
        atom_a(), atom_b(), atom_c, *(boson_mode(name, cutoff) for name in MODE_NAMES))


def test_index_occupation_roundtrip(space1):
    rng = np.random.default_rng(7)
    picks = [0, space1.dim - 1] + list(rng.integers(0, space1.dim, size=50))
    for i in picks:
        assert space1.index(oracles.occupation(space1, int(i))) == int(i)


def test_index_is_lexicographic(space1):
    # last factor is least significant: one F_r photon flips the lowest bit
    base = space1.ket(a="f_l", b="f_l", c="f_r")
    assert int(np.argmax(np.abs(base.vec))) == 0
    shifted = space1.ket(a="f_l", b="f_l", c="f_r", F_r=1)
    assert int(np.argmax(np.abs(shifted.vec))) == 1


def test_index_validation(space1):
    with pytest.raises(InvalidSubsystemError):
        space1.index((0,) * 8)
    with pytest.raises(InvalidSubsystemError):
        space1.index((6, 0, 0, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("photons", [0.5, 1.0, True, "1"], ids=["half", "float", "bool", "str"])
def test_a_photon_number_is_an_integer(space1, photons):
    # 0.5 photons in A_l indexed basis state 528: neither vacuum (512) nor one photon (544)
    with pytest.raises(InvalidSubsystemError, match="must hold integers"):
        space1.ket(a="f_l", b="g_l", c="g_r", A_l=photons)
    with pytest.raises(InvalidSubsystemError, match="must hold integers"):
        space1.index((0, 0, 0, photons, 0, 0, 0, 0, 0))


def test_ket_defaults_and_errors(space1):
    k = space1.ket(a="g_l", b="g_l", c="g_r", A_l=1)
    occ = oracles.occupation(space1, int(np.argmax(np.abs(k.vec))))
    assert occ[3] == 1 and sum(occ[4:]) == 0  # other modes default to vacuum
    with pytest.raises(InvalidSubsystemError):
        space1.ket(a="g_l", b="g_l")  # atom c unassigned
    with pytest.raises(InvalidSubsystemError):
        space1.ket(a="nope", b="g_l", c="g_r")
    with pytest.raises(InvalidSubsystemError):
        space1.ket(a="g_l", b="g_l", c="g_r", Q=1)


def test_space_equality_and_mismatch():
    s1, s2 = _pair_space(), _pair_space()
    assert s1 == s2 and hash(s1) == hash(s2)
    a = _random_state(s1, 0)
    b = _random_state(zc.HilbertSpace([atom_a()]), 0)
    with pytest.raises(SpaceMismatchError):
        inner(a, b)


# ---------------------------------------------------------------------------
# states and restricted spaces
# ---------------------------------------------------------------------------

def test_state_algebra():
    sp = _pair_space()
    x, y = _random_state(sp, 1), _random_state(sp, 2)
    z = 2.0 * x + (-1) * (y * 0.5)
    assert np.allclose(z.vec, 2.0 * x.vec - 0.5 * y.vec)
    with pytest.raises(SpaceMismatchError):
        x + _random_state(zc.HilbertSpace([atom_b()]), 1)
    with pytest.raises(SpaceMismatchError):
        zc.State(sp, np.zeros(3))


def test_restricted_space_roundtrip(space1):
    sub = zc.RestrictedSpace(space1, (5, 0, 17))
    local = np.array([1.0, 2.0, 3.0])
    parent = sub.embed(local)
    assert parent[5] == 1.0 and parent[0] == 2.0 and parent[17] == 3.0
    assert np.allclose(sub.project(parent), local)
    assert sub.local_index(17) == 2
    with pytest.raises(InvalidSubsystemError):
        sub.local_index(1)
    with pytest.raises(InvalidSubsystemError):
        zc.RestrictedSpace(space1, (0, 0))


def test_embed_lifts_restricted_kets(space1):
    sub = zc.RestrictedSpace(space1, (3, 9))
    psi = zc.State(sub, np.array([0.6, 0.8j]))
    lifted = zc.embed(psi)
    assert lifted.space is space1
    assert abs(lifted.norm() - 1.0) < ATOL
    assert zc.embed(lifted) is lifted


@pytest.mark.parametrize("value", [1, None, "psi"], ids=["int", "None", "str"])
def test_embed_names_what_is_not_a_state(value):
    # it read value.space and raised AttributeError
    with pytest.raises(TypeError, match=f"expected State, got {type(value).__name__}$"):
        zc.embed(value)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_pure_and_density_paths_agree():
    sp = zc.HilbertSpace([atom_a(), atom_b(), boson_mode("m")])
    psi = _random_state(sp, 3)
    r1 = zc.partial_trace(psi, ("a", "m"))
    r2 = zc.partial_trace(density(psi), ("a", "m"))
    assert np.allclose(r1.mat, r2.mat, atol=ATOL)
    assert r1.space.dims == (6, 2)
    assert abs(np.trace(r1.mat) - 1.0) < ATOL
    assert np.allclose(r1.mat, r1.mat.conj().T, atol=ATOL)


def test_partial_trace_keep_order_is_tensor_order():
    sp = zc.HilbertSpace([atom_a(), atom_b(), boson_mode("m")])
    psi = _random_state(sp, 4)
    # whichever way keep is written, factors stay in subsystem order
    assert np.allclose(
        zc.partial_trace(psi, ("m", "a")).mat,
        zc.partial_trace(psi, ("a", "m")).mat,
        atol=ATOL,
    )


def test_partial_trace_product_state_factorizes():
    sp = _pair_space()
    va = np.zeros(6, dtype=complex)
    va[1], va[4] = 0.6, 0.8j
    vb = np.zeros(3, dtype=complex)
    vb[0], vb[2] = 1 / math.sqrt(2), 1j / math.sqrt(2)
    psi = zc.State(sp, np.kron(va, vb))
    ra = zc.partial_trace(psi, ("a",)).mat
    rb = zc.partial_trace(psi, ("b",)).mat
    assert np.allclose(ra, np.outer(va, va.conj()), atol=ATOL)
    assert np.allclose(rb, np.outer(vb, vb.conj()), atol=ATOL)


def test_partial_trace_keep_all_and_errors(space1):
    sp = _pair_space()
    psi = _random_state(sp, 5)
    rho = zc.partial_trace(psi, ("a", "b"))
    assert np.allclose(rho.mat, density(psi).mat, atol=ATOL)
    sub = zc.RestrictedSpace(space1, (0, 1))
    with pytest.raises(SpaceMismatchError):
        zc.partial_trace(zc.DensityOp(sub, np.eye(2) / 2), ("a",))
    with pytest.raises(InvalidSubsystemError):
        zc.partial_trace(psi, ("a", "a"))
    with pytest.raises(TypeError):
        zc.partial_trace(psi.vec, ("a",))


@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_always_unit_trace_and_psd(seed):
    sp = zc.HilbertSpace([atom_b(), boson_mode("m"), boson_mode("n")])
    rho = zc.partial_trace(_random_state(sp, seed), ("b", "n"))
    assert abs(np.trace(rho.mat) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho.mat).min() > -1e-10


# ---------------------------------------------------------------------------
# fidelity and negativity
# ---------------------------------------------------------------------------

def test_fidelity_pure_and_mixed():
    sp = _pair_space()
    psi = _random_state(sp, 6)
    assert abs(zc.fidelity(psi, psi) - 1.0) < ATOL
    phi = _random_state(sp, 7)
    f = zc.fidelity(psi, phi)
    assert 0.0 <= f <= 1.0 + ATOL
    assert abs(zc.fidelity(density(psi), phi) - f) < ATOL
    with pytest.raises(ValueError):
        zc.fidelity(psi, zc.State(sp, 2.0 * phi.vec))
    with pytest.raises(TypeError):
        zc.fidelity(psi.vec, phi)


@pytest.mark.parametrize("excess", [0.5e-9, 0.9e-9, 2e-9, 1e-6])
@pytest.mark.parametrize("mixed", [False, True])
def test_fidelity_checks_the_target_norm_at_1e_9_and_overlap_does_not(excess, mixed):
    # a target one part in 1e9 off its norm is accepted, two parts are not
    sp = _pair_space()
    psi = _random_state(sp, 6)
    state = density(psi) if mixed else psi
    target = zc.State(sp, (1.0 + excess) * _random_state(sp, 7).vec)
    unchecked = spaces.overlap(state, target)
    if excess < 1e-9:
        assert zc.fidelity(state, target) == unchecked
    else:
        with pytest.raises(ValueError, match="target is not normalized"):
            zc.fidelity(state, target)
    assert abs(unchecked - zc.fidelity(state, target * (1.0 / (1.0 + excess)))
               * (1.0 + excess) ** 2) < ATOL


def _negativity_by_loops(rho, dims, part):
    """Element-by-element partial transpose; independent of the library path."""
    d = rho.shape[0]
    out = np.zeros_like(rho)
    for i in range(d):
        for j in range(d):
            oi = list(np.unravel_index(i, dims))
            oj = list(np.unravel_index(j, dims))
            for ax in part:
                oi[ax], oj[ax] = oj[ax], oi[ax]
            out[np.ravel_multi_index(tuple(oi), dims),
                np.ravel_multi_index(tuple(oj), dims)] = rho[i, j]
    evals = np.linalg.eigvalsh(out)
    return float(-evals[evals < 0].sum())


def test_negativity_three_term_state_is_one_third():
    # (|eg> - |gg> + |ge>)/sqrt(3) across the atom pair
    sp = zc.HilbertSpace([atom_b(), zc.SubsystemSpec("b2", levels=atom_b().levels)])
    e, g = "e_l", "g_l"
    psi = (sp.ket(b=e, b2=g) + (-1) * sp.ket(b=g, b2=g) + sp.ket(b=g, b2=e)) * (
        1 / math.sqrt(3)
    )
    n = zc.negativity(psi, ("b",))
    assert abs(n - 1.0 / 3.0) < 1e-12
    brute = _negativity_by_loops(density(psi).mat, sp.dims, [0])
    assert abs(n - brute) < 1e-12


def test_negativity_bell_and_product():
    sp = zc.HilbertSpace([boson_mode("p"), boson_mode("q")])
    bell = (sp.ket(p=0, q=1) + sp.ket(p=1, q=0)) * (1 / math.sqrt(2))
    assert abs(zc.negativity(bell, ("p",)) - 0.5) < 1e-12
    product = sp.ket(p=1, q=0)
    assert zc.negativity(product, ("q",)) < 1e-12
    # partial transpose is basis-symmetric: either side gives the same value
    assert abs(zc.negativity(bell, ("p",)) - zc.negativity(bell, ("q",))) < 1e-12


def test_negativity_validation(space1):
    sp = _pair_space()
    psi = _random_state(sp, 8)
    with pytest.raises(InvalidSubsystemError):
        zc.negativity(psi, ())
    with pytest.raises(InvalidSubsystemError):
        zc.negativity(psi, ("a", "b"))
    big = zc.HilbertSpace([atom_a(), boson_mode("x", 3), boson_mode("y", 3)])
    with pytest.raises(ValueError):
        zc.negativity(big.ket(a="f_l"), ("x",))  # dim 96 > cap
    sub = zc.RestrictedSpace(space1, (0, 1))
    with pytest.raises(SpaceMismatchError):
        zc.negativity(zc.DensityOp(sub, np.eye(2) / 2), ("a",))


@given(seed=st.integers(0, 2**32 - 1))
def test_negativity_invariant_under_local_unitary(seed):
    sp = zc.HilbertSpace([atom_b(), boson_mode("m")])
    psi = _random_state(sp, seed)
    rng = np.random.default_rng(seed + 1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rotated = zc.State(sp, (np.kron(q, np.eye(2)) @ psi.vec))
    assert abs(
        zc.negativity(psi, ("b",)) - zc.negativity(rotated, ("b",))
    ) < 1e-10


# ---------------------------------------------------------------------------
# mode gates
# ---------------------------------------------------------------------------

def test_hadamard_constant_is_unitary():
    assert np.allclose(_HADAMARD @ _HADAMARD.T, np.eye(2), atol=ATOL)


def test_the_hadamard_acts_on_one_axis(space1):
    psi = space1.ket(a="g_l", b="g_l", c="g_r", F_l=1)
    rho, p = zc.hadamard_and_reduce(psi, ["F_l"], ["a", "F_l"], "trace")
    assert p is None
    # H|1> = (|0> - |1>)/sqrt2 on F_l, and a spectator ket keeps no amplitude
    zero, one = (rho.space.ket(a="g_l", F_l=n).vec for n in (0, 1))
    out = (zero - one) / math.sqrt(2)
    assert np.allclose(rho.mat, np.outer(out, out.conj()), atol=ATOL)


@pytest.mark.parametrize("interpretation", list(zc.Interpretation))
def test_a_mode_gate_needs_a_cutoff_1_mode(space1, interpretation):
    psi = space1.ket(a="g_l", b="g_l", c="g_r")
    message = "is not a cutoff-1 boson mode"
    with pytest.raises(InvalidSubsystemError, match=message):
        zc.hadamard_and_reduce(psi, ["a"], ["b"], interpretation)
    sp2 = zc.HilbertSpace([atom_b(), boson_mode("m", cutoff=2)])
    with pytest.raises(InvalidSubsystemError, match=message):
        zc.hadamard_and_reduce(sp2.ket(b="g_l"), ["m"], ["b"], interpretation)


# every operator the protocols put on a mode, plus None for a random matrix
_MODE_OPERATORS = [None, _HADAMARD, *(op for ops in _KRAUS.values() for op in ops),
                   *(op for by_outcome in _POSTSELECTED.values() for ops in by_outcome
                     for op in ops)]


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODE_NAMES),
       mat=st.sampled_from(_MODE_OPERATORS), sparse=st.booleans(), data=st.data())
def test_a_one_mode_plan_is_the_tensordot_contraction_byte_for_byte(space1, seed, mode, mat,
                                                                    sparse, data):
    psi = data.draw(_sparse_kets(space1)) if sparse else _random_state(space1, seed)
    kept = data.draw(st.sampled_from(_kept_sets(space1, 216)))
    rng = np.random.default_rng(seed)
    if mat is None:
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    axis = space1.subsystem_index(mode)
    tensor = np.tensordot(mat, zc.embed(psi).vec.reshape(space1.dims), axes=([1], [axis]))
    gated = zc.State(space1, np.moveaxis(tensor, 0, axis).reshape(space1.dim))
    rho, p, neg = spaces.ReadoutPlan(psi.space, [(mode, [mat])], None, kept, None).read(psi.vec)
    assert (p, neg) == (None, None)
    assert rho.tobytes() == oracles.reduced_density(gated, kept).tobytes()


# ---------------------------------------------------------------------------
# gathers match the transpose formulations byte for byte
# ---------------------------------------------------------------------------

# signed zeros included: a gather must copy them, not recompute them
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


@st.composite
def _sparse_kets(draw, space):
    """A full-space or restricted ket on 1-60 basis states."""
    support = draw(st.lists(st.integers(0, space.dim - 1), min_size=1, max_size=60,
                            unique=True))
    amps = np.array([complex(draw(_PARTS), draw(_PARTS)) for _ in support])
    if draw(st.booleans()):
        return zc.State(zc.RestrictedSpace(space, tuple(support)), amps)
    vec = np.zeros(space.dim, dtype=complex)
    vec[support] = amps
    return zc.State(space, vec)


def _kept_sets(space, cap):
    """Every proper set of factor positions whose reduced space is at most ``cap``."""
    n = len(space.dims)
    return [kept for size in range(1, n) for kept in itertools.combinations(range(n), size)
            if math.prod(space.dims[i] for i in kept) <= cap]


@settings(max_examples=10)  # each example reduces to all 417 kept sets
@given(data=st.data())
def test_partial_trace_is_the_transpose_formulation_byte_for_byte(space1, data):
    psi = data.draw(_sparse_kets(space1))
    kept_sets = _kept_sets(space1, 216)
    assert len(kept_sets) == 417 and (0, 2) in kept_sets  # (a, c) is not a prefix
    for kept in kept_sets:
        got = zc.partial_trace(psi, kept)
        assert got.mat.tobytes() == oracles.reduced_density(psi, kept).tobytes(), kept


@given(data=st.data())
def test_negativity_is_the_transpose_formulation_byte_for_byte(space1, data):
    psi = data.draw(_sparse_kets(space1))
    kept = data.draw(st.sampled_from(
        [kept for kept in _kept_sets(space1, NEGATIVITY_DIM_CAP) if len(kept) > 1]))
    rho = zc.partial_trace(psi, kept)
    n = len(kept)
    for part in (p for size in range(1, n) for p in itertools.combinations(range(n), size)):
        got = np.float64(zc.negativity(rho, part))
        assert got.tobytes() == np.float64(oracles.negativity(rho, part)).tobytes(), part


# ---------------------------------------------------------------------------
# structure built once
# ---------------------------------------------------------------------------

def test_equal_spaces_hash_alike_and_keep_their_hash(space1):
    twin = zc.HilbertSpace(list(space1.subsystems))
    assert twin == space1 and hash(twin) == hash(space1) == hash(space1.subsystems)


def test_a_reduced_space_is_built_once_per_kept_set(space1):
    psi = space1.ket(a="g_l", b="g_l", c="g_r", F_l=1)
    first = zc.partial_trace(psi, ("a", "b")).space
    assert zc.partial_trace(psi, ("b", "a")).space is first
    assert zc.partial_trace(zc.partial_trace(psi, ("a", "b", "F_l")), ("a", "b")).space == first


def test_index_maps_are_read_only_and_a_warm_run_builds_none(space1):
    specs = [zc.default_spec(p, branch=b, convention=c, interpretation=i)
             for p, b in (("bell", "right"), ("threedim", "left"), ("threedim", "right"),
                          ("ghz", "combined"), ("sixdim", "combined"))
             for c in zc.GateConvention for i in zc.Interpretation]
    maps = (spaces._kept_block, spaces._partial_transpose)
    for spec in specs:
        zc.run(spec)  # the first run of a structure key may build its map
    built = [cached.cache_info().misses for cached in maps]
    for spec in specs:
        zc.run(replace(spec, params=replace(spec.params, g=1.1 * spec.params.g)))
    assert [cached.cache_info().misses for cached in maps] == built
    for index in (spaces._kept_block(space1, (space1.subsystem_index("F_r"),)),
                  spaces._kept_block(space1, (0, 2)),
                  spaces._partial_transpose(zc.HilbertSpace(list(space1.subsystems[:3])), (0,))):
        assert index.dtype == np.intp and index.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 0


def _spy_on_keep_positions(monkeypatch) -> list:
    """Record every keep set or partition that ``spaces`` resolves from now on."""
    calls, resolve = [], spaces._keep_positions
    monkeypatch.setattr(spaces, "_keep_positions",
                        lambda space, keep: calls.append(keep) or resolve(space, keep))
    return calls


def test_a_warm_run_resolves_no_keep_set(monkeypatch):
    specs = [zc.default_spec(p, branch=b)
             for p, b in (("bell", "right"), ("threedim", "left"), ("ghz", "combined"),
                          ("sixdim", "combined"))]
    for spec in specs:
        zc.run(spec)  # the first run of a structure key resolves its keep sets into its plan
    plans = zc.protocols._plan.cache_info()
    calls = _spy_on_keep_positions(monkeypatch)
    for spec in specs:
        zc.run(replace(spec, params=replace(spec.params, g=1.1 * spec.params.g)))
    assert calls == []
    after = zc.protocols._plan.cache_info()
    assert (after.misses, after.hits - plans.hits) == (plans.misses, len(specs))


_BAD_ENTRY = "a subsystem entry is a name or an integer index, got "


@pytest.mark.parametrize("keep, error, message", [
    (("a", "a"), InvalidSubsystemError, "duplicate entries in keep set ['a', 'a']"),
    ([0, 9], InvalidSubsystemError, "subsystem index 9 out of range"),
    (("Q",), InvalidSubsystemError, "no subsystem named 'Q'"),
    ([[0]], InvalidSubsystemError, _BAD_ENTRY + "[0]"),
])
def test_bad_keep_sets_fail_every_time_and_are_never_cached(space1, monkeypatch, keep, error,
                                                            message):
    psi = initial_state(space1, zc.Branch.LEFT)
    calls = _spy_on_keep_positions(monkeypatch)
    for _ in range(2):
        with pytest.raises(error, match=re.escape(message)):
            zc.partial_trace(psi, keep)
    assert len(calls) == 2  # resolved, and refused, on each call


@pytest.mark.parametrize("keep", [[0.7], [True], [0, 1.9], [np.float64(1.0)], [["a"]], [("a",)],
                                  [None]], ids=repr)
def test_a_keep_or_partition_entry_is_a_name_or_an_integer(space1, keep):
    psi = initial_state(space1, zc.Branch.LEFT)
    rho = zc.partial_trace(psi, ("a", "b"))
    message = re.escape(_BAD_ENTRY + repr(keep[-1]))
    for call in (lambda: zc.partial_trace(psi, keep), lambda: zc.negativity(rho, keep)):
        with pytest.raises(InvalidSubsystemError, match=message):
            call()


def test_a_bare_string_is_one_name(space1):
    psi = initial_state(space1, zc.Branch.LEFT)
    assert zc.partial_trace(psi, "a").mat.tobytes() == zc.partial_trace(psi, ["a"]).mat.tobytes()
    rho = zc.partial_trace(psi, ("a", "b"))
    for call in (lambda: zc.partial_trace(psi, "ab"), lambda: zc.negativity(rho, "ab")):
        with pytest.raises(InvalidSubsystemError, match="no subsystem named 'ab'"):
            call()


def test_numpy_integers_index_a_keep_set(space1):
    psi = initial_state(space1, zc.Branch.LEFT)
    want = zc.partial_trace(psi, [0, 1])
    got = zc.partial_trace(psi, [np.int64(0), np.intp(1)])
    assert got.space is want.space and got.mat.tobytes() == want.mat.tobytes()


@pytest.mark.parametrize("name", [["a"], {"a": 0}, np.array(["a"])])
def test_an_unhashable_subsystem_name_is_an_invalid_subsystem(space1, name):
    with pytest.raises(InvalidSubsystemError, match="no subsystem named"):
        space1.subsystem_index(name)
