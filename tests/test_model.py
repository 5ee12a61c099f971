"""Hamiltonian assembly, conservation laws, and the sector closure."""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import zenocavity as zc
import zenocavity.model as model_mod
from oracles import chain_hamiltonian, excitation_number, number_commutator_maxabs
from zenocavity.model import full_space, initial_state, restrict

ATOL = 1e-12

PARAMS = zc.UniformParams(g=1.0, lam=2.0, omega1=0.01, omega2=0.02, omega3=0.03)


# ---------------------------------------------------------------------------
# parameter objects
# ---------------------------------------------------------------------------

def test_uniform_params_validation():
    with pytest.raises(ValueError):
        zc.UniformParams(g=-1.0, lam=1.0)
    with pytest.raises(ValueError):
        zc.UniformParams(g=1.0, lam=float("nan"))
    with pytest.raises(ValueError):
        zc.UniformParams(g=1.0, lam=1.0, omega2=float("inf"))


def test_chi():
    assert abs(zc.UniformParams(g=1.0, lam=1.0).chi() - math.sqrt(3.0)) < ATOL
    assert abs(zc.UniformParams(g=2.0, lam=1.0).chi() - math.sqrt(1.5)) < ATOL
    with pytest.raises(ValueError):
        zc.UniformParams(g=0.0, lam=1.0).chi()


@pytest.mark.parametrize("g, lam", [(1e-5, 1e150), (1e154, 1e154)])
def test_chi_never_returns_infinity(g, lam):
    # float * and / overflow to inf without raising; chi must still fail loudly
    with pytest.raises(OverflowError, match=re.escape(f"g = {g!r}, lam = {lam!r}")):
        zc.UniformParams(g=g, lam=lam).chi()


def test_branch_sectors():
    assert zc.Branch.COMBINED.sectors == (zc.Branch.LEFT, zc.Branch.RIGHT)
    for branch in (zc.Branch.LEFT, zc.Branch.RIGHT):
        assert branch.sectors == (branch,)


def test_public_names_resolve():
    missing = [name for name in zc.__all__ if not hasattr(zc, name)]
    assert missing == []
    assert len(set(zc.__all__)) == len(zc.__all__)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def test_build_hamiltonian_hermitian_and_sparse(space1):
    parts = zc.build_hamiltonian(PARAMS, space1)
    for m in (parts.cavity, parts.fiber, parts.drive, parts.strong, parts.total):
        assert sp.issparse(m) and m.format == "csr"
    dev = (parts.total - parts.total.conj().T)
    assert abs(dev).max() < ATOL
    sums = parts.cavity + parts.fiber + parts.drive - parts.total
    assert abs(sums).max() < ATOL


@pytest.mark.parametrize("cutoff", [1, 2])
def test_build_hamiltonian_parts_are_canonical_csr(cutoff):
    space = full_space(cutoff)
    parts = zc.build_hamiltonian(PARAMS, space)
    for m in (parts.cavity, parts.fiber, parts.drive, parts.strong, parts.total):
        assert m.format == "csr" and m.dtype == np.float64
        assert m.shape == (space.dim, space.dim)
        assert m.has_canonical_format and np.count_nonzero(m.data) == m.nnz
    assert (parts.strong != parts.cavity + parts.fiber).nnz == 0
    assert (parts.total != parts.strong + parts.drive).nnz == 0


# sha256 of the five parts' CSR arrays at PARAMS, as the index-arithmetic
# Kronecker build that preceded the ``sp.kron`` chains produced them.
_PART_DIGESTS = {
    1: "ac9cf05fe0e359136b85fb447682a17398578e47e2224b56ad817802d69a5373",
    2: "3ad01df29b23c662a7c66dbffe81ce280acca0b37561a973f208681440427d0e",
}


@pytest.mark.parametrize("cutoff", [1, 2])
def test_build_hamiltonian_parts_keep_their_bytes(cutoff):
    parts = zc.build_hamiltonian(PARAMS, full_space(cutoff))
    h = hashlib.sha256()
    for m in (parts.cavity, parts.fiber, parts.drive, parts.strong, parts.total):
        h.update(repr((m.shape, m.format, m.has_canonical_format, m.nnz)).encode())
        for a in (m.indptr, m.indices, m.data):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    assert h.hexdigest() == _PART_DIGESTS[cutoff]


def test_total_commutes_with_excitation_number(space1):
    parts = zc.build_hamiltonian(PARAMS, space1)
    n = excitation_number(space1)
    assert number_commutator_maxabs(parts.total, n) == 0.0
    assert number_commutator_maxabs(parts.total.toarray(), n) == 0.0


def test_excitation_number_values(space1):
    n = excitation_number(space1)
    seed = initial_state(space1, zc.Branch.LEFT)
    assert n[int(np.argmax(np.abs(seed.vec)))] == 1.0  # f counts as one excitation
    ground = space1.ket(a="g_l", b="g_l", c="g_r")
    assert n[int(np.argmax(np.abs(ground.vec)))] == 0.0
    photon = space1.ket(a="g_l", b="g_l", c="g_r", A_l=1, F_r=1)
    assert n[int(np.argmax(np.abs(photon.vec)))] == 2.0


# ---------------------------------------------------------------------------
# sector structure
# ---------------------------------------------------------------------------

def test_sector_kets_are_orthonormal_chain(space1):
    for branch in (zc.Branch.LEFT, zc.Branch.RIGHT):
        kets = zc.sector_kets(space1, branch)
        assert len(kets) == 7
        mat = np.column_stack([k.vec for k in kets])
        assert np.allclose(mat.conj().T @ mat, np.eye(7), atol=ATOL)
    with pytest.raises(ValueError):
        zc.sector_kets(space1, zc.Branch.COMBINED)


def test_chain_couplings_match_generic_builder(space1):
    parts = zc.build_hamiltonian(PARAMS, space1)
    for branch, tail in ((zc.Branch.LEFT, PARAMS.omega2), (zc.Branch.RIGHT, PARAMS.omega3)):
        kets = zc.sector_kets(space1, branch)
        expected = (PARAMS.omega1, PARAMS.g, PARAMS.lam, PARAMS.lam, PARAMS.g, tail)
        for i, c in enumerate(expected):
            got = complex(kets[i].vec.conj() @ (parts.total @ kets[i + 1].vec))
            assert abs(got - c) < ATOL


@settings(max_examples=10)
@given(g=st.floats(0.1, 10.0), lam=st.floats(0.1, 10.0),
       omegas=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_chain_hamiltonian_matches_restriction(space1, g, lam, omegas):
    # every per-transition rate of the generic builder lands on its chain link
    params = zc.UniformParams(g, lam, *omegas)
    for branch in (zc.Branch.LEFT, zc.Branch.RIGHT):
        model = zc.build_branch_model(params, branch, space=space1)
        assert model.dim == 7
        assert np.allclose(model.total, chain_hamiltonian(params, branch), atol=ATOL)
    with pytest.raises(ValueError):
        chain_hamiltonian(params, zc.Branch.COMBINED)


def test_restrict_checks_operator_shape(space1, st_model):
    # sparse and dense input are held to the same parent-space shape
    for wrong in (sp.identity(5000, format="csr"), np.eye(7), np.zeros((space1.dim, 7))):
        with pytest.raises(zc.SpaceMismatchError):
            restrict(wrong, st_model.restricted)


def test_closure_is_chain_ordered(space1, st_model):
    # BFS from the chain head must discover the seven states in chain order
    kets = zc.sector_kets(space1, zc.Branch.LEFT)
    expected = [int(np.argmax(np.abs(k.vec))) for k in kets]
    assert list(st_model.restricted.indices) == expected


def test_closure_ignores_silent_drives(space1):
    # omega2 = 0 must not orphan the chain tail: membership is structural
    params = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)
    model = zc.build_branch_model(params, zc.Branch.LEFT, space=space1)
    assert model.dim == 7
    # the tail coupling is really zero in the restricted Hamiltonian
    assert abs(model.total[5, 6]) < ATOL


def test_closure_cap_and_seed_validation(space1):
    parts = zc.build_hamiltonian(PARAMS, space1)
    with pytest.raises(ValueError):
        oracles.reachable_subspace(parts.total, zc.State(space1, np.zeros(space1.dim)))


def _ket_positions(model, sector):
    """Restricted index of each of ``sector``'s chain kets, found ket by ket."""
    return tuple(model.restricted.local_index(int(np.argmax(np.abs(ket.vec))))
                 for ket in zc.sector_kets(model.space, sector))


def test_combined_model_is_two_decoupled_chains(combined_model):
    m = combined_model
    assert m.dim == 14
    left, right = (m.positions[sector] for sector in (zc.Branch.LEFT, zc.Branch.RIGHT))
    assert (left, right) == (_ket_positions(m, zc.Branch.LEFT), _ket_positions(m, zc.Branch.RIGHT))
    assert sorted(left + right) == list(range(14))
    assert np.max(np.abs(m.total[np.ix_(left, right)])) < ATOL
    p = m.params
    assert np.allclose(m.total[np.ix_(left, left)],
                       chain_hamiltonian(p, zc.Branch.LEFT), atol=ATOL)
    assert np.allclose(m.total[np.ix_(right, right)],
                       chain_hamiltonian(p, zc.Branch.RIGHT), atol=ATOL)


def test_combined_seed_is_balanced(combined_model):
    seed = combined_model.seed()
    assert abs(seed.norm() - 1.0) < ATOL
    head_l, head_r = (_ket_positions(combined_model, sector)[0]
                      for sector in (zc.Branch.LEFT, zc.Branch.RIGHT))
    assert (head_l, head_r) == (combined_model.positions[zc.Branch.LEFT][0],
                                combined_model.positions[zc.Branch.RIGHT][0])
    assert abs(abs(seed.vec[head_l]) ** 2 - 0.5) < ATOL
    assert abs(abs(seed.vec[head_r]) ** 2 - 0.5) < ATOL


def test_cutoff_two_reproduces_the_same_sector():
    # the single-excitation chain cannot see the second photon level
    m1 = zc.build_branch_model(PARAMS, zc.Branch.LEFT)
    m2 = zc.build_branch_model(PARAMS, zc.Branch.LEFT, space=full_space(2))
    assert m2.space.dim == 6 * 3 * 3 * 3**6
    assert m2.dim == 7
    assert np.allclose(m1.total, m2.total, atol=ATOL)
    assert [oracles.occupation(m2.space, i) for i in m2.restricted.indices] == [
        oracles.occupation(m1.space, i) for i in m1.restricted.indices
    ]


# a name first, then the member, then the name again, a hit in the sector cache
_BRANCH_NAMES = """
import zenocavity as zc
from zenocavity.model import initial_state
params, space = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01), zc.full_space()
seed = initial_state(space, "left")
assert seed.vec.tobytes() == initial_state(space, zc.Branch.LEFT).vec.tobytes()
for branch in ("left", zc.Branch.LEFT, "left"):
    model = zc.build_branch_model(params, branch)
    assert model.branch is zc.Branch.LEFT, repr(model.branch)
    assert model.seed().vec.tobytes() == model.restricted.project(seed.vec).tobytes()
    [row] = zc.compare_full_vs_effective(model, [100.0])
    assert 0.99 < row.fidelity <= 1.0 + 1e-12, row
"""


def test_a_branch_name_is_resolved_where_it_enters():
    # a fresh process, so that no test has built a sector before the first name
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _BRANCH_NAMES], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr


def test_branch_model_rejects_degenerate_couplings(space1):
    with pytest.raises(ValueError):
        zc.build_branch_model(zc.UniformParams(g=0.0, lam=1.0), zc.Branch.LEFT,
                              space=space1)


def test_strong_plus_drive_decomposition(st_model):
    assert np.allclose(st_model.total, st_model.strong + st_model.drive, atol=ATOL)
    assert np.allclose(st_model.strong, st_model.strong.T, atol=ATOL)


# ---------------------------------------------------------------------------
# the cached sector against the full-space oracle
# ---------------------------------------------------------------------------

BRANCHES = (zc.Branch.LEFT, zc.Branch.RIGHT, zc.Branch.COMBINED)


def _oracle_model(params, branch, space):
    # the uncached path: fresh assembly, closure at probe drives, restriction
    probe = zc.UniformParams(params.g, params.lam, omega1=1.0, omega2=1.0, omega3=1.0)
    restricted = oracles.reachable_subspace(zc.build_hamiltonian(probe, space).total,
                                            initial_state(space, branch))
    parts = zc.build_hamiltonian(params, space)
    return restricted, {name: restrict(getattr(parts, name), restricted).real
                        for name in ("total", "strong", "drive")}


def _assert_matches_oracle(params, branch, space):
    model = zc.build_branch_model(params, branch, space=space)
    restricted, blocks = _oracle_model(params, branch, space)
    assert model.restricted.indices == restricted.indices
    for name, block in blocks.items():
        assert getattr(model, name).tobytes() == block.tobytes(), name
    seed = restricted.project(initial_state(space, branch).vec)
    assert model.seed().vec.tobytes() == seed.tobytes()
    assert list(model.positions) == list(branch.sectors)
    for sector in branch.sectors:
        assert model.positions[sector] == tuple(
            restricted.local_index(int(np.argmax(np.abs(ket.vec))))
            for ket in zc.sector_kets(space, sector))


_drive = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(max_examples=10)
@given(g=st.floats(0.1, 10.0), lam=st.floats(0.1, 10.0),
       omegas=st.tuples(_drive, _drive, _drive), branch=st.sampled_from(BRANCHES))
def test_cached_model_equals_the_oracle(space1, g, lam, omegas, branch):
    _assert_matches_oracle(zc.UniformParams(g, lam, *omegas), branch, space1)


def test_cached_model_equals_the_oracle_at_cutoff_two():
    _assert_matches_oracle(PARAMS, zc.Branch.COMBINED, full_space(2))


def _permuted_space(swap_sectors):
    # the nine factors in another order; optionally atom a lists the right sector first
    subsystems = list(reversed(full_space(1).subsystems))
    if swap_sectors:
        a = subsystems[-1]
        subsystems[-1] = dataclasses.replace(a, levels=a.levels[3:] + a.levels[:3])
    return zc.HilbertSpace(subsystems)


@pytest.mark.parametrize("swap_sectors", [False, True])
@pytest.mark.parametrize("branch", BRANCHES)
def test_cached_model_equals_the_oracle_on_a_permuted_register(branch, swap_sectors):
    # the chain walk orders the basis by parent index, not by register or sector order
    _assert_matches_oracle(PARAMS, branch, _permuted_space(swap_sectors))


def test_cold_builds_assemble_nothing(space1, monkeypatch):
    calls = []
    for name in ("build_hamiltonian", "restrict"):
        oracle = getattr(model_mod, name)
        monkeypatch.setattr(model_mod, name,
                            lambda *a, _f=oracle, **k: calls.append(a) or _f(*a, **k))
    model_mod._sector.cache_clear()
    fresh = zc.UniformParams(g=0.3, lam=4.0, omega1=0.2, omega3=0.7)
    for branch in BRANCHES:
        zc.build_branch_model(fresh, branch, space=space1)
        zc.build_branch_model(fresh, branch)  # an equal space shares the cache
    assert calls == []
    assert model_mod._sector.cache_info().currsize == len(BRANCHES)


def test_callers_cannot_corrupt_the_cached_sector(space1):
    first = zc.build_branch_model(PARAMS, zc.Branch.COMBINED, space=space1)
    for block in (first.total, first.strong, first.drive):
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 7.0
    first.seed().vec[...] = 7.0  # a copy of its own
    with pytest.raises(TypeError):
        first.positions[zc.Branch.LEFT] = (0,) * 7
    for cols in first.dark.values():
        with pytest.raises(ValueError, match="read-only"):
            cols[...] = 7.0
    _assert_matches_oracle(PARAMS, zc.Branch.COMBINED, space1)
    again = zc.build_branch_model(PARAMS, zc.Branch.COMBINED, space=space1)
    assert abs(again.seed().norm() - 1.0) < ATOL


@pytest.mark.parametrize("g, lam", [(1e-13, 1.0), (1.0, 1e-13), (1e-300, 1e-300)])
def test_tiny_couplings_keep_the_whole_chain(space1, g, lam):
    # membership is structural: a link of any nonzero strength stays in, in the cached
    # sector and in the oracle's closure alike
    params = zc.UniformParams(g=g, lam=lam, omega1=0.01)
    for branch in BRANCHES:
        model = zc.build_branch_model(params, branch, space=space1)
        combined = branch == zc.Branch.COMBINED
        pols = (zc.Branch.LEFT, zc.Branch.RIGHT) if combined else (branch,)
        kets = [k for pol in pols for k in zc.sector_kets(space1, pol)]
        assert model.dim == len(kets)
        assert {sector: _ket_positions(model, sector) for sector in pols} == model.positions
        assert sorted(i for pos in model.positions.values() for i in pos) == list(range(model.dim))
        _assert_matches_oracle(params, branch, space1)
