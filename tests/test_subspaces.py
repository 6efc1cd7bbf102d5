"""Subspace analysis: exact product tests, searches, deflation, basis verdicts."""

import numpy as np
import pytest

from uebkit import (
    BasisKind,
    Completable,
    Grade,
    Outcome,
    ProductCount,
    PureState,
    QuditDims,
    SearchConfig,
    SetMode,
    StateSet,
    Subspace,
    SubspaceStatus,
    Tolerance,
    basis_state,
    bell_meb,
    build_entry,
    build_generator,
    completion_search,
    count_product_states_2d_2x2,
    embed_meb,
    entangled_vector_search,
    find_maximally_entangled,
    find_product_state,
    haar_unitary,
    is_maximally_entangled,
    is_product,
    max_orthogonal_set,
    max_schmidt_rank_in_subspace,
    only_product_across_cut,
    orthogonal_complement,
    orthonormalize,
    random_state,
    schmidt,
    schmidt_rank_upper_bound,
    single_cut,
    state_from_combination,
    tensor_product,
    verify_basis,
)

SP2 = QuditDims((2, 2))
SP23 = QuditDims((2, 3))
SP3 = QuditDims((2, 2, 2))
TOL = Tolerance()


def span_of(space, *kets):
    return orthonormalize(space, [basis_state(space, k).amps for k in kets])


def combo(space, terms):
    return state_from_combination(space, terms)


def test_only_product_reference_planes():
    # a common factor on one side keeps every combination product across every cut
    sub = span_of(SP3, 0b011, 0b111)
    for mask in (1, 3, 5):
        from uebkit import Bipartition
        assert only_product_across_cut(sub, Bipartition(SP3, mask), TOL)
    assert not only_product_across_cut(span_of(SP2, 0, 3), single_cut(SP2), TOL)
    assert only_product_across_cut(span_of(SP23, 2, 5), single_cut(SP23), TOL)


def test_only_product_on_constructed_product_planes():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sub = orthonormalize(SP23, [np.kron(a, b1), np.kron(a, b2)])
        assert sub.dim == 2
        assert only_product_across_cut(sub, single_cut(SP23), TOL)


def test_generic_planes_contain_entanglement():
    rng = np.random.default_rng(22)
    for _ in range(100):
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2)]
        sub = orthonormalize(SP23, vecs)
        assert not only_product_across_cut(sub, single_cut(SP23), TOL)


def test_find_product_state_verdicts():
    cut = single_cut(SP2)
    got = find_product_state(span_of(SP2, 0, 1), cut)
    assert got.status is SubspaceStatus.PRODUCT_FOUND
    assert is_product(got.witness, cut, TOL)

    phi_p = combo(SP2, {"00": 1, "11": 1})
    lone = Subspace(SP2, (phi_p,))
    got = find_product_state(lone, cut)
    assert got.status is SubspaceStatus.NO_PRODUCT_FOUND
    # absence claims from this search are evidence, never exact
    assert got.grade is Grade.NUMERICAL_EVIDENCE

    psi_p = combo(SP2, {"01": 1, "10": 1})
    mixed = Subspace(SP2, (phi_p, psi_p))
    got = find_product_state(mixed, cut)
    assert got.status is SubspaceStatus.PRODUCT_FOUND
    assert is_product(got.witness, cut, TOL)
    # the witness stays inside the subspace it was found in
    m = mixed.matrix()
    back = (m.conj() @ got.witness.amps) @ m
    assert np.abs(back - got.witness.amps).max() < 1e-9


def test_find_maximally_entangled_exact_refusals():
    cut = single_cut(SP23)
    sub = span_of(SP23, 2, 5)
    got = find_maximally_entangled(sub, cut)
    assert got.status is SubspaceStatus.NO_ME_FOUND
    assert got.grade is Grade.EXACT

    # rank cap below the smaller local dimension refuses without any search
    comp = orthogonal_complement(embed_meb(3, 2).subspace(), TOL)
    got = find_maximally_entangled(comp, single_cut(QuditDims((3, 5))))
    assert got.status is SubspaceStatus.NO_ME_FOUND
    assert got.grade is Grade.EXACT


def test_find_maximally_entangled_in_full_space():
    full = Subspace(SP2, tuple(basis_state(SP2, k) for k in range(4)))
    got = find_maximally_entangled(full, single_cut(SP2), SearchConfig(starts=16, seed=3))
    assert got.status is SubspaceStatus.ME_FOUND
    assert is_maximally_entangled(got.witness, single_cut(SP2), TOL)
    assert got.score is not None and got.score > 0.7


def test_zero_starts_reports_no_evidence():
    full = Subspace(SP2, tuple(basis_state(SP2, k) for k in range(4)))
    got = find_maximally_entangled(full, single_cut(SP2), SearchConfig(starts=0, seed=1))
    assert got.status is SubspaceStatus.NO_ME_FOUND
    assert got.grade is Grade.NUMERICAL_EVIDENCE
    assert got.score is None


def test_search_is_deterministic_for_fixed_seed():
    full = Subspace(SP23, tuple(basis_state(SP23, k) for k in range(6)))
    cfg = SearchConfig(starts=8, seed=5)
    a = find_maximally_entangled(full, single_cut(SP23), cfg)
    b = find_maximally_entangled(full, single_cut(SP23), cfg)
    assert np.array_equal(a.witness.amps, b.witness.amps)
    assert a.score == b.score


def test_witnesses_satisfy_their_claims():
    """Any returned witness re-verifies the claimed predicate at base tolerance."""
    rng = np.random.default_rng(23)
    for trial in range(60):
        k = int(rng.integers(1, 5))
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(k)]
        sub = orthonormalize(SP23, vecs)
        cut = single_cut(SP23)
        got = find_product_state(sub, cut, SearchConfig(starts=8, seed=trial))
        if got.witness is not None and got.status is SubspaceStatus.PRODUCT_FOUND:
            assert is_product(got.witness, cut, TOL)
        got = find_maximally_entangled(sub, cut, SearchConfig(starts=8, seed=trial))
        if got.witness is not None and got.status is SubspaceStatus.ME_FOUND:
            assert is_maximally_entangled(got.witness, cut, TOL)


def test_max_schmidt_rank_and_upper_bound():
    for d, n in ((2, 1), (3, 1), (3, 2), (4, 3)):
        comp = orthogonal_complement(embed_meb(d, n).subspace(), TOL)
        cut = single_cut(comp.space)
        assert max_schmidt_rank_in_subspace(comp, cut) == n
        assert schmidt_rank_upper_bound(comp, cut, TOL) >= n
    full = Subspace(SP2, tuple(basis_state(SP2, k) for k in range(4)))
    assert max_schmidt_rank_in_subspace(full, single_cut(SP2)) == 2


def test_entangled_vector_search_finds_rank_two():
    rng = np.random.default_rng(24)
    for trial in range(50):
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2)]
        sub = orthonormalize(SP23, vecs)
        w = entangled_vector_search(sub, single_cut(SP23), SearchConfig(starts=16, seed=trial))
        assert w is not None
        assert schmidt(w, single_cut(SP23), TOL).rank >= 2


def test_max_orthogonal_set_modes():
    triple = build_generator("prop2a-set")
    comp = orthogonal_complement(triple.subspace(), TOL)
    cut = single_cut(SP23)
    got = max_orthogonal_set(comp, cut, SetMode.MAX_ENTANGLED, SearchConfig(starts=16, seed=0))
    assert len(got.states.states) == 1
    assert got.refusal_exact
    got = max_orthogonal_set(comp, cut, SetMode.ENTANGLED, SearchConfig(starts=16, seed=0))
    assert len(got.states.states) == 3

    ray = Subspace(SP2, (basis_state(SP2, 3),))
    got = max_orthogonal_set(ray, single_cut(SP2), SetMode.ENTANGLED)
    assert len(got.states.states) == 0
    assert got.refusal_exact


def test_product_count_reference_cases():
    psi_p = combo(SP2, {"01": 1, "10": 1})
    one = Subspace(SP2, (psi_p, basis_state(SP2, 0)))
    assert count_product_states_2d_2x2(one) is ProductCount.ONE
    two = span_of(SP2, 0, 3)
    assert count_product_states_2d_2x2(two) is ProductCount.TWO
    inf = span_of(SP2, 0, 1)
    assert count_product_states_2d_2x2(inf) is ProductCount.INFINITE
    with pytest.raises(ValueError):
        count_product_states_2d_2x2(span_of(SP23, 0, 1))
    with pytest.raises(ValueError):
        count_product_states_2d_2x2(Subspace(SP2, (psi_p,)))


def test_verify_basis_flags_product_member_first():
    psi_p = combo(SP2, {"01": 1, "10": 1})
    st = StateSet(SP2, (basis_state(SP2, 0), psi_p))
    got = verify_basis(st, BasisKind.UEB)
    assert got.outcome is Outcome.REFUTED
    assert got.offending_state == 0
    assert got.grade is Grade.EXACT


def test_verify_basis_complete_basis_shortcut():
    got = verify_basis(bell_meb(2), BasisKind.UMEB)
    assert got.outcome is Outcome.COMPLETE_BASIS
    assert got.complement_dim == 0


def test_verify_basis_single_cut_families():
    got = verify_basis(build_entry("eq1-ueb"), BasisKind.UEB)
    assert got.outcome is Outcome.VERIFIED
    assert got.grade is Grade.EXACT
    assert got.complement_dim == 1
    assert len(got.per_cut) == 1

    phi_p = combo(SP2, {"00": 1, "11": 1})
    phi_m = combo(SP2, {"00": 1, "11": -1})
    got = verify_basis(StateSet(SP2, (phi_p, phi_m)), BasisKind.UMEB)
    assert got.outcome is Outcome.REFUTED
    assert got.grade is Grade.EXACT


def test_state_driven_refutations_survive_extension():
    """A set refuted by one of its members stays refuted when more states join."""
    psi_p = combo(SP2, {"01": 1, "10": 1})
    psi_m = combo(SP2, {"01": 1, "10": -1})
    small = StateSet(SP2, (basis_state(SP2, 0), psi_p))
    grown = StateSet(SP2, (basis_state(SP2, 0), psi_p, psi_m))
    assert verify_basis(small, BasisKind.UEB).outcome is Outcome.REFUTED
    assert verify_basis(grown, BasisKind.UEB).outcome is Outcome.REFUTED


def test_completion_search_modes():
    triple = build_generator("prop2a-set")
    got = completion_search(triple, SetMode.ENTANGLED, SearchConfig(starts=16, seed=0))
    assert got.completable is Completable.YES
    assert len(got.found.states) == 3

    got = completion_search(triple, SetMode.MAX_ENTANGLED, SearchConfig(starts=16, seed=0))
    assert got.completable is Completable.NO_EXACT
    assert len(got.found.states) == 1

    with pytest.raises(ValueError):
        completion_search(bell_meb(2), SetMode.ENTANGLED)


def test_completion_search_refuses_unextendible_families():
    # an only-product complement yields an exact refusal with nothing found
    got = completion_search(build_entry("eq1-ueb"), SetMode.ENTANGLED, SearchConfig(starts=16, seed=0))
    assert got.completable is Completable.NO_EXACT
    assert len(got.found.states) == 0
    assert got.complement_dim == 1


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(starts=-1)
    with pytest.raises(ValueError):
        SearchConfig(samples=-2)


def test_empty_subspace_rejected():
    with pytest.raises(ValueError):
        find_maximally_entangled(Subspace(SP2, ()), single_cut(SP2))


def _in_span(sub, amps):
    m = sub.matrix()
    return np.abs((m.conj() @ amps) @ m - amps).max() < 1e-9


def _fourier_set(space, vectors):
    """Orthonormal set of equal-weight Fourier combinations of orthonormal vectors."""
    k = len(vectors)
    w = np.exp(2j * np.pi * np.outer(range(k), range(k)) / k) / np.sqrt(k)
    return StateSet(space, tuple(PureState(space, row @ np.array(vectors)) for row in w))


def test_pair_step_of_the_lemma():
    """Product basis vectors whose span is not only-product: a pair sum witnesses it."""
    rng = np.random.default_rng(25)
    u = haar_unitary(2, rng)
    v = haar_unitary(3, rng)
    a, d = u[:, 0], u[:, 1]
    b, c, e = v[:, 0], v[:, 1], v[:, 2]
    cases = [
        (span_of(SP2, 0, 3), [basis_state(SP2, 1).amps, basis_state(SP2, 2).amps]),
        (Subspace(SP23, tuple(PureState(SP23, np.kron(x, y)) for x, y in ((a, b), (a, c), (d, b)))),
         [np.kron(a, e), np.kron(d, c), np.kron(d, e)]),
    ]
    for sub, rest in cases:
        cut = single_cut(sub.space)
        assert all(is_product(x, cut, TOL) for x in sub.basis)
        assert not only_product_across_cut(sub, cut, TOL)
        w = entangled_vector_search(sub, cut, SearchConfig(starts=0), TOL)
        assert w is not None
        assert schmidt(w, cut, TOL).rank == 2
        assert _in_span(sub, w.amps)

        # a set whose complement is this span is refuted with a witness inside it
        st = _fourier_set(sub.space, rest)
        got = verify_basis(st, BasisKind.UEB, tol=TOL)
        assert got.outcome is Outcome.REFUTED
        assert got.offending_state is None
        (v_cut,) = got.per_cut
        assert v_cut.status is SubspaceStatus.CONTAINS_ENTANGLED
        assert v_cut.grade is Grade.EXACT
        assert schmidt(v_cut.witness, cut, TOL).rank == 2
        assert _in_span(sub, v_cut.witness.amps)


def test_tolerance_boundary_applies_to_singular_values():
    """sigma_2 = delta (to first order) decides against eps, not a quadratic minor."""
    cut = single_cut(SP2)
    for tol in (Tolerance(), Tolerance(1e-6)):
        for scale, only in ((0.1, True), (10.0, False)):
            delta = scale * tol.eps
            ray = np.array([1.0, 0.0, 0.0, delta]) / np.hypot(1.0, delta)
            sub = Subspace(SP2, (PureState(SP2, ray),))
            assert only_product_across_cut(sub, cut, tol) is only
            # the complement of an entangled set around the ray is that ray again
            other = np.array([delta, 0.0, 0.0, -1.0]) / np.hypot(1.0, delta)
            st = _fourier_set(SP2, [basis_state(SP2, 1).amps, basis_state(SP2, 2).amps, other])
            got = verify_basis(st, BasisKind.UEB, tol=tol)
            assert got.complement_dim == 1
            (v_cut,) = got.per_cut
            if only:
                assert got.outcome is Outcome.VERIFIED
                assert v_cut.status is SubspaceStatus.ONLY_PRODUCT
            else:
                assert got.outcome is Outcome.REFUTED
                assert v_cut.status is SubspaceStatus.CONTAINS_ENTANGLED
                assert schmidt(v_cut.witness, cut, tol).rank == 2
