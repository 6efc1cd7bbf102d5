"""Subspace analysis: exact product tests, searches, deflation, basis verdicts."""

import itertools
import math

import numpy as np
import pytest

import uebkit
from uebkit import (
    BasisKind,
    Bipartition,
    Completable,
    DEFAULT_EPS,
    Grade,
    Outcome,
    ProductCount,
    PureState,
    QuditDims,
    SearchConfig,
    SetMode,
    StateSet,
    SubspaceStatus,
    SubspaceVerdict,
    apply_local_unitaries,
    basis_state,
    bell_meb,
    build_entry,
    build_generator,
    completion_search,
    count_product_states_2d_2x2,
    embed_meb,
    enumerate_cuts,
    find_maximally_entangled,
    find_product_state,
    haar_unitary,
    is_maximally_entangled,
    is_product,
    max_orthogonal_set,
    max_schmidt_rank_in_subspace,
    orthogonal_complement,
    orthonormalize,
    random_state,
    schmidt,
    single_cut,
    state_from_combination,
    support_ranks,
    tensor_product,
    verify_basis,
)
from uebkit import subspaces
from uebkit.subspaces import (
    _ascend,
    _coeff_state,
    _entangled_probe,
    _impurity_vag,
    _in_me_band,
    _random_starts,
    _reshapes,
)

SP2 = QuditDims((2, 2))
SP23 = QuditDims((2, 3))
SP3 = QuditDims((2, 2, 2))
TOL = DEFAULT_EPS


def span_of(space, *kets):
    return orthonormalize(space, [basis_state(space, k).amps for k in kets])


def combo(space, terms):
    return state_from_combination(space, terms)


def only_product(sub, cut, tol=TOL):
    return bool(support_ranks(sub, [cut], tol)[0] <= 1)


def test_only_product_reference_planes():
    # a common factor on one side keeps every combination product across every cut
    sub = span_of(SP3, 0b011, 0b111)
    for mask in (1, 3, 5):
        from uebkit import Bipartition
        assert only_product(sub, Bipartition(SP3, mask))
    assert not only_product(span_of(SP2, 0, 3), single_cut(SP2))
    assert only_product(span_of(SP23, 2, 5), single_cut(SP23))


def test_only_product_on_constructed_product_planes():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sub = orthonormalize(SP23, [np.kron(a, b1), np.kron(a, b2)])
        assert len(sub) == 2
        assert only_product(sub, single_cut(SP23))


def test_generic_planes_contain_entanglement():
    rng = np.random.default_rng(22)
    for _ in range(100):
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2)]
        sub = orthonormalize(SP23, vecs)
        assert not only_product(sub, single_cut(SP23))


def test_find_product_state_verdicts():
    cut = single_cut(SP2)
    got = find_product_state(span_of(SP2, 0, 1), cut)
    assert got.status is SubspaceStatus.PRODUCT_FOUND
    assert is_product(got.witness, cut, TOL)

    phi_p = combo(SP2, {"00": 1, "11": 1})
    lone = StateSet(SP2, (phi_p,))
    got = find_product_state(lone, cut)
    assert got.status is SubspaceStatus.NO_PRODUCT_FOUND
    # absence claims from this search are evidence, never exact
    assert got.grade is Grade.NUMERICAL_EVIDENCE

    psi_p = combo(SP2, {"01": 1, "10": 1})
    mixed = StateSet(SP2, (phi_p, psi_p))
    got = find_product_state(mixed, cut)
    assert got.status is SubspaceStatus.PRODUCT_FOUND
    assert is_product(got.witness, cut, TOL)
    # the witness stays inside the subspace it was found in
    m = mixed.matrix()
    back = (m.conj() @ got.witness.amps) @ m
    assert np.abs(back - got.witness.amps).max() < 1e-9


def _haar_rows(total, k, rng):
    """(k, total) orthonormal rows spanning a Haar-random k-dimensional subspace."""
    z = rng.standard_normal((total, k)) + 1j * rng.standard_normal((total, k))
    return np.linalg.qr(z)[0].T.copy()


def _subspace_of(space, rows):
    return StateSet(space, tuple(PureState(space, r) for r in rows))


def test_product_search_finds_the_above_bound_near_misses():
    """Haar 2x4 spans of dimension 4 > (dA-1)(dB-1) = 3 hold a product vector;
    on these two draws the descent alone stopped just short of it."""
    space = QuditDims((2, 4))
    cut = single_cut(space)
    for seed, key in ((15, [15, 1, 0, 3, 0]), (16, [16, 1, 0, 3, 2])):
        sub = _subspace_of(space, _haar_rows(8, 4, np.random.default_rng(key)))
        got = find_product_state(sub, cut, SearchConfig(seed=seed), TOL)
        assert (got.status, got.grade) == (SubspaceStatus.PRODUCT_FOUND, Grade.EXACT), seed
        assert is_product(got.witness, cut, TOL) and _in_span(sub, got.witness.amps), seed
        assert got.score == subspaces._minor_sum(schmidt(got.witness, cut, TOL).coefficients)


def test_product_search_finds_a_planted_product_vector():
    """At the bound (dA-1)(dB-1) a Haar span holds no product vector, so the
    planted one is the target, in every draw."""
    for dims, k in (((3, 3), 4), ((2, 4), 3)):
        space = QuditDims(dims)
        cut = single_cut(space)
        for draw in range(10):
            rng = np.random.default_rng([35, draw])
            a, b = (haar_unitary(d, rng)[:, 0] for d in dims)
            sub = orthonormalize(space, [np.kron(a, b), *(random_state(space, rng).amps for _ in range(k - 1))])
            got = find_product_state(sub, cut, SearchConfig(seed=draw), TOL)
            assert (got.status, got.grade) == (SubspaceStatus.PRODUCT_FOUND, Grade.EXACT), (dims, draw)
            assert is_product(got.witness, cut, TOL) and _in_span(sub, got.witness.amps), (dims, draw)
            assert abs(np.vdot(np.kron(a, b), got.witness.amps)) > 1 - 1e-9, (dims, draw)


def test_product_search_second_round_finds_what_the_first_missed(monkeypatch):
    """On this planted 3x5 span of dimension 8 = (dA-1)(dB-1) no polished
    endpoint of the short descent is product, so all 64 are polished (the
    first 8, then the other 56); after the full descent the first 8 are
    polished again, and one of them is."""
    heights = []
    newton = subspaces._gauss_newton

    def counting(lin, retract, x0):
        heights.append(len(x0))
        return newton(lin, retract, x0)

    monkeypatch.setattr(subspaces, "_gauss_newton", counting)
    space = QuditDims((3, 5))
    cut = single_cut(space)
    rng = np.random.default_rng([42, 3, 5, 8, 24])
    a, b = haar_unitary(3, rng)[:, 0], haar_unitary(5, rng)[:, 0]
    sub = orthonormalize(space, [np.kron(a, b)] + [rng.standard_normal(15) + 1j * rng.standard_normal(15)
                                                   for _ in range(7)])
    got = find_product_state(sub, cut, SearchConfig(seed=24), TOL)
    assert (got.status, got.grade) == (SubspaceStatus.PRODUCT_FOUND, Grade.EXACT)
    assert is_product(got.witness, cut, TOL) and _in_span(sub, got.witness.amps)
    assert heights == [8, 56, 8]


def test_find_maximally_entangled_exact_refusals():
    cut = single_cut(SP23)
    sub = span_of(SP23, 2, 5)
    got = find_maximally_entangled(sub, cut)
    assert got.status is SubspaceStatus.NO_ME_FOUND
    assert got.grade is Grade.EXACT

    # rank cap below the smaller local dimension refuses without any search
    comp = orthogonal_complement(embed_meb(3, 2), TOL)
    got = find_maximally_entangled(comp, single_cut(QuditDims((3, 5))))
    assert got.status is SubspaceStatus.NO_ME_FOUND
    assert got.grade is Grade.EXACT


def test_find_maximally_entangled_in_full_space():
    full = StateSet(SP2, tuple(basis_state(SP2, k) for k in range(4)))
    got = find_maximally_entangled(full, single_cut(SP2), SearchConfig(starts=16, seed=3))
    assert got.status is SubspaceStatus.ME_FOUND
    assert is_maximally_entangled(got.witness, single_cut(SP2), TOL)
    assert got.score is not None and got.score > 0.7


def test_me_band_checks_every_coefficient():
    tol_me = subspaces._TOL_ME
    t = 1.0 / math.sqrt(3.0)
    assert _in_me_band(np.array([t, t, t]), tol_me)
    assert _in_me_band(np.array([t + 0.5 * tol_me, t, t - tol_me]), tol_me)
    # the smallest coefficient is inside the band, the largest is 1.5 tol_me off
    assert not _in_me_band(np.array([t + 1.5 * tol_me, t, t - 0.5 * tol_me]), tol_me)
    assert not _in_me_band(np.array([t, t, t - 1.5 * tol_me]), tol_me)


def test_me_search_decision_flips_only_across_the_band_edge():
    """A one-ray span whose Schmidt spectrum deviates from 1/sqrt(d) by at
    most f * _TOL_ME, under seeded local unitaries (and the party swap in
    3x3): the search accepts it for f = 0.1 and 1 - 1e-4, as NUMERICAL_EVIDENCE
    since the spread exceeds eps, and refuses it for f = 1 + 1e-4 and 10. A
    refusal is _OUTSIDE_BAND exactly when the smallest coefficient is in the band."""
    tol_me = subspaces._TOL_ME
    trial = 0
    # for d = 2 a deviation planted on the larger coefficient would leave a
    # slightly larger one on the other, so 2x4 plants on the smaller only
    for dims, ends, swaps in (((3, 3), (0, -1), (False, True)), ((2, 4), (-1,), (False,))):
        d = min(dims)
        t = 1.0 / math.sqrt(d)
        for f in (0.1, 1 - 1e-4, 1 + 1e-4, 10.0):
            for end in ends:
                planted = t + f * tol_me if end == 0 else t - f * tol_me
                rest = math.sqrt((1.0 - planted**2) / (d - 1))
                spec = np.full(d, rest)
                spec[end] = planted
                assert np.abs(spec - t).max() == pytest.approx(f * tol_me, rel=1e-6)
                for swap in swaps:
                    rng = np.random.default_rng([8, *dims, trial])
                    m = haar_unitary(dims[0], rng)[:, :d] @ np.diag(spec) @ haar_unitary(dims[1], rng)[:, :d].T
                    space = QuditDims(dims)
                    sub = _subspace_of(space, [(m.T if swap else m).reshape(-1)])
                    got = find_maximally_entangled(sub, single_cut(space), SearchConfig(seed=trial), TOL)
                    case = (dims, f, end, swap)
                    if f < 1:
                        assert (got.status, got.grade, got.reason) == (
                            SubspaceStatus.ME_FOUND, Grade.NUMERICAL_EVIDENCE, None), case
                    else:
                        near = abs(spec.min() - t) <= tol_me
                        assert (got.status, got.grade, got.reason) == (
                            SubspaceStatus.NO_ME_FOUND, Grade.NUMERICAL_EVIDENCE,
                            subspaces._OUTSIDE_BAND if near else None), case
                    trial += 1


def test_product_search_decision_flips_only_across_the_accept_gate():
    """A one-ray span whose second Schmidt coefficient is planted at f * eps,
    under seeded local unitaries (and the party swap in 3x3): the search
    accepts the ray as PRODUCT_FOUND (EXACT) for f = 0.1 and 1 - 1e-4, and
    returns NO_PRODUCT_FOUND (NUMERICAL_EVIDENCE) for f = 1 + 1e-4 and 10."""
    eps = TOL
    for dims, swaps in (((3, 3), (False, True)), ((2, 4), (False,))):
        d = min(dims)
        space = QuditDims(dims)
        for f in (0.1, 1 - 1e-4, 1 + 1e-4, 10.0):
            spec = np.zeros(d)
            spec[1] = f * eps
            spec[0] = math.sqrt(1.0 - spec[1] ** 2)
            for swap in swaps:
                for draw in range(3):
                    rng = np.random.default_rng([18, *dims, swap, draw])
                    m = haar_unitary(dims[0], rng)[:, :d] @ np.diag(spec) @ haar_unitary(dims[1], rng)[:, :d].T
                    sub = _subspace_of(space, [(m.T if swap else m).reshape(-1)])
                    got = find_product_state(sub, single_cut(space), SearchConfig(starts=8, seed=draw), TOL)
                    case = (dims, f, swap, draw)
                    if f < 1:
                        assert (got.status, got.grade) == (SubspaceStatus.PRODUCT_FOUND, Grade.EXACT), case
                    else:
                        assert (got.status, got.grade) == (
                            SubspaceStatus.NO_PRODUCT_FOUND, Grade.NUMERICAL_EVIDENCE), case


def _me_plus_product_block(dims, rng):
    """span{sum_j |jj>/sqrt(dA)} + span{|x>|j> : j >= dA} under random local unitaries,
    with the rotated maximally entangled vector."""
    da, db = dims
    rows = [np.eye(da, db).reshape(-1) / math.sqrt(da)]
    for x in range(da):
        for j in range(da, db):
            rows.append(np.outer(np.eye(da)[x], np.eye(db)[j]).reshape(-1))
    ua, ub = haar_unitary(da, rng), haar_unitary(db, rng)
    rows = [(ua @ r.reshape(dims) @ ub.T).reshape(-1) for r in rows]
    return orthonormalize(QuditDims(dims), rows), rows[0]


def test_me_search_meets_a_tangential_product_block():
    """The maximally entangled vector meets the product block tangentially
    (dM M^H = 0 along the block), where every smooth function of M M^H is flat
    to fourth order; the search still finds it, graded EXACT, under every
    draw of local unitaries."""
    for trial in range(21):
        dims = ((2, 3), (2, 4), (3, 4))[trial % 3]
        rng = np.random.default_rng([28, trial])
        sub, me = _me_plus_product_block(dims, rng)
        cut = single_cut(sub.space)
        got = find_maximally_entangled(sub, cut, SearchConfig(seed=trial), TOL)
        assert (got.status, got.grade) == (SubspaceStatus.ME_FOUND, Grade.EXACT), (dims, trial)
        assert is_maximally_entangled(got.witness, cut, TOL)
        assert _in_span(sub, got.witness.amps)
        if dims[1] - dims[0] < dims[0]:
            # the product block has too few columns to carry a maximally
            # entangled part, so the rotated ray is the only one in the span
            assert abs(np.vdot(me, got.witness.amps)) > 1 - 1e-9


def test_me_search_second_round_finds_what_the_first_missed(monkeypatch):
    """On this Haar 3x3 span of dimension 5 no polished endpoint of the short
    ascent is maximally entangled, so all 64 are polished (the first 8, then
    the other 56); after the longer ascent the first 8 are polished again,
    and one of them is."""
    heights = []
    newton = subspaces._gauss_newton

    def counting(lin, retract, x0):
        heights.append(len(x0))
        return newton(lin, retract, x0)

    monkeypatch.setattr(subspaces, "_gauss_newton", counting)
    space = QuditDims((3, 3))
    cut = single_cut(space)
    rng = np.random.default_rng([9, 3, 3, 5, 4])
    sub = orthonormalize(space, [random_state(space, rng).amps for _ in range(5)])
    got = find_maximally_entangled(sub, cut, SearchConfig(seed=18), TOL)
    assert (got.status, got.grade) == (SubspaceStatus.ME_FOUND, Grade.EXACT)
    assert is_maximally_entangled(got.witness, cut, TOL) and _in_span(sub, got.witness.amps)
    assert heights == [8, 56, 8]


def test_stalled_rows_end_the_second_round_early(monkeypatch):
    """On a Haar 3x3 span of dimension 4, which holds no product vector and
    here yields no maximally entangled one, every row of the second round
    stops once a step gains under _STALL of its gap to the entropy's peak:
    each search's second round makes fewer than half the objective
    evaluations its step cap allows, where rows crawling to the cap need
    more than the cap."""
    calls = []
    ascend = subspaces._ascend

    def counting(fun, c0, max_iter, peak):
        def vag(c):
            calls[-1][1] += 1
            return fun(c)

        calls.append([max_iter, 0])
        return ascend(vag, c0, max_iter, peak)

    monkeypatch.setattr(subspaces, "_ascend", counting)
    space = QuditDims((3, 3))
    cut = single_cut(space)
    sub = _subspace_of(space, _haar_rows(9, 4, np.random.default_rng([36, 4, 5])))
    for search, status in ((find_product_state, SubspaceStatus.NO_PRODUCT_FOUND),
                           (find_maximally_entangled, SubspaceStatus.NO_ME_FOUND)):
        calls.clear()
        assert search(sub, cut, SearchConfig(seed=5), TOL).status is status
        assert len(calls) == 2, search.__name__
        cap, evaluations = calls[1]
        assert evaluations < cap // 2, (search.__name__, calls)


def test_snapped_witness_has_no_negative_zeros():
    """Exact zeros of the lattice-snapped |phi+> print as 0.0 on every seed."""
    st = build_generator("prop2a-set")
    comp = orthogonal_complement(st, TOL)
    cut = single_cut(comp.space)
    for seed in range(8):
        got = find_maximally_entangled(comp, cut, SearchConfig(seed=seed), TOL)
        assert (got.status, got.grade) == (SubspaceStatus.ME_FOUND, Grade.EXACT)
        w = got.witness.amps
        zero = w == 0
        assert zero.sum() == 4, seed
        assert not np.signbit(w.real[zero]).any() and not np.signbit(w.imag).any(), seed


def test_snapped_witness_lies_in_the_subspace():
    """psi = cos t |phi+> + sin t |phi-> sits in the _TOL_ME band without being maximally
    entangled at eps; rounding it gives |phi+>, exactly maximally entangled but about t off
    span{psi}, so the snap must refuse it and the witness stays in the subspace."""
    t = 5e-8
    phi_p = np.array([1, 0, 0, 1]) / math.sqrt(2)
    phi_m = np.array([1, 0, 0, -1]) / math.sqrt(2)
    psi = math.cos(t) * phi_p + math.sin(t) * phi_m
    s = orthonormalize(SP2, [psi])
    cut = single_cut(SP2)
    assert not is_maximally_entangled(PureState(SP2, s.matrix()[0]), cut, TOL)
    got = find_maximally_entangled(s, cut, tol=TOL)
    assert (got.status, got.grade) == (SubspaceStatus.ME_FOUND, Grade.NUMERICAL_EVIDENCE)
    basis = s.matrix()
    w = got.witness.amps
    assert np.linalg.norm(w - (basis.conj() @ w) @ basis) <= 1e-12


def test_newton_polish_lands_on_a_maximally_entangled_vector():
    """From 1e-5 off a planted maximally entangled vector of a 2x4 span, a
    start first-order steps would crawl from, the Gauss-Newton steps verify."""
    space = QuditDims((2, 4))
    cut = single_cut(space)
    rng = np.random.default_rng(33)
    ua, ub = haar_unitary(2, rng), haar_unitary(4, rng)
    me = (ua @ np.eye(2, 4) @ ub.T).reshape(-1) / math.sqrt(2.0)
    sub = orthonormalize(space, [me, *(random_state(space, rng).amps for _ in range(2))])
    c = sub.matrix().conj() @ me
    c = c + 1e-5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    lin, retract = subspaces._me_newton(_reshapes(sub, cut), 2)
    got = PureState(space, sub.vector(subspaces._gauss_newton(lin, retract, c[None] / np.linalg.norm(c))[0]))
    assert not is_maximally_entangled(PureState(space, sub.vector(c / np.linalg.norm(c))), cut, TOL)
    assert is_maximally_entangled(got, cut, TOL)


def _rotated_bell_states_in_2x4(k, rng):
    """The first k Bell states of a 2x2 block of 2x4, under random local unitaries."""
    space = QuditDims((2, 4))
    ua, ub = haar_unitary(2, rng), haar_unitary(4, rng)
    rows = []
    for m in bell_meb(2).states[:k]:
        block = np.hstack([m.amps.reshape(2, 2), np.zeros((2, 2))])
        rows.append(PureState(space, (ua @ block @ ub.T).reshape(-1)))
    return StateSet(space, tuple(rows))


def test_max_entangled_completion_of_rotated_bell_states_in_2x4():
    """Greedy deflation in 2x4 meets the maximally entangled set in a
    continuum, where the one sigma_min ascent stalls short of eps; the
    Gauss-Newton polish still grades every step EXACT."""
    for draw in range(3):
        rng = np.random.default_rng([34, draw])
        comp = orthogonal_complement(_rotated_bell_states_in_2x4(3, rng), TOL)
        res = completion_search(comp, SetMode.MAX_ENTANGLED, SearchConfig(seed=draw), TOL)
        assert (res.completable, len(res.found)) == (Completable.YES, 5), draw
        comp = orthogonal_complement(_rotated_bell_states_in_2x4(2, rng), TOL)
        res = completion_search(comp, SetMode.MAX_ENTANGLED, SearchConfig(seed=draw), TOL)
        assert res.complement_dim == 6 and len(res.found) >= 4, draw


def test_max_entangled_completion_passes_a_local_maximum_of_sigma_min():
    """On the 3-dim deflation remainder of this draw the sigma_min leader stops
    at a local maximum (0.70623) that is not maximally entangled; the polished
    endpoints of the other starts still supply the fourth state."""
    st = _rotated_bell_states_in_2x4(2, np.random.default_rng([31, 2, 6]))
    res = completion_search(orthogonal_complement(st, TOL), SetMode.MAX_ENTANGLED, SearchConfig(seed=1), TOL)
    assert len(res.found) == 4


def test_verify_basis_is_invariant_under_local_unitaries():
    """Outcome, grade and complement dimension do not move under seeded local unitaries."""
    cases = ((build_entry("eq1-ueb"), BasisKind.UEB), (build_entry("eq6-mixed-ueb"), BasisKind.UEB_ALL_CUTS),
             (build_entry("eq3-in-2x3"), BasisKind.UMEB), (build_generator("prop2a-set"), BasisKind.UMEB))
    for st, kind in cases:
        want = verify_basis(st, kind, SearchConfig(seed=0), TOL)
        for trial in range(8):
            rng = np.random.default_rng([36, trial])
            us = [haar_unitary(d, rng) for d in st.space.dims]
            moved = StateSet(st.space, tuple(apply_local_unitaries(p, us) for p in st.states))
            got = verify_basis(moved, kind, SearchConfig(seed=trial), TOL)
            assert (got.outcome, got.grade, got.complement_dim) == (want.outcome, want.grade, want.complement_dim), \
                (kind, trial)


def test_verify_basis_is_invariant_under_party_permutations():
    """Outcome, grade and complement dimension do not move when the parties are
    relabelled, and each cut's status moves with its relabelled mask. Two
    refuted sets add CONTAINS_ENTANGLED cuts: the W-class basis without its
    last member, and a rotated basis of the complement of span{|000>, |011>},
    which is only-product at the cut 1|23 alone."""
    w = build_entry("eq5-w-ueb")
    block = orthogonal_complement(span_of(SP3, 0b000, 0b011), TOL)
    rotated = haar_unitary(6, np.random.default_rng(38)) @ block.matrix()
    mixed = StateSet(SP3, tuple(PureState(SP3, row) for row in rotated))
    assert [v.status for v in verify_basis(mixed, BasisKind.UEB_ALL_CUTS).per_cut] == [
        SubspaceStatus.ONLY_PRODUCT, SubspaceStatus.CONTAINS_ENTANGLED, SubspaceStatus.CONTAINS_ENTANGLED]
    cases = (w, build_entry("eq6-mixed-ueb"), build_entry("appendix-4qubit"), StateSet(w.space, w.states[:-1]), mixed)
    for st in cases:
        want = verify_basis(st, BasisKind.UEB_ALL_CUTS, SearchConfig(seed=0), TOL)
        status = {v.cut.mask: v.status for v in want.per_cut}
        parties = st.space.parties
        for perm in itertools.permutations(range(parties)):
            # new party j is old party perm[j]
            space = QuditDims(tuple(st.space.dims[p] for p in perm))
            moved = StateSet(space, tuple(PureState(space, s.amps.reshape(st.space.dims).transpose(perm).reshape(-1))
                                          for s in st.states))
            got = verify_basis(moved, BasisKind.UEB_ALL_CUTS, SearchConfig(seed=0), TOL)
            assert (got.outcome, got.grade, got.complement_dim) == (want.outcome, want.grade, want.complement_dim), perm
            assert len(got.per_cut) == len(want.per_cut), perm
            for v in got.per_cut:
                old = Bipartition(st.space, sum(1 << perm[j] for j in range(parties) if v.cut.mask >> j & 1))
                assert v.status is status[old.mask], (perm, v.cut.mask)


def test_umeb_witness_outside_the_band_is_inconclusive(monkeypatch):
    """A search that ends within tol_me of maximal entanglement but outside
    the band is no evidence that the basis is unextendible."""
    monkeypatch.setattr(subspaces, "_in_me_band", lambda sv, tol_me: False)
    st = build_generator("prop2a-set")
    got = verify_basis(st, BasisKind.UMEB, SearchConfig(seed=0), TOL)
    assert got.outcome is Outcome.INCONCLUSIVE
    assert got.grade is Grade.NUMERICAL_EVIDENCE
    (v,) = got.per_cut
    assert v.status is SubspaceStatus.NO_ME_FOUND
    assert v.reason == subspaces._OUTSIDE_BAND
    res = completion_search(orthogonal_complement(st, TOL), SetMode.MAX_ENTANGLED, SearchConfig(seed=0), TOL)
    assert res.completable is Completable.NO_EVIDENCE
    assert res.reason == subspaces._OUTSIDE_BAND


def test_zero_starts_reports_no_evidence():
    full = StateSet(SP2, tuple(basis_state(SP2, k) for k in range(4)))
    cfg = SearchConfig(starts=0, seed=1)
    got = find_maximally_entangled(full, single_cut(SP2), cfg)
    assert got.status is SubspaceStatus.NO_ME_FOUND
    assert got.grade is Grade.NUMERICAL_EVIDENCE
    assert got.score is None

    got = find_product_state(full, single_cut(SP2), cfg)
    assert got.status is SubspaceStatus.NO_PRODUCT_FOUND
    assert got.grade is Grade.NUMERICAL_EVIDENCE
    assert got.reason == "search disabled (0 starts)"

    # the exact routes need no starts: the probe refuses an only-product plane,
    # and a rotated basis completes the full space with entangled states
    assert _entangled_probe(span_of(SP23, 2, 5), [single_cut(SP23)], TOL) == [None]
    got = max_orthogonal_set(full, single_cut(SP2), SetMode.ENTANGLED, cfg)
    assert len(got.found.states) == 4
    assert got.completable is Completable.YES
    assert got.reason == "subspace exhausted"
    for st in got.found.states:
        assert schmidt(st, single_cut(SP2), TOL).rank == 2


def test_search_is_deterministic_for_fixed_seed():
    full = StateSet(SP23, tuple(basis_state(SP23, k) for k in range(6)))
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
        comp = orthogonal_complement(embed_meb(d, n), TOL)
        cut = single_cut(comp.space)
        assert max_schmidt_rank_in_subspace(comp, cut) == n
        assert support_ranks(comp, [cut], TOL)[0] >= n
    full = StateSet(SP2, tuple(basis_state(SP2, k) for k in range(4)))
    assert max_schmidt_rank_in_subspace(full, single_cut(SP2)) == 2


def test_max_schmidt_rank_of_odd_antisymmetric_spans():
    """The antisymmetric d x d span, d odd, has full support but only singular
    members (det A = det A^T = -det A), so its generic Schmidt rank d - 1 lies
    below the support cap d; local unitaries change neither. For d = 3 it is
    the complement of Bravyi and Smolin's 3x3 unextendible maximally
    entangled basis."""
    for d in (3, 5):
        space = QuditDims((d, d))
        cut = single_cut(space)
        rng = np.random.default_rng([38, d])
        us = [haar_unitary(d, rng) for _ in range(2)]
        sub = orthonormalize(space, [apply_local_unitaries(combo(space, {f"{i}{j}": 1, f"{j}{i}": -1}), us).amps
                                     for i in range(d) for j in range(i + 1, d)])
        assert len(sub) == d * (d - 1) // 2
        assert support_ranks(sub, [cut], TOL)[0] == d
        for seed in range(3):
            assert max_schmidt_rank_in_subspace(sub, cut, SearchConfig(seed=seed), TOL) == d - 1, (d, seed)


def test_entangled_probe_finds_rank_two():
    rng = np.random.default_rng(24)
    for trial in range(50):
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2)]
        sub = orthonormalize(SP23, vecs)
        (w,) = _entangled_probe(sub, [single_cut(SP23)], TOL)
        assert w is not None
        assert schmidt(w, single_cut(SP23), TOL).rank >= 2


def test_max_orthogonal_set_modes():
    triple = build_generator("prop2a-set")
    comp = orthogonal_complement(triple, TOL)
    cut = single_cut(SP23)
    got = max_orthogonal_set(comp, cut, SetMode.MAX_ENTANGLED, SearchConfig(starts=16, seed=0))
    assert len(got.found.states) == 1
    assert got.completable is Completable.NO_EXACT
    got = max_orthogonal_set(comp, cut, SetMode.ENTANGLED, SearchConfig(starts=16, seed=0))
    assert len(got.found.states) == 3

    ray = StateSet(SP2, (basis_state(SP2, 3),))
    got = max_orthogonal_set(ray, single_cut(SP2), SetMode.ENTANGLED)
    assert len(got.found.states) == 0
    assert got.completable is Completable.NO_EXACT


def test_max_entangled_completion_keeps_only_exact_witnesses(monkeypatch):
    """A maximally entangled witness graded NUMERICAL_EVIDENCE is no member: with every
    search returning one (a vector of its own subspace), nothing is found."""

    def unverified(s, cut, cfg=None, tol=None):
        return SubspaceVerdict(cut, SubspaceStatus.ME_FOUND, Grade.NUMERICAL_EVIDENCE, witness=s.states[0], score=0.5)

    monkeypatch.setattr(subspaces, "find_maximally_entangled", unverified)
    got = max_orthogonal_set(span_of(SP2, 0, 1), single_cut(SP2), SetMode.MAX_ENTANGLED, tol=TOL)
    assert got.completable is Completable.NO_EVIDENCE
    assert not got.found.states


def test_product_count_reference_cases():
    psi_p = combo(SP2, {"01": 1, "10": 1})
    one = StateSet(SP2, (psi_p, basis_state(SP2, 0)))
    assert count_product_states_2d_2x2(one) is ProductCount.ONE
    two = span_of(SP2, 0, 3)
    assert count_product_states_2d_2x2(two) is ProductCount.TWO
    inf = span_of(SP2, 0, 1)
    assert count_product_states_2d_2x2(inf) is ProductCount.INFINITE
    with pytest.raises(ValueError):
        count_product_states_2d_2x2(span_of(SP23, 0, 1))
    with pytest.raises(ValueError):
        count_product_states_2d_2x2(StateSet(SP2, (psi_p,)))


def test_verify_basis_flags_product_member_first():
    psi_p = combo(SP2, {"01": 1, "10": 1})
    st = StateSet(SP2, (basis_state(SP2, 0), psi_p))
    got = verify_basis(st, BasisKind.UEB)
    assert got.outcome is Outcome.REFUTED
    assert got.offending_state == 0
    assert got.grade is Grade.EXACT
    # under UMEB the member check is maximal entanglement: a Schmidt-rank-2 member that is
    # not maximally entangled is the one refuted, before any search of the complement
    st = StateSet(SP2, (combo(SP2, {"00": 1, "11": 1}), combo(SP2, {"01": 0.6, "10": 0.8})))
    got = verify_basis(st, BasisKind.UMEB)
    assert (got.outcome, got.grade, got.offending_state, got.per_cut) == (Outcome.REFUTED, Grade.EXACT, 1, ())


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
    got = completion_search(orthogonal_complement(triple, TOL), SetMode.ENTANGLED, SearchConfig(starts=16, seed=0))
    assert got.completable is Completable.YES
    assert len(got.found.states) == 3

    got = completion_search(orthogonal_complement(triple, TOL), SetMode.MAX_ENTANGLED, SearchConfig(starts=16, seed=0))
    assert got.completable is Completable.NO_EXACT
    assert len(got.found.states) == 1

    # a set that already spans the space is complete, whatever the mode
    got = completion_search(orthogonal_complement(bell_meb(2), TOL), SetMode.ENTANGLED)
    assert got.completable is Completable.YES
    assert (len(got.found), got.complement_dim) == (0, 0)
    assert got.reason == "input already spans the space"
    # so on more than two parties, where any other set needs a cut
    every = StateSet(SP3, tuple(basis_state(SP3, i) for i in range(8)))
    assert completion_search(orthogonal_complement(every, TOL), SetMode.ENTANGLED).completable is Completable.YES
    with pytest.raises(ValueError, match="needs --cut <mask>"):
        completion_search(orthogonal_complement(build_entry("eq6-mixed-ueb"), TOL), SetMode.ENTANGLED)


def test_completion_search_refuses_unextendible_families():
    # an only-product complement yields an exact refusal with nothing found
    comp = orthogonal_complement(build_entry("eq1-ueb"), TOL)
    got = completion_search(comp, SetMode.ENTANGLED, SearchConfig(starts=16, seed=0))
    assert got.completable is Completable.NO_EXACT
    assert len(got.found.states) == 0
    assert got.complement_dim == 1


def test_entangled_completion_of_a_product_block_plus_one_direction():
    """The complement is an only-product block, optionally plus one random
    direction: the block alone is refused exactly, with the direction it is
    completed by entangled states, and neither answer moves under local unitaries."""
    for trial in range(40):
        rng = np.random.default_rng([27, trial])
        dims = ((2, 3), (3, 3), (2, 4), (3, 4))[trial % 4]
        space = QuditDims(dims)
        cut = single_cut(space)
        # a common factor on one side, spread over up to d - 1 directions of the other
        side = int(rng.integers(0, 2))
        fixed = haar_unitary(dims[side], rng)[:, 0]
        spread = haar_unitary(dims[1 - side], rng)[:, :int(rng.integers(1, dims[1 - side]))].T
        block = [np.kron(fixed, b) if side == 0 else np.kron(b, fixed) for b in spread]
        for extra, want in (([], Completable.NO_EXACT), ([random_state(space, rng).amps], Completable.YES)):
            comp = orthonormalize(space, block + extra)
            st = orthogonal_complement(comp, TOL)
            cfg = SearchConfig(starts=0, seed=trial)
            got = completion_search(orthogonal_complement(st, TOL), SetMode.ENTANGLED, cfg, TOL)
            assert (got.completable, got.complement_dim) == (want, len(comp)), (dims, trial)
            added = got.found.matrix()
            assert len(added) == (len(comp) if want is Completable.YES else 0)
            assert np.allclose(added.conj() @ added.T, np.eye(len(added)), rtol=0.0, atol=1e-9)
            for amps in added:
                assert _in_span(comp, amps)
            for w in got.found.states:
                assert schmidt(w, cut, TOL).rank >= 2

            us = [haar_unitary(d, rng) for d in dims]
            moved = StateSet(space, tuple(apply_local_unitaries(p, us) for p in st.states))
            again = completion_search(orthogonal_complement(moved, TOL), SetMode.ENTANGLED, cfg, TOL)
            assert (again.completable, again.complement_dim, len(again.found)) == (want, len(comp), len(added))


def test_entangled_completion_near_the_tolerance():
    """Complement span{|00>, |01> + delta |10>}: a member a|00> + b(...) has
    sigma_2 near |b|^2 delta, and |b|^2 sums to 1 over any orthonormal basis,
    so below eps the span is only-product, up to 2 eps no basis is all-entangled,
    and well above it the rotated basis is."""
    cut = single_cut(SP2)
    for scale, want, found in ((0.5, Completable.NO_EXACT, 0), (2.0, Completable.NO_EVIDENCE, 0),
                               (100.0, Completable.YES, 2)):
        delta = scale * TOL
        comp = orthonormalize(SP2, [basis_state(SP2, 0).amps, np.array([0.0, 1.0, delta, 0.0])])
        st = orthogonal_complement(comp, TOL)
        got = completion_search(orthogonal_complement(st, TOL), SetMode.ENTANGLED, SearchConfig(starts=0), TOL)
        assert (got.completable, len(got.found)) == (want, found), scale
        if want is Completable.NO_EVIDENCE:
            assert "within tolerance of only-product" in got.reason
        for w in got.found.states:
            assert schmidt(w, cut, TOL).rank == 2


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(starts=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SearchConfig(seed=-1)


def test_empty_subspace_rejected():
    with pytest.raises(ValueError):
        find_maximally_entangled(StateSet(SP2, ()), single_cut(SP2))


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
        (StateSet(SP23, tuple(PureState(SP23, np.kron(x, y)) for x, y in ((a, b), (a, c), (d, b)))),
         [np.kron(a, e), np.kron(d, c), np.kron(d, e)]),
    ]
    for sub, rest in cases:
        cut = single_cut(sub.space)
        assert all(is_product(x, cut, TOL) for x in sub.states)
        assert not only_product(sub, cut)
        (w,) = _entangled_probe(sub, [cut], TOL)
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
    for tol in (DEFAULT_EPS, 1e-6):
        for scale, only in ((0.1, True), (10.0, False)):
            delta = scale * tol
            ray = np.array([1.0, 0.0, 0.0, delta]) / np.hypot(1.0, delta)
            sub = StateSet(SP2, (PureState(SP2, ray),))
            assert only_product(sub, cut, tol) is only
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


def _svd_probe(rows, cut, eps):
    """Reference probe: batched SVDs of the basis reshapes, then of the normalized pair sums."""
    r = uebkit.cuts.reshape_rows(rows, cut)
    c = np.zeros(len(r), dtype=np.complex128)
    hit = np.flatnonzero(np.linalg.svd(r, compute_uv=False)[:, 1] > eps)
    if hit.size:
        c[hit[0]] = 1.0
        return c
    for i in range(len(r) - 1):
        hit = np.flatnonzero(np.linalg.svd((r[i] + r[i + 1:]) / math.sqrt(2.0), compute_uv=False)[:, 1] > eps)
        if hit.size:
            c[i] = c[i + 1 + hit[0]] = 1.0 / math.sqrt(2.0)
            return c
    return None


def test_entangled_probe_matches_the_svd_reference():
    """The probe counts sigma_2 > eps with the shared Schmidt-rank table; one call over every cut
    gives at each cut the witness of the SVD reference's coefficients there, on Haar spans, on
    locally rotated kets (where only the pair scan can hit, or nothing can) and on the two spans
    whose sigma_2 values sit near eps."""
    rng = np.random.default_rng(29)
    spans = []
    for dims in ((2, 3), (3, 3), (2, 2, 2)):
        sp = QuditDims(dims)
        for k in (1, 2, sp.total - 2):
            z = rng.standard_normal((2, k, sp.total))
            spans.append(orthonormalize(sp, z[0] + 1j * z[1]))
        local = np.eye(1)
        for d in dims:
            local = np.kron(local, haar_unitary(d, rng))
        for kets in ([0, 1], [0, sp.total - 1], [1, 2, sp.total - 1]):
            spans.append(StateSet(sp, local[:, kets].T))  # product rows
    delta = 1.7 * TOL
    e = [basis_state(SP23, i).amps for i in range(6)]
    fourier = _fourier_set(SP23, [e[2], e[3], e[5], (e[4] - delta * e[1]) / math.hypot(1.0, delta)])
    spans.append(orthogonal_complement(fourier, TOL))
    sp28 = QuditDims((2, 8))
    spans.append(orthonormalize(sp28, [basis_state(sp28, i).amps + 0.6 * TOL * basis_state(sp28, 12).amps
                                      for i in range(4)]))
    # the first entangled row differs between cuts: |0>|psi+> is product at 1|23 alone
    spans.append(StateSet(SP3, (combo(SP3, {"001": 1, "010": 1}), combo(SP3, {"000": 1, "111": 1}))))
    kinds = []
    for sub in spans:
        cuts = enumerate_cuts(sub.space)
        for cut, got in zip(cuts, _entangled_probe(sub, cuts, TOL), strict=True):
            want = _svd_probe(sub.matrix(), cut, TOL)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.amps.tobytes() == _coeff_state(sub, want, TOL).amps.tobytes()
                kinds.append(int(np.count_nonzero(want)))
            else:
                kinds.append(0)
    assert {0, 1, 2} <= set(kinds)  # no hit, a basis row, a pair sum


def test_a_refutation_without_a_witness_is_not_exact():
    """A 2x3 Fourier set whose complement is span{|00>, (|01> + delta |11>)/n},
    delta = 1.7 eps: the support ranks say 2, yet a vector a|00> + b(...) has
    sigma_2 at most about delta / 2 = 0.85 eps, so the probe finds no witness
    and nothing certifies either answer. The verdict is INCONCLUSIVE, never
    REFUTED / EXACT without a witness, under local unitaries and the party swap."""
    delta = 1.7 * TOL
    e = [basis_state(SP23, i).amps for i in range(6)]
    st = _fourier_set(SP23, [e[2], e[3], e[5], (e[4] - delta * e[1]) / math.hypot(1.0, delta)])
    sp32 = QuditDims((3, 2))
    swapped = StateSet(sp32, tuple(PureState(sp32, p.amps.reshape(2, 3).T.reshape(-1)) for p in st.states))
    variants = [st, swapped]
    for seed in range(3):
        rng = np.random.default_rng([44, seed])
        for base in (st, swapped):
            us = [haar_unitary(d, rng) for d in base.space.dims]
            variants.append(StateSet(base.space, tuple(apply_local_unitaries(p, us) for p in base.states)))
    for i, moved in enumerate(variants):
        got = verify_basis(moved, BasisKind.UEB, tol=TOL)
        assert (got.outcome, got.grade, got.complement_dim) == (Outcome.INCONCLUSIVE, Grade.NUMERICAL_EVIDENCE, 2), i
        (v_cut,) = got.per_cut
        assert (v_cut.status, v_cut.grade, v_cut.witness) == (SubspaceStatus.CONTAINS_ENTANGLED,
                                                              Grade.NUMERICAL_EVIDENCE, None), i
        assert support_ranks(got.complement, [v_cut.cut], TOL).tolist() == [2], i


def _svd_support_rank(sub, cut, eps):
    """Reference support rank: SVD counts of the basis reshapes stacked by rows and by columns."""
    r = uebkit.cuts.reshape_rows(sub.matrix(), cut)
    stacks = (r.reshape(-1, r.shape[2]), r.transpose(0, 2, 1).reshape(-1, r.shape[1]))
    return min(int((np.linalg.svd(x, compute_uv=False) > eps).sum()) for x in stacks)


def _product_block(dims, side, count, rng):
    """Rows of a locally rotated product block: a fixed vector of party `side` times `count`
    orthonormal vectors of the other party, as amplitude rows of the two-block space dims."""
    fixed = haar_unitary(dims[side], rng)[:, 0]
    spread = haar_unitary(dims[1 - side], rng)[:, :count].T
    return [np.kron(fixed, b) if side == 0 else np.kron(b, fixed) for b in spread]


def test_support_ranks_match_the_svd_reference():
    """The purification table behind the dimension lemma counts what the SVDs of the stacked
    rows and columns count, at every cut: Haar spans of every size over two to five parties
    with a qutrit in several places, locally rotated product blocks (a (x) C^m and C^m (x) b,
    with and without one more random direction), and the two spans of aim 2 whose values sit
    near eps, at a small, the default and nearly the largest accepted tolerance."""
    rng = np.random.default_rng(47)
    spans = []
    for dims in ((2, 3), (3, 3), (2, 4), (3, 4), (2, 2, 3), (3, 3, 2), (2, 3, 2, 2), (2,) * 5):
        sp = QuditDims(dims)
        for k in sorted({1, 2, 3, sp.total // 2, sp.total - 2, sp.total - 1}):
            z = rng.standard_normal((2, k, sp.total))
            spans.append(orthonormalize(sp, z[0] + 1j * z[1]))
        two = (dims[0], sp.total // dims[0])  # the cut 1|rest as two blocks
        for side in (0, 1):
            for count in (1, two[1 - side] - 1, two[1 - side]):
                block = _product_block(two, side, count, rng)
                spans.append(orthonormalize(sp, block))
                spans.append(orthonormalize(sp, block + [random_state(sp, rng).amps]))
    delta = 1.7 * TOL
    e = [basis_state(SP23, i).amps for i in range(6)]
    fourier = _fourier_set(SP23, [e[2], e[3], e[5], (e[4] - delta * e[1]) / math.hypot(1.0, delta)])
    spans.append(orthogonal_complement(fourier, TOL))
    sp28 = QuditDims((2, 8))
    spans.append(orthonormalize(sp28, [basis_state(sp28, i).amps + 0.6 * TOL * basis_state(sp28, 12).amps
                                      for i in range(4)]))
    for tol in (1e-12, TOL, 9e-4):
        for sub in spans:
            cuts = enumerate_cuts(sub.space)
            want = [_svd_support_rank(sub, c, tol) for c in cuts]
            assert support_ranks(sub, cuts, tol).tolist() == want, (sub.space, len(sub), tol)
            assert [support_ranks(sub, [c], tol)[0] for c in cuts] == want


def _two_party_variants(sub, rng):
    """sub, its party swap, and each of the two under a Haar local unitary."""
    da, db = sub.space.dims
    swapped = StateSet(QuditDims((db, da)), sub.matrix().reshape(-1, da, db).transpose(0, 2, 1).reshape(len(sub), -1))
    out = [sub, swapped]
    for base in (sub, swapped):
        u = np.kron(*(haar_unitary(d, rng) for d in base.space.dims))
        out.append(StateSet(base.space, base.matrix() @ u.T))
    return out


def test_dimension_lemma_boundary(monkeypatch):
    """a (x) C^dB has k = dB members and support rank 1, which the purification table counts,
    since the lemma's bound dB + (dA - 1)(eps + delta)^2 is not exceeded. One vector more, in
    2x4, is settled at support rank 2 by the lemma alone, with no table, and the probe's
    witness refutes it. In C^dA (x) b only the other column of the table is 1. In 3x4 a span
    exceeds both bounds 2 * dB and 2 * dA only at k = 9, where the lemma settles rank 3, and a
    set whose complement is a (x) C^4 is a UEB. Each holds under a Haar local unitary and the
    party swap."""
    tables = []
    table = uebkit.cuts.schmidt_rank_table

    def counting(*args, **kwargs):
        tables.append(len(args[1]))
        return table(*args, **kwargs)

    monkeypatch.setattr(subspaces, "schmidt_rank_table", counting)
    rng = np.random.default_rng(48)
    sp24, sp34 = QuditDims((2, 4)), QuditDims((3, 4))
    a_c4 = _product_block((2, 4), 0, 4, rng)
    c2_b = _product_block((2, 4), 1, 2, rng)
    a_c4_3 = _product_block((3, 4), 0, 4, rng)
    z = rng.standard_normal((2, 9, 12))
    cases = [  # span, support rank, counted by the table
        (orthonormalize(sp24, a_c4), 1, True),
        (orthonormalize(sp24, a_c4 + [random_state(sp24, rng).amps]), 2, False),
        (orthonormalize(sp24, c2_b), 1, True),
        (orthonormalize(sp24, c2_b + [random_state(sp24, rng).amps]), 2, True),
        (orthonormalize(sp34, a_c4_3), 1, True),
        (orthonormalize(sp34, a_c4_3 + [random_state(sp34, rng).amps]), 3, True),
        (orthonormalize(sp34, z[0, :8] + 1j * z[1, :8]), 3, True),
        (orthonormalize(sp34, z[0] + 1j * z[1]), 3, False),
    ]
    for i, (span, want, counted) in enumerate(cases):
        for j, sub in enumerate(_two_party_variants(span, rng)):
            cut = single_cut(sub.space)
            tables.clear()
            assert subspaces.support_ranks(sub, [cut], TOL).tolist() == [want], (i, j)
            assert tables == ([2] if counted else []), (i, j)
            assert _svd_support_rank(sub, cut, TOL) == want, (i, j)
            (witness,) = _entangled_probe(sub, [cut], TOL)
            assert (witness is None) is (want == 1), (i, j)
            if witness is not None:
                assert schmidt(witness, cut, TOL).rank >= 2 and _in_span(sub, witness.amps), (i, j)
            if sub.space.total == 12 and len(sub) <= 5:  # the members of a set around it can be entangled
                got = verify_basis(_fourier_set(sub.space, list(orthogonal_complement(sub, TOL).matrix())),
                                   BasisKind.UEB, tol=TOL)
                assert got.offending_state is None, (i, j)
                (v_cut,) = got.per_cut
                if want == 1:
                    assert (got.outcome, got.grade, v_cut.status) == (
                        Outcome.VERIFIED, Grade.EXACT, SubspaceStatus.ONLY_PRODUCT), (i, j)
                else:
                    assert (got.outcome, got.grade, v_cut.grade) == (Outcome.REFUTED, Grade.EXACT, Grade.EXACT), (i, j)
                    assert _in_span(sub, v_cut.witness.amps), (i, j)


def test_dimension_lemma_refutes_every_cut_of_a_small_set(monkeypatch):
    """Three Haar states of three qubits leave a complement of dimension 5 = dB + 1 at each
    2|4 cut: the lemma settles every cut, so verify_basis takes no support-rank table, and each
    cut is refuted with a witness in the complement. With four states (k = dB) every cut is
    counted. Both hold under Haar local unitaries and every party permutation."""
    rng = np.random.default_rng(49)
    z = rng.standard_normal((2, 4, 8))
    table = uebkit.cuts.schmidt_rank_table
    supports = []

    def counting(*args, **kwargs):
        if len(args[0]) == 1:  # a single-member table here is the complement's purification
            supports.append(len(args[1]))
        return table(*args, **kwargs)

    monkeypatch.setattr(subspaces, "schmidt_rank_table", counting)
    for k, want in ((3, []), (4, [6])):
        base = orthonormalize(SP3, z[0, :k] + 1j * z[1, :k])
        for perm in itertools.permutations(range(3)):
            us = [haar_unitary(2, rng) for _ in range(3)]
            moved = StateSet(SP3, tuple(apply_local_unitaries(
                PureState(SP3, p.amps.reshape(2, 2, 2).transpose(perm).reshape(-1)), us) for p in base.states))
            supports.clear()
            got = verify_basis(moved, BasisKind.UEB_ALL_CUTS, tol=TOL)
            assert supports == want, (k, perm)
            assert (got.outcome, got.grade, got.complement_dim) == (Outcome.REFUTED, Grade.EXACT, 8 - k), (k, perm)
            for v in got.per_cut:
                assert v.status is SubspaceStatus.CONTAINS_ENTANGLED and v.grade is Grade.EXACT, (k, perm)
                assert schmidt(v.witness, v.cut, TOL).rank >= 2 and _in_span(got.complement, v.witness.amps)


def _norm(v):
    return math.sqrt(np.vdot(v, v).real)


def _sphere_ascent(fun, c0, max_iter, min_improvement, peak=None):
    """Reference: the one-start ascent that _ascend runs for every row of a stack."""
    c = np.asarray(c0, dtype=np.complex128)
    c = c / _norm(c)
    f, g = fun(c)
    step = 1.0
    for _ in range(max_iter):
        d = g - np.vdot(c, g) * c
        dn = _norm(d)
        if dn < 1e-15:
            break
        eta = step
        accepted = False
        for _ in range(50):
            trial = c + eta * d
            trial /= _norm(trial)
            ft, gt = fun(trial)
            if ft > f + 1e-4 * eta * dn * dn:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        gain = ft - f
        stalled = peak is not None and gain < subspaces._STALL * (peak - f)
        c, f, g = trial, ft, gt
        step = min(eta * 2.0, 1.0)
        if gain < min_improvement or stalled:
            break
    return c, f


def test_batched_ascent_matches_one_start_reference():
    """Every row of a stacked ascent follows its one-start trajectory bit for
    bit, for both signs of the entropy at their known peaks; the stall rule
    stops some rows sooner than the reference without a peak."""
    rng = np.random.default_rng(26)
    stalled = 0
    for dims in ((2, 3), (3, 3), (2, 4)):
        space = QuditDims(dims)
        cut = single_cut(space)
        # a product basis vector first: its coefficient start is a product point,
        # where the impurity and its gradient vanish, so that row stops at once
        # while the random starts run on
        vecs = [basis_state(space, 0).amps] + [random_state(space, rng).amps for _ in range(2)]
        r_stack = _reshapes(orthonormalize(space, vecs), cut)
        starts = np.vstack([np.eye(1, 3, dtype=np.complex128), _random_starts(7, 3, 4, 3)])
        objectives = (("impurity", _impurity_vag(r_stack), 0.0),
                      ("entropy", _impurity_vag(r_stack, 1.0), (1.0 - 1.0 / min(dims)) / 2.0))
        for name, vag, peak in objectives:
            def one(c, vag=vag):
                f, g = vag(c[None])
                return f[0], g[0]

            for max_iter in (100, 3, 0):
                cs, fs = _ascend(vag, starts, max_iter, peak)
                for j, c0 in enumerate(starts):
                    c_row, f_row = _ascend(vag, starts[j:j + 1], max_iter, peak)
                    c_ref, f_ref = _sphere_ascent(one, c0, max_iter, subspaces._MIN_IMPROVEMENT, peak)
                    assert np.array_equal(cs[j], c_row[0]) and fs[j] == f_row[0], (dims, name, max_iter, j)
                    assert np.array_equal(cs[j], c_ref) and fs[j] == f_ref, (dims, name, max_iter, j)
                    if max_iter == 100:
                        plain, _ = _sphere_ascent(one, c0, max_iter, subspaces._MIN_IMPROVEMENT)
                        stalled += not np.array_equal(cs[j], plain)
                if name == "impurity" and max_iter:
                    assert np.array_equal(cs[0], starts[0])
                    assert not np.array_equal(cs[1:], starts[1:])
    assert stalled


def test_batched_newton_matches_one_row_runs():
    """Every row of a stacked Gauss-Newton run follows its one-row iterates bit for bit."""
    rng = np.random.default_rng(37)
    for dims, k in (((3, 3), 5), ((2, 4), 4), ((2, 4), 3)):
        space = QuditDims(dims)
        cut = single_cut(space)
        # a product basis vector first: at its coefficient start both residuals
        # of the product polish vanish, so that row stops at once
        r_stack = _reshapes(orthonormalize(space, [basis_state(space, 0).amps]
                                           + [random_state(space, rng).amps for _ in range(k - 1)]), cut)
        starts = np.vstack([np.eye(1, k, dtype=np.complex128), _random_starts(8, 3, 5, k)])
        for name, (lin, retract), x0 in (
                ("product", subspaces._rank_one_newton(r_stack), subspaces._rank_one_start(r_stack, starts)),
                ("me", subspaces._me_newton(r_stack, min(dims)), starts)):
            xs = subspaces._gauss_newton(lin, retract, x0)
            for j in range(len(x0)):
                assert np.array_equal(xs[j], subspaces._gauss_newton(lin, retract, x0[j:j + 1])[0]), (dims, name, j)
            if name == "product":
                assert np.array_equal(xs[0], x0[0])
            assert not np.array_equal(xs[1:], x0[1:]), (dims, name)


def _polish_every_start(s, cut, r_stack, vag, peak, polish, accept, check, starts, long_steps, tol):
    """Reference: _two_rounds with one polish of every endpoint per round."""
    cs, done = starts, 0
    for steps in (subspaces._SHORT_STEPS, long_steps):
        cs, _ = _ascend(vag, cs, steps - done, peak)
        done = steps
        polished = polish(cs)
        sv = np.linalg.svd(subspaces._m_stack(r_stack, polished), compute_uv=False)
        for i in np.flatnonzero(accept(sv)):
            witness = subspaces._coeff_state(s, polished[i], tol)
            if check(witness, cut, tol):
                return witness, None, None
    return None, polished, sv


def test_index_ordered_polish_matches_a_polish_of_every_start(monkeypatch):
    """Polishing the first endpoints before the rest returns the witness bytes,
    or on a miss the polished endpoints, of one polish of every start: on
    above-bound product finds, maximally entangled finds, misses, and one
    second-round find."""
    two_rounds = subspaces._two_rounds
    compared = []

    def both(*args):
        got, want = two_rounds(*args), _polish_every_start(*args)
        assert (got[0] is None) == (want[0] is None)
        if got[0] is not None:
            assert got[0].amps.tobytes() == want[0].amps.tobytes()
        else:
            assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()
        compared.append(args)
        return got

    monkeypatch.setattr(subspaces, "_two_rounds", both)
    assert np.array_equal(_random_starts(5, 1, 3, 4), _random_starts(5, 1, 64, 4)[:3])
    statuses = []
    for dims, k in (((3, 3), 5), ((2, 4), 4), ((3, 3), 4)):
        space = QuditDims(dims)
        cut = single_cut(space)
        for draw in range(3):
            sub = _subspace_of(space, _haar_rows(math.prod(dims), k, np.random.default_rng([36, k, draw])))
            for search in (find_product_state, find_maximally_entangled):
                statuses.append(search(sub, cut, SearchConfig(seed=draw), TOL).status)
    # the draw of test_me_search_second_round_finds_what_the_first_missed
    space = QuditDims((3, 3))
    rng = np.random.default_rng([9, 3, 3, 5, 4])
    sub = orthonormalize(space, [random_state(space, rng).amps for _ in range(5)])
    statuses.append(find_maximally_entangled(sub, single_cut(space), SearchConfig(seed=18), TOL).status)
    assert len(compared) == len(statuses) and statuses[:12:2] == [SubspaceStatus.PRODUCT_FOUND] * 6
    assert {SubspaceStatus.ME_FOUND, SubspaceStatus.NO_PRODUCT_FOUND} <= set(statuses)
    assert statuses[-1] is SubspaceStatus.ME_FOUND


def test_table_driven_entropy_matches_the_direct_formula():
    """The table-driven value and direction of _impurity_vag match the direct
    formula on M(c), for both signs and with M taller than wide (4x2)."""
    rng = np.random.default_rng(38)
    for dims, k in (((2, 3), 3), ((3, 3), 5), ((2, 4), 4), ((4, 2), 4)):
        space = QuditDims(dims)
        r_stack = _reshapes(_subspace_of(space, _haar_rows(math.prod(dims), k, rng)), single_cut(space))
        cs = _random_starts(38, 1, 6, k)
        for sign in (-1.0, 1.0):
            f, g = _impurity_vag(r_stack, sign)(cs)
            for c, f_row, g_row in zip(cs, f, g):
                m = np.einsum("k,kab->ab", c, r_stack)
                h = m @ m.conj().T
                trh = np.trace(h).real
                want_f = sign * (trh * trh - np.sum(np.abs(h) ** 2)) / 2.0
                want_g = sign * np.einsum("kab,ab->k", r_stack.conj(), trh * m - h @ m)
                assert abs(f_row - want_f) <= 1e-14 and np.abs(g_row - want_g).max() <= 1e-14, (dims, sign)
