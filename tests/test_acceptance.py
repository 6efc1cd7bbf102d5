"""Acceptance gate: end-to-end checks of the shipped families at pinned tolerances.

One test per acceptance criterion; the terminal summary hook prints a
"[acceptance] <name>: PASS/FAIL" line for each. Runtime-capped tests measure
wall time around the capped work only.
"""

import math
import time

import numpy as np

from uebkit import (
    BasisKind,
    CoeffVariant,
    DEFAULT_EPS,
    Grade,
    Outcome,
    ProductCount,
    PureState,
    QuditDims,
    SearchConfig,
    SetMode,
    SloccClass,
    StateSet,
    SubspaceStatus,
    all_cut_indistinguishability_flag,
    basis_state,
    bell_meb,
    classify_three_qubit,
    count_product_states_2d_2x2,
    embed_meb,
    enumerate_cuts,
    ghz_w_range_witness,
    haar_unitary,
    inner,
    is_maximally_entangled,
    is_product,
    max_orthogonal_set,
    max_schmidt_rank_in_subspace,
    meb_extension_completion,
    me_triple_2x3,
    n_qubit_ueb,
    orthogonal_complement,
    orthonormalize,
    partial_trace,
    schmidt,
    single_cut,
    span_equal,
    state_from_combination,
    support_ranks,
    three_qubit_mixed_ueb,
    three_qubit_w_ueb,
    three_tangle,
    two_qubit_ueb_fourier,
    two_qubit_ueb_general,
    two_qubit_ueb_real,
    verify_basis,
    w_state,
    walgate_flag,
)
from uebkit.subspaces import _entangled_probe

SP2 = QuditDims((2, 2))
TOL = DEFAULT_EPS


def test_two_qubit_families_verify_exact_and_share_span():
    t0 = time.perf_counter()
    real = two_qubit_ueb_real()
    fourier = two_qubit_ueb_fourier()
    for st in (real, fourier):
        v = verify_basis(st, BasisKind.UEB)
        assert v.outcome is Outcome.VERIFIED
        assert v.grade is Grade.EXACT
        comp = orthogonal_complement(st, TOL)
        assert len(comp) == 1
        ray = orthonormalize(SP2, [basis_state(SP2, "11").amps])
        assert span_equal(comp, ray, TOL)
    assert span_equal(real, fourier, TOL)
    assert time.perf_counter() - t0 < 1.0


def test_general_two_qubit_family_over_200_seeds():
    t0 = time.perf_counter()
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    for k in range(200):
        rng = np.random.default_rng(1000 + k)
        st, verdict = two_qubit_ueb_general(haar_unitary(2, rng), e0, seed=k)
        assert len(st.states) == 3
        assert verdict.kind is BasisKind.UEB
        assert verdict.outcome is Outcome.VERIFIED
        assert verdict.complement_dim == 1
        comp = orthogonal_complement(st, TOL)
        assert len(comp) == 1
        assert is_product(comp.states[0], single_cut(SP2), TOL)
        assert walgate_flag(st).value is True
    assert time.perf_counter() - t0 < 10.0


def test_embedded_square_meb_grid():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        for n in range(1, d):
            st = embed_meb(d, n)
            v = verify_basis(st, BasisKind.UMEB)
            assert v.outcome is Outcome.VERIFIED, (d, n)
            assert v.grade is Grade.EXACT, (d, n)
            comp = orthogonal_complement(st, TOL)
            assert max_schmidt_rank_in_subspace(comp, single_cut(st.space)) == n, (d, n)
    assert time.perf_counter() - t0 < 10.0


def test_extension_completes_padded_square_meb():
    space = QuditDims((2, 4))
    padded = []
    for s in bell_meb(2).states:
        m = np.zeros((2, 4), dtype=np.complex128)
        m[:, :2] = s.amps.reshape(2, 2)
        padded.append(PureState(space, m.reshape(-1)))
    union = StateSet(space, tuple(padded) + meb_extension_completion().states)
    assert len(union.states) == 8
    amps = np.stack([s.amps for s in union.states])
    gram = amps @ amps.conj().T
    assert np.abs(gram - np.eye(8)).max() < 1e-9
    cut = single_cut(space)
    for s in union.states:
        assert is_maximally_entangled(s, cut, TOL)
    assert verify_basis(union, BasisKind.UMEB).outcome is Outcome.COMPLETE_BASIS


def test_me_deficient_triple_separates_completion_modes():
    t0 = time.perf_counter()
    triple = me_triple_2x3()
    space = triple.space
    cut = single_cut(space)
    comp = orthogonal_complement(triple, TOL)
    cfg = SearchConfig(starts=64, seed=0)

    best_me = max_orthogonal_set(comp, cut, SetMode.MAX_ENTANGLED, cfg, TOL)
    assert len(best_me.found.states) == 1
    phi_plus = state_from_combination(space, {"00": 1, "11": 1})
    fidelity = abs(inner(best_me.found.states[0], phi_plus)) ** 2
    assert fidelity > 1 - 1e-9

    best_ent = max_orthogonal_set(comp, cut, SetMode.ENTANGLED, cfg, TOL)
    assert len(best_ent.found.states) == 3
    full = StateSet(space, triple.states + best_ent.found.states)
    assert len(full.states) == space.total
    assert verify_basis(full, BasisKind.COMPLETE).outcome is Outcome.COMPLETE_BASIS
    assert time.perf_counter() - t0 < 5.0


def test_w_class_family_unextendible_all_cuts():
    st = three_qubit_w_ueb()
    v = verify_basis(st, BasisKind.UEB_ALL_CUTS)
    assert v.outcome is Outcome.VERIFIED
    assert v.grade is Grade.EXACT
    assert len(v.per_cut) == 3
    for cut_verdict in v.per_cut:
        assert cut_verdict.status is SubspaceStatus.ONLY_PRODUCT
        assert cut_verdict.grade is Grade.EXACT
    for s in st.states:
        assert min(schmidt(s, c, TOL).rank for c in enumerate_cuts(st.space)) >= 2
        assert three_tangle(s) < 1e-8
        assert classify_three_qubit(s, TOL).category is SloccClass.W_CLASS


def test_mixed_class_family_flags_and_probabilities():
    from uebkit import resource_dimension_flag

    st = three_qubit_mixed_ueb()
    v = verify_basis(st, BasisKind.UEB_ALL_CUTS)
    assert v.outcome is Outcome.VERIFIED
    assert v.grade is Grade.EXACT

    labels = [classify_three_qubit(s, TOL) for s in st.states]
    assert [x.category for x in labels[:4]] == [SloccClass.GHZ_CLASS] * 4
    assert [x.category for x in labels[4:]] == [SloccClass.W_CLASS] * 3
    for s in st.states[:4]:
        assert abs(three_tangle(s) - 1.0) <= 1e-8
    assert resource_dimension_flag(st, TOL) is True

    flags = all_cut_indistinguishability_flag(st, TOL)
    assert set(flags) == {1, 3, 5}
    for rec in flags.values():
        assert rec.flag.value is True
        probs = rec.probabilities
        assert len(probs) == 3
        assert abs(probs[0] - 1.0) < 1e-9
        assert abs(probs[1] - 1.0) < 1e-9
        assert abs(probs[2] - 5 / 6) < 1e-9

    first_five = StateSet(st.space, st.states[:5])
    flags5 = all_cut_indistinguishability_flag(first_five, TOL)
    assert set(flags5) == {1, 3, 5}
    assert all(rec.flag.value is True for rec in flags5.values())


def test_shipped_family_cardinalities():
    assert len(three_qubit_w_ueb().states) == 6
    assert len(three_qubit_mixed_ueb().states) == 7


def test_four_qubit_listing_and_larger_families():
    sp4 = QuditDims((2, 2, 2, 2))
    r2 = math.sqrt(2)
    listing = [
        {"0001": 1, "0010": 1, "0100": 1, "1000": 1},
        {"0001": 1, "0010": 1, "0100": -1, "1000": -1},
        {"0001": 1, "0010": -1, "0100": 1, "1000": -1},
        {"0001": 1, "0010": -1, "0100": -1, "1000": 1},
        {"1110": 1, "1101": 1, "1011": 1, "0111": 1},
        {"1110": 1, "1101": 1, "1011": -1, "0111": -1},
        {"1110": 1, "1101": -1, "1011": 1, "0111": -1},
        {"1110": 1, "1101": -1, "1011": -1, "0111": 1},
        {"0011": 1, "1100": 1},
        {"0000": r2, "0011": 1, "1100": -1},
        {"0000": -r2, "0011": 1, "1100": -1},
        {"0101": 1, "1010": 1},
        {"0101": 1, "1010": -1},
        {"0110": 1, "1001": 1},
        {"0110": 1, "1001": -1},
    ]
    reference = [state_from_combination(sp4, spec) for spec in listing]
    st = n_qubit_ueb(4, CoeffVariant.HADAMARD_IF_POWER_OF_TWO)
    assert len(st.states) == 15
    for built, ref in zip(st.states, reference):
        assert abs(inner(built, ref)) ** 2 > 1 - 1e-12

    five = n_qubit_ueb(5)
    v5 = verify_basis(five, BasisKind.UEB_ALL_CUTS)
    assert v5.outcome is Outcome.VERIFIED and v5.grade is Grade.EXACT

    t0 = time.perf_counter()
    six = n_qubit_ueb(6)
    assert len(six.states) == 63
    v6 = verify_basis(six, BasisKind.UEB_ALL_CUTS)
    assert v6.outcome is Outcome.VERIFIED and v6.grade is Grade.EXACT
    assert len(v6.per_cut) == 31
    assert time.perf_counter() - t0 < 60.0


def test_ghz_w_reduced_range_witness():
    for n in range(3, 9):
        assert ghz_w_range_witness(n) == (ProductCount.ONE, ProductCount.TWO)
        rho = partial_trace(w_state(n), (0, 1))
        psi_plus = state_from_combination(SP2, {"01": 1, "10": 1}).amps
        e00 = basis_state(SP2, "00").amps
        expected = (2.0 * np.outer(psi_plus, psi_plus.conj())
                    + (n - 2) * np.outer(e00, e00.conj())) / n
        assert np.abs(rho - expected).max() < 1e-8


def _product_plane(space: QuditDims, rng: np.random.Generator):
    """Random only-product subspace: every member shares a tensor factor."""
    da, db = space.dims
    if rng.integers(2) == 0:
        shared = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        shared /= np.linalg.norm(shared)
        k = int(rng.integers(1, db + 1))
        rest = haar_unitary(db, rng)[:, :k]
        vecs = [np.kron(shared, rest[:, j]) for j in range(k)]
    else:
        shared = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        shared /= np.linalg.norm(shared)
        k = int(rng.integers(1, da + 1))
        rest = haar_unitary(da, rng)[:, :k]
        vecs = [np.kron(rest[:, j], shared) for j in range(k)]
    return orthonormalize(space, vecs)


def _root_count_oracle(m1: np.ndarray, m2: np.ndarray) -> ProductCount:
    """Projective root count of det(c0*m1 + c1*m2), computed from scratch."""
    a = complex(np.linalg.det(m1))
    c = complex(np.linalg.det(m2))
    b = complex(np.linalg.det(m1 + m2)) - a - c
    coeffs = np.array([a, b, c])
    peak = float(np.abs(coeffs).max())
    if peak < 1e-12:
        return ProductCount.INFINITE
    a, b, c = coeffs / peak
    roots: list[tuple[complex, complex]] = []
    if abs(a) < 1e-12:
        roots.append((1.0, 0.0))
        if abs(b) >= 1e-12:
            roots.append((-c / b, 1.0))
    else:
        roots.extend((r, 1.0) for r in np.roots([a, b, c]))
    if len(roots) == 2:
        (x1, y1), (x2, y2) = roots
        n1 = math.hypot(abs(x1), abs(y1))
        n2 = math.hypot(abs(x2), abs(y2))
        if abs(x1 * y2 - x2 * y1) / (n1 * n2) < 3e-5:
            return ProductCount.ONE
        return ProductCount.TWO
    return ProductCount.ONE


def test_oracle_equivalence_suite():
    spaces = [QuditDims((2, 2)), QuditDims((2, 3)), QuditDims((2, 4))]
    for i in range(500):
        rng = np.random.default_rng(7000 + i)
        space = spaces[i % 3]
        if i % 2 == 0:
            sub = _product_plane(space, rng)
        else:
            k = int(rng.integers(1, 4))
            total = space.total
            sub = orthonormalize(space, [rng.standard_normal(total) + 1j * rng.standard_normal(total)
                                         for _ in range(k)])
        cut = single_cut(space)
        exact = support_ranks(sub, [cut], TOL)[0] <= 1
        (found,) = _entangled_probe(sub, [cut], TOL)
        assert (found is None) == exact, i
        if found is not None:
            assert schmidt(found, cut, TOL).rank >= 2

    for i in range(500):
        rng = np.random.default_rng(9000 + i)
        sub = orthonormalize(SP2, [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                                   for _ in range(2)])
        got = count_product_states_2d_2x2(sub)
        want = _root_count_oracle(sub.states[0].amps.reshape(2, 2), sub.states[1].amps.reshape(2, 2))
        assert got == want, i
