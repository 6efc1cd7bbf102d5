"""Bipartitions and Schmidt data: canonical masks, decomposition, invariances."""

import math

import numpy as np
import pytest

from uebkit import (
    BasisKind,
    Bipartition,
    QuditDims,
    StateSet,
    Tolerance,
    apply_local_unitaries,
    basis_state,
    bell_meb,
    enumerate_cuts,
    ghz_state,
    haar_unitary,
    inner,
    is_genuinely_entangled,
    is_maximally_entangled,
    is_product,
    n_qubit_ueb,
    random_state,
    reshape,
    schmidt,
    schmidt_rank_table,
    single_cut,
    state_from_combination,
    tensor_product,
    three_qubit_mixed_ueb,
    three_qubit_w_ueb,
    unreshape,
    verify_basis,
    w_state,
)
from uebkit.report import state_diagnostics

SP2 = QuditDims((2, 2))
SP3 = QuditDims((2, 2, 2))
TOL = Tolerance()


def test_mask_canonicalization_keeps_first_party_left():
    # a mask and its complement describe the same cut; the stored one contains party 0
    a = Bipartition(SP3, 0b001)
    b = Bipartition(SP3, 0b110)
    assert a.mask == b.mask == 0b001
    assert a.label == "1|23"
    assert Bipartition(SP3, 0b010).mask == 0b101
    assert Bipartition(SP3, 0b101).label == "13|2"


def test_mask_validation():
    with pytest.raises(ValueError):
        Bipartition(SP3, 0)
    with pytest.raises(ValueError):
        Bipartition(SP3, 0b111)
    with pytest.raises(ValueError):
        Bipartition(SP3, 0b1000)


def test_enumerate_cuts_counts():
    assert len(enumerate_cuts(SP2)) == 1
    assert len(enumerate_cuts(SP3)) == 3
    assert len(enumerate_cuts(QuditDims((2, 2, 2, 2)))) == 7
    assert all(c.mask & 1 for c in enumerate_cuts(QuditDims((2, 2, 2, 2))))


def test_single_cut_requires_exactly_two_parties():
    assert single_cut(SP2).mask == 1
    with pytest.raises(ValueError):
        single_cut(SP3)


def test_reshape_unreshape_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(40):
        sp = QuditDims((2, 3, 2))
        p = random_state(sp, rng)
        cut = Bipartition(sp, 0b101)
        m = reshape(p, cut)
        assert m.shape == (cut.dim_a, cut.dim_b)
        assert np.abs(unreshape(m, cut) - p.amps).max() < 1e-15


def test_schmidt_reference_values():
    phi_p = state_from_combination(SP2, {"00": 1, "11": 1})
    sd = schmidt(phi_p, single_cut(SP2), TOL)
    s = 1 / math.sqrt(2)
    assert sd.rank == 2
    assert abs(sd.coefficients[0] - s) < 1e-15 and abs(sd.coefficients[1] - s) < 1e-15
    # party-0 marginal of the single-excitation state is diag(2/3, 1/3)
    sd = schmidt(w_state(3), Bipartition(SP3, 1), TOL)
    assert abs(sd.coefficients[0] - math.sqrt(2 / 3)) < 1e-12
    assert abs(sd.coefficients[1] - math.sqrt(1 / 3)) < 1e-12


def test_schmidt_coefficients_nonincreasing_and_normalized():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = random_state(QuditDims((2, 4)), rng)
        cs = schmidt(p, single_cut(QuditDims((2, 4))), TOL).coefficients
        assert all(cs[i] >= cs[i + 1] for i in range(len(cs) - 1))
        assert abs(sum(c * c for c in cs) - 1.0) < 1e-12


def test_schmidt_reconstruction():
    """SVD factors rebuild the reshaped matrix within a small multiple of tol."""
    rng = np.random.default_rng(14)
    for _ in range(30):
        sp = QuditDims((3, 4))
        p = random_state(sp, rng)
        cut = single_cut(sp)
        m = reshape(p, cut)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        assert np.abs(u @ np.diag(s) @ vh - m).max() < 10 * TOL.eps


def test_schmidt_invariant_under_local_unitaries():
    rng = np.random.default_rng(15)
    for _ in range(40):
        sp = QuditDims((2, 3))
        p = random_state(sp, rng)
        q = apply_local_unitaries(p, [haar_unitary(2, rng), haar_unitary(3, rng)])
        a = schmidt(p, single_cut(sp), TOL).coefficients
        b = schmidt(q, single_cut(sp), TOL).coefficients
        assert max(abs(x - y) for x, y in zip(a, b)) < 10 * TOL.eps


def test_rank_agrees_with_marginal_spectrum():
    """Singular-value rank matches the eigenvalue count of the reduced density matrix."""
    rng = np.random.default_rng(16)
    spaces = [QuditDims((2, 2)), QuditDims((2, 3)), QuditDims((3, 3)), QuditDims((2, 2, 2))]
    for trial in range(500):
        sp = spaces[trial % len(spaces)]
        cuts = enumerate_cuts(sp)
        cut = cuts[trial % len(cuts)]
        if trial % 5 == 0:
            p = basis_state(sp, int(rng.integers(0, sp.total)))  # rank-1 corner
        else:
            p = random_state(sp, rng)
        m = reshape(p, cut)
        # marginal on the smaller side, so zero eigenvalues are exact rather than noise
        rho = m @ m.conj().T if cut.dim_a <= cut.dim_b else m.conj().T @ m
        gram_rank = int(np.sum(np.linalg.eigvalsh(rho) > TOL.eps**2))
        assert schmidt(p, cut, TOL).rank == gram_rank


def test_product_inputs_have_exact_rank_one():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = random_state(QuditDims((2,)), rng)
        b = random_state(QuditDims((3,)), rng)
        p = tensor_product(a, b)
        cut = single_cut(p.space)
        assert schmidt(p, cut, TOL).rank == 1
        assert is_product(p, cut, TOL)
        assert not is_maximally_entangled(p, cut, TOL)


def test_maximal_entanglement_uses_smaller_local_dimension():
    phi_p = state_from_combination(SP2, {"00": 1, "11": 1})
    assert is_maximally_entangled(phi_p, single_cut(SP2), TOL)
    sp23 = QuditDims((2, 3))
    padded = state_from_combination(sp23, {"00": 1, "11": 1})
    assert is_maximally_entangled(padded, single_cut(sp23), TOL)
    for member in bell_meb(3).states:
        assert is_maximally_entangled(member, single_cut(member.space), TOL)


def test_genuine_entanglement_checks_every_cut():
    assert is_genuinely_entangled(ghz_state(3), TOL)
    assert is_genuinely_entangled(w_state(3), TOL)
    lone = tensor_product(basis_state(QuditDims((2,)), 0),
                          state_from_combination(SP2, {"00": 1, "11": 1}))
    assert not is_genuinely_entangled(lone, TOL)
    assert not is_genuinely_entangled(basis_state(SP3, 0), TOL)


def test_cut_dims_multiply_to_total():
    sp = QuditDims((2, 3, 2))
    for cut in enumerate_cuts(sp):
        assert cut.dim_a * cut.dim_b == sp.total
        assert abs(inner(random_state(sp, np.random.default_rng(0)),
                         random_state(sp, np.random.default_rng(0))) - 1.0) < 1e-12


def test_rank_table_matches_per_state_passes():
    """The shared rank table reproduces per-state Schmidt ranks, flags and gate refutations."""
    r = 1 / math.sqrt(2)
    bisep = StateSet(SP3, (
        w_state(3),
        state_from_combination(SP3, {"000": 1, "111": 1}),
        tensor_product(state_from_combination(SP2, {"01": r, "10": r}), basis_state(QuditDims((2,)), 1)),
    ))
    for st in (n_qubit_ueb(5), three_qubit_w_ueb(), three_qubit_mixed_ueb(), bisep):
        cuts = enumerate_cuts(st.space)
        table = schmidt_rank_table(st.matrix(), cuts, TOL)
        rows = state_diagnostics(st, TOL)
        for i, s in enumerate(st.states):
            want = [schmidt(s, c, TOL).rank for c in cuts]
            assert table[i].tolist() == want
            assert rows[i]["schmidt_ranks"] == {c.label: k for c, k in zip(cuts, want)}
            assert rows[i]["genuinely_entangled"] is is_genuinely_entangled(s, TOL)
        loop = next((i for i, s in enumerate(st.states) if not is_genuinely_entangled(s, TOL)), None)
        assert verify_basis(st, BasisKind.UEB_ALL_CUTS, tol=TOL).offending_state == loop
        for c in cuts:
            loop = next((i for i, s in enumerate(st.states) if is_product(s, c, TOL)), None)
            assert verify_basis(st, BasisKind.UEB, tol=TOL, cut=c).offending_state == loop
    # the biseparable member is the one refuted, and only at the cut that splits it off
    assert verify_basis(bisep, BasisKind.UEB_ALL_CUTS, tol=TOL).offending_state == 2
    assert [verify_basis(bisep, BasisKind.UEB, tol=TOL, cut=c).offending_state
            for c in enumerate_cuts(SP3)] == [None, 2, None]
