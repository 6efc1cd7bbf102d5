"""Two-qubit plane projections and the rule-based indistinguishability flags."""

import math

import numpy as np
import pytest

from uebkit import (
    Bipartition,
    DEFAULT_EPS,
    Grade,
    ProjectionOrthogonalityError,
    ProjectionResult,
    QuditDims,
    StateSet,
    VanishingProjectionError,
    all_cut_indistinguishability_flag,
    apply_local_unitaries,
    basis_state,
    build_entry,
    ghz_state,
    haar_unitary,
    inner,
    mask_isolating,
    project_two_qubit,
    schmidt,
    single_cut,
    state_from_combination,
    symmetric_bell_plane,
    w_state,
    walgate_flag,
)

SP2 = QuditDims((2, 2))
SP3 = QuditDims((2, 2, 2))
TOL = DEFAULT_EPS


def test_default_plane_rows():
    w = symmetric_bell_plane()
    s = 1 / math.sqrt(2)
    assert np.abs(w - np.array([[s, 0, 0, s], [0, s, s, 0]])).max() < 1e-15
    assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-15


def test_cut_mask_helpers():
    assert mask_isolating(0) == 0b001
    assert mask_isolating(1) == 0b101
    assert mask_isolating(2) == 0b011
    for lone in range(3):
        cut = Bipartition(SP3, mask_isolating(lone))
        assert (lone,) in (cut.block_a, cut.block_b)
    with pytest.raises(ValueError):
        mask_isolating(3)


def test_projection_reference_probabilities():
    st = build_entry("eq6-mixed-ueb")
    sel = [st.states[i] for i in (0, 1, 4)]
    got = project_two_qubit(sel, 0)
    assert abs(got.probabilities[0] - 1.0) < 1e-9
    assert abs(got.probabilities[1] - 1.0) < 1e-9
    assert abs(got.probabilities[2] - 5 / 6) < 1e-9
    outs = got.states.states
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(inner(outs[i], outs[j])) < 1e-9
        assert schmidt(outs[i], single_cut(outs[i].space), TOL).rank == 2


def test_projected_single_excitation_coefficients():
    got = project_two_qubit([w_state(3)], 0)
    out = got.states.states[0]
    cs = schmidt(out, single_cut(out.space), TOL).coefficients
    assert abs(cs[0] - 2 / math.sqrt(5)) < 1e-12
    assert abs(cs[1] - 1 / math.sqrt(5)) < 1e-12
    assert abs(got.probabilities[0] - 5 / 6) < 1e-12


def test_vanishing_projection_raises():
    plane = np.array([[0, 1.0, 0, 0], [0, 0, 1.0, 0]])
    with pytest.raises(VanishingProjectionError):
        project_two_qubit([basis_state(SP3, 0)], 0, plane)


def test_broken_orthogonality_raises():
    # both inputs land on the same projected ray
    with pytest.raises(ProjectionOrthogonalityError):
        project_two_qubit([basis_state(SP3, 0b001), basis_state(SP3, 0b010)], 0)


def test_plane_validation():
    with pytest.raises(ValueError):
        project_two_qubit([w_state(3)], 0, np.eye(4))
    with pytest.raises(ValueError):
        project_two_qubit([w_state(3)], 0, np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]))
    with pytest.raises(ValueError):
        project_two_qubit([w_state(3)], 3)


def test_default_plane_needs_two_qubit_rest():
    sp = QuditDims((2, 2, 3))
    flat = state_from_combination(sp, {"000": 1, "111": 1})
    with pytest.raises(ValueError):
        project_two_qubit([flat], 0)
    # an explicit plane over the 6-dimensional rest is accepted
    plane = np.zeros((2, 6))
    plane[0, 0] = plane[1, 1] = 1.0
    got = project_two_qubit([flat], 0, plane)
    assert len(got.states.states) == 1


def test_probability_sum_is_plane_trace():
    """Summed over any orthonormal basis of the full space, survival adds to tr(1 x P) = 4."""
    rng = np.random.default_rng(41)
    for trial in range(20):
        us = [haar_unitary(2, rng) for _ in range(3)]
        total = 0.0
        for k in range(8):
            p = apply_local_unitaries(basis_state(SP3, k), us)
            got = project_two_qubit([p], 0)
            total += got.probabilities[0]
        assert abs(total - 4.0) < 1e-9


def test_projection_result_records_geometry():
    got = project_two_qubit([w_state(3)], 1)
    assert got.lone_party == 1
    assert got.cut.mask == mask_isolating(1)
    assert got.plane.shape == (2, 4)


def test_rule_flag_on_state_sets_and_projections():
    st = build_entry("eq2-ueb")
    flag = walgate_flag(st)
    assert flag.value is True
    assert flag.grade is Grade.RULE_BASED_CITED
    assert flag.reason

    product_triple = StateSet(SP2, tuple(basis_state(SP2, k) for k in range(3)))
    assert walgate_flag(product_triple).value is False

    with pytest.raises(ValueError):
        walgate_flag(StateSet(SP2, tuple(basis_state(SP2, k) for k in range(2))))

    got = project_two_qubit([build_entry("eq6-mixed-ueb").states[i] for i in (0, 1, 4)], 0)
    assert isinstance(got, ProjectionResult)
    assert walgate_flag(got.states).value is True


def test_all_cut_flags_on_seven_state_family():
    st = build_entry("eq6-mixed-ueb")
    flags = all_cut_indistinguishability_flag(st, TOL)
    assert set(flags) == {0b001, 0b011, 0b101}
    want_sel = {0b001: (0, 1, 4), 0b101: (0, 2, 4), 0b011: (0, 3, 4)}
    for mask, rec in flags.items():
        assert rec.flag.value is True
        assert rec.selection == want_sel[mask]
        assert abs(rec.probabilities[0] - 1.0) < 1e-9
        assert abs(rec.probabilities[1] - 1.0) < 1e-9
        assert abs(rec.probabilities[2] - 5 / 6) < 1e-9


def test_all_cut_flags_propagate_projection_errors():
    pair = StateSet(SP3, (ghz_state(3), w_state(3)))
    with pytest.raises((ProjectionOrthogonalityError, VanishingProjectionError, ValueError)):
        all_cut_indistinguishability_flag(pair, TOL)
