"""State and subspace primitives: normalization, spans, phases, complements."""

import dataclasses
import math

import numpy as np
import pytest

import uebkit
from uebkit import (
    DEFAULT_EPS,
    PureState,
    QuditDims,
    StateSet,
    apply_local_unitary,
    basis_state,
    canonical_phase,
    haar_unitary,
    inner,
    orthogonal_complement,
    orthonormalize,
    random_state,
    span_equal,
    state_from_combination,
    tensor_product,
)

SP2 = QuditDims((2, 2))
SP23 = QuditDims((2, 3))


def test_qudit_dims_validation():
    assert QuditDims((2, 3, 4)).total == 24
    assert QuditDims((2,)).total == 2
    with pytest.raises(ValueError):
        QuditDims(())
    with pytest.raises(ValueError):
        QuditDims((2, 1))


def test_norm_slack_is_kept_verbatim():
    # deviations up to 1e-12 are not rescaled, so exact rational amplitudes survive
    amps = np.array([1.0 + 5e-13, 0.0, 0.0, 0.0])
    p = PureState(SP2, amps)
    assert p.amps[0] == 1.0 + 5e-13


def test_small_norm_drift_is_renormalized():
    p = PureState(SP2, np.array([1.0 + 1e-8, 0.0, 0.0, 0.0]))
    assert p.amps[0] == 1.0
    assert abs(float(np.linalg.norm(p.amps)) - 1.0) < 1e-15


def test_large_norm_error_rejected():
    with pytest.raises(ValueError):
        PureState(SP2, np.array([1.1, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PureState(SP2, np.zeros(4))
    with pytest.raises(ValueError):
        PureState(SP2, np.ones(3) / math.sqrt(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_amplitudes_rejected(bad):
    # a NaN norm compares false against every slack, so finiteness is checked first
    amps = np.array([1.0, 0.0, bad, 0.0], dtype=np.complex128)
    with pytest.raises(ValueError, match="finite"):
        PureState(SP2, amps)


def test_tolerance_bounds_are_exclusive():
    assert DEFAULT_EPS == 1e-9
    assert len(orthonormalize(SP2, [[1, 0, 0, 0]], 5e-4)) == 1
    for bad in (0.0, -1e-9, 1e-3, 1.0):
        with pytest.raises(ValueError, match=r"tolerance must lie in \(0, 1e-3\), got "):
            orthonormalize(SP2, [[1, 0, 0, 0]], bad)


def test_basis_state_addressing_forms():
    by_int = basis_state(SP23, 4)
    by_str = basis_state(SP23, "11")
    by_seq = basis_state(SP23, [1, 1])
    assert np.array_equal(by_int.amps, by_str.amps)
    assert np.array_equal(by_int.amps, by_seq.amps)
    assert by_int.amps[4] == 1.0
    with pytest.raises(ValueError):
        basis_state(SP23, 6)
    with pytest.raises(ValueError):
        basis_state(SP23, "111")
    with pytest.raises(ValueError):
        basis_state(SP23, [1, 3])


def test_state_from_combination_normalizes():
    p = state_from_combination(SP2, {"00": 1, "11": 1})
    s = 1 / math.sqrt(2)
    assert abs(p.amps[0] - s) < 1e-15 and abs(p.amps[3] - s) < 1e-15
    with pytest.raises(ValueError):
        state_from_combination(SP2, {"00": 0.0})


def test_tensor_product_matches_kron():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_state(QuditDims((2, 2)), rng)
        b = random_state(QuditDims((2, 3)), rng)
        t = tensor_product(a, b)
        assert t.space.dims == (2, 2, 2, 3)
        assert np.abs(t.amps - np.kron(a.amps, b.amps)).max() < 1e-15


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(4)
    a = random_state(SP23, rng)
    b = random_state(SP23, rng)
    assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-15
    assert abs(inner(a, a) - 1.0) < 1e-12


def test_state_set_requires_orthonormal_members():
    phi_p = state_from_combination(SP2, {"00": 1, "11": 1})
    phi_m = state_from_combination(SP2, {"00": 1, "11": -1})
    st = StateSet(SP2, (phi_p, phi_m), name="bell-pair")
    assert len(st.states) == 2 and st.name == "bell-pair"
    tilted = state_from_combination(SP2, {"00": 1, "01": 1})
    with pytest.raises(ValueError):
        StateSet(SP2, (phi_p, tilted))
    kets = tuple(basis_state(SP2, k) for k in range(4))
    with pytest.raises(ValueError, match="^5 states cannot be orthogonal in dimension 4$"):
        StateSet(SP2, kets + (phi_p,))
    with pytest.raises(ValueError, match=r"^space mismatch: 2x3 vs 2x2$"):
        StateSet(SP2, (phi_p, basis_state(SP23, 5)))


def test_state_set_subspace_matrix_shape():
    phi_p = state_from_combination(SP2, {"00": 1, "11": 1})
    sub = StateSet(SP2, (phi_p,))
    assert len(sub) == 1
    assert sub.matrix().shape == (1, 4)
    v = sub.vector(np.array([1.0]))
    assert np.abs(v - phi_p.amps).max() < 1e-15
    # Subspace(space, states), as the benchmark builds its search inputs, is the same type
    assert uebkit.Subspace is uebkit.StateSet
    rows = haar_unitary(6, np.random.default_rng(3))[:2]
    sub = uebkit.Subspace(SP23, tuple(PureState(SP23, r) for r in rows))
    assert len(sub) == 2 and np.array_equal(sub.matrix(), rows)


def test_state_set_stores_one_read_only_matrix():
    """A set keeps its rows once: matrix() hands out the same read-only array on every
    call, and a set of PureStates and a set of their stacked rows hold the same bits."""
    rows = haar_unitary(6, np.random.default_rng(12))[:4]
    rows[1] *= 1 + 1e-8  # drift that the amplitude rule renormalizes
    members = tuple(PureState(SP23, r) for r in rows)
    from_states, from_rows = StateSet(SP23, members), StateSet(SP23, rows)
    for st in (from_states, from_rows):
        assert st.matrix() is st.matrix()
        assert not st.matrix().flags.writeable
        with pytest.raises(ValueError):
            st.matrix()[0, 0] = 0.0
        assert st.states is st.states
    assert from_rows.matrix().tobytes() == from_states.matrix().tobytes()
    assert all(a.amps.tobytes() == b.amps.tobytes() for a, b in zip(from_rows.states, members))
    rows[0] = 0.0  # the set holds its own copy of the caller's rows
    assert from_rows.matrix().tobytes() == from_states.matrix().tobytes()
    renamed = dataclasses.replace(from_rows, name="renamed")
    assert renamed.name == "renamed" and renamed.matrix().tobytes() == from_rows.matrix().tobytes()
    empty = StateSet(SP23, ())
    assert len(empty) == 0 and empty.matrix().shape == (0, 6) and empty.states == ()


def test_state_set_takes_nested_lists_as_rows():
    """A nested list of amplitudes is read as rows, like the array it spells; a sequence
    mixing PureStates and rows is refused with a ValueError."""
    sp = QuditDims((2, 2))
    st = StateSet(sp, [[1, 0, 0, 0], [0, 0, 1j, 0]])
    assert st.matrix().tolist() == [[1, 0, 0, 0], [0, 0, 1j, 0]]
    assert StateSet(sp, [[1, 0, 0, 0]]).matrix().tobytes() == StateSet(sp, np.array([[1, 0, 0, 0]])).matrix().tobytes()
    with pytest.raises(ValueError, match="amplitude rows or PureStates"):
        StateSet(sp, [PureState(sp, [1, 0, 0, 0]), [0, 1, 0, 0]])
    with pytest.raises(ValueError, match="not pairwise orthonormal"):
        StateSet(sp, [[1, 0, 0, 0], [1, 0, 0, 0]])


def test_state_set_rows_follow_the_amplitude_rule_of_pure_states():
    """Each row is checked by the rule PureState applies, and the message names the row."""
    rows = np.zeros((3, 4), dtype=np.complex128)
    rows[0, 0] = rows[2, 2] = 1.0
    for bad, value in (("norm", 2.0), ("finite", np.nan)):
        rows[1, 1] = value
        with pytest.raises(ValueError) as alone:
            PureState(SP2, rows[1])
        with pytest.raises(ValueError) as in_set:
            StateSet(SP2, rows)
        assert str(in_set.value) == f"state 1: {alone.value}", bad


def test_orthonormalize_gram_identity():
    """Gram matrix of the output basis is the identity, independent of input conditioning."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        sp = SP23
        k = int(rng.integers(1, 5))
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(k)]
        if trial % 3 == 0 and k >= 2:
            vecs.append(vecs[0] * 2.0)  # dependent row must be dropped, not kept
        sub = orthonormalize(sp, vecs)
        assert len(sub) <= min(len(vecs), 6)
        m = sub.matrix()
        gram = m @ m.conj().T
        assert np.abs(gram - np.eye(len(sub))).max() < 1e-12
        if trial % 3 == 0 and k >= 2:
            assert len(sub) == k


def test_orthogonal_complement_involution():
    rng = np.random.default_rng(8)
    tol = DEFAULT_EPS
    for _ in range(60):
        k = int(rng.integers(1, 6))
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(k)]
        sub = orthonormalize(SP23, vecs)
        comp = orthogonal_complement(sub, tol)
        assert len(sub) + len(comp) == 6
        again = orthogonal_complement(comp, tol)
        assert span_equal(sub, again, tol)


def test_canonical_phase_pins_leading_amplitude():
    p = PureState(SP2, np.array([0.0, 1j, 0.0, 0.0]))
    q = canonical_phase(p)
    assert abs(q.amps[1] - 1.0) < 1e-15
    assert q.amps[1].imag == 0.0


def test_canonical_phase_idempotent_bit_exact():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = canonical_phase(random_state(SP23, rng))
        again = canonical_phase(p)
        assert np.array_equal(p.amps, again.amps)


def test_span_equal_is_basis_independent():
    tol = DEFAULT_EPS
    e = [basis_state(SP2, k) for k in range(4)]
    mixed = orthonormalize(SP2, [e[0].amps + e[3].amps, e[0].amps - e[3].amps])
    plain = orthonormalize(SP2, [e[0].amps, e[3].amps])
    other = orthonormalize(SP2, [e[0].amps, e[1].amps])
    assert span_equal(mixed, plain, tol)
    assert not span_equal(mixed, other, tol)
    assert not span_equal(mixed, orthonormalize(SP2, [e[0].amps]), tol)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, np.random.default_rng(5))
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
    again = haar_unitary(4, np.random.default_rng(5))
    assert np.array_equal(u, again)


def test_local_unitary_preserves_overlaps():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = random_state(SP23, rng)
        b = random_state(SP23, rng)
        u = haar_unitary(3, rng)
        ua = apply_local_unitary(a, 1, u)
        ub = apply_local_unitary(b, 1, u)
        assert abs(inner(ua, ub) - inner(a, b)) < 1e-12
