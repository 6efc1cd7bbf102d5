"""Three-qubit class labels, the degree-4 invariant, and reduced-state forms."""

import itertools
import math

import numpy as np
import pytest

import uebkit
from uebkit import (
    DEFAULT_EPS,
    ProductCount,
    PureState,
    QuditDims,
    SloccClass,
    StateSet,
    apply_local_unitaries,
    basis_state,
    build_entry,
    classify_three_qubit,
    enumerate_cuts,
    ghz_state,
    ghz_w_range_witness,
    haar_unitary,
    partial_trace,
    random_state,
    resource_dimension_flag,
    schmidt_rank_table,
    state_from_combination,
    tensor_product,
    three_tangle,
    w_state,
)
from uebkit.report import state_diagnostics

SP3 = QuditDims((2, 2, 2))
TOL = DEFAULT_EPS


def permuted(p: PureState, perm: tuple[int, int, int]) -> PureState:
    amps = p.amps.reshape(2, 2, 2).transpose(perm).reshape(8)
    return PureState(SP3, amps)


def test_tangle_reference_values():
    assert abs(three_tangle(ghz_state(3)) - 1.0) < 1e-12
    assert three_tangle(w_state(3)) < 1e-12
    assert three_tangle(basis_state(SP3, 0)) < 1e-15
    lone = tensor_product(basis_state(QuditDims((2,)), 0),
                          state_from_combination(QuditDims((2, 2)), {"00": 1, "11": 1}))
    assert three_tangle(lone) < 1e-15


def test_tangle_range_and_space_check():
    rng = np.random.default_rng(31)
    for _ in range(100):
        t = three_tangle(random_state(SP3, rng))
        assert -1e-12 <= t <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        three_tangle(random_state(QuditDims((2, 3)), rng))
    with pytest.raises(ValueError):
        three_tangle(random_state(QuditDims((2, 2, 2, 2)), rng))


def test_tangle_invariant_under_local_unitaries():
    rng = np.random.default_rng(32)
    probes = [ghz_state(3), w_state(3)] + [random_state(SP3, rng) for _ in range(3)]
    for trial in range(100):
        p = probes[trial % len(probes)]
        us = [haar_unitary(2, rng) for _ in range(3)]
        q = apply_local_unitaries(p, us)
        assert abs(three_tangle(p) - three_tangle(q)) < 10 * TOL


def test_classification_reference_states():
    got = classify_three_qubit(ghz_state(3))
    assert got.category is SloccClass.GHZ_CLASS and got.label == "GHZ"
    got = classify_three_qubit(w_state(3))
    assert got.category is SloccClass.W_CLASS and got.label == "W"
    got = classify_three_qubit(basis_state(SP3, 0))
    assert got.category is SloccClass.FULLY_SEPARABLE and got.label == "SEP"

    bell = state_from_combination(QuditDims((2, 2)), {"00": 1, "11": 1})
    front = tensor_product(basis_state(QuditDims((2,)), 0), bell)
    got = classify_three_qubit(front)
    assert got.category is SloccClass.BISEPARABLE
    assert got.cut is not None and got.cut.label == "1|23"
    back = tensor_product(bell, basis_state(QuditDims((2,)), 0))
    got = classify_three_qubit(back)
    assert got.cut is not None and got.cut.label == "12|3"


def test_w_class_stable_under_party_relabeling():
    for perm in itertools.permutations((0, 1, 2)):
        got = classify_three_qubit(permuted(w_state(3), perm))
        assert got.category is SloccClass.W_CLASS


def test_classification_consistent_with_tangle():
    rng = np.random.default_rng(33)
    for _ in range(60):
        p = random_state(SP3, rng)
        got = classify_three_qubit(p)
        if got.category is SloccClass.GHZ_CLASS:
            assert got.tangle > 1e-8
        if got.category is SloccClass.W_CLASS:
            assert got.tangle <= 1e-8


def test_shipped_family_labels():
    labels = [classify_three_qubit(p).category for p in build_entry("eq5-w-ueb").states]
    assert labels == [SloccClass.W_CLASS] * 6
    labels = [classify_three_qubit(p).category for p in build_entry("eq6-mixed-ueb").states]
    assert labels[:4] == [SloccClass.GHZ_CLASS] * 4
    assert labels[4:] == [SloccClass.W_CLASS] * 3


def test_report_labels_come_from_the_shared_rank_table(monkeypatch):
    """state_diagnostics classifies from its rank table: no per-state Schmidt pass."""
    st = build_entry("eq6-mixed-ueb")
    want = [classify_three_qubit(s, TOL) for s in st.states]
    table = schmidt_rank_table(st.matrix(), enumerate_cuts(SP3), TOL)
    calls = []
    for mod, name in ((uebkit.cuts, "schmidt"), (uebkit.slocc, "schmidt_rank_table")):
        def counting(*args, fn=getattr(mod, name), **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    got = state_diagnostics(st, TOL, table)
    assert calls == []
    assert [(e["slocc"], e["tangle"]) for e in got] == [(v.label, v.tangle) for v in want]


def test_partial_trace_basics():
    rng = np.random.default_rng(34)
    for _ in range(20):
        p = random_state(SP3, rng)
        rho = partial_trace(p, (0, 1))
        assert rho.shape == (4, 4)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
    prod = tensor_product(random_state(QuditDims((2,)), rng), random_state(QuditDims((2, 2)), rng))
    rho = partial_trace(prod, (1, 2))
    ev = np.linalg.eigvalsh(rho)
    assert ev[-1] > 1 - 1e-12  # pure marginal for a product split


def test_reduced_single_excitation_closed_form():
    s = 1 / math.sqrt(2)
    psi_p = np.array([0, s, s, 0], dtype=complex)
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    for n in range(3, 9):
        rho = partial_trace(w_state(n), (0, 1))
        want = (2 * np.outer(psi_p, psi_p.conj()) + (n - 2) * np.outer(e00, e00.conj())) / n
        assert np.abs(rho - want).max() < 10 * TOL


def test_range_witness_counts():
    for n in range(3, 9):
        assert ghz_w_range_witness(n) == (ProductCount.ONE, ProductCount.TWO)
    with pytest.raises(ValueError):
        ghz_w_range_witness(2)


def test_resource_dimension_flag_cases():
    assert resource_dimension_flag(build_entry("eq6-mixed-ueb")) is True
    assert resource_dimension_flag(build_entry("eq5-w-ueb")) is False
    ghz_pair = StateSet(SP3, (
        state_from_combination(SP3, {"000": 1, "111": 1}),
        state_from_combination(SP3, {"000": 1, "111": -1}),
    ))
    assert resource_dimension_flag(ghz_pair) is False


def test_reference_state_builders():
    w4 = w_state(4)
    nz = {k: w4.amps[k] for k in range(16) if abs(w4.amps[k]) > 1e-12}
    assert set(nz) == {1, 2, 4, 8}
    assert all(abs(v - 0.5) < 1e-12 for v in nz.values())
    g4 = ghz_state(4)
    s = 1 / math.sqrt(2)
    assert abs(g4.amps[0] - s) < 1e-12 and abs(g4.amps[15] - s) < 1e-12
