"""Shipped families and generators: membership, spans, parameter gates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import uebkit.catalog
from uebkit import (
    CATALOG,
    BasisKind,
    CoeffVariant,
    ConstructionError,
    GENERATORS,
    Grade,
    Outcome,
    QuditDims,
    StateSet,
    Tolerance,
    basis_state,
    bell_meb,
    build_entry,
    build_generator,
    dft_superposition,
    embed_meb,
    extend_padded_square_meb,
    haar_unitary,
    inner,
    is_maximally_entangled,
    is_product,
    me_triple_2x3,
    meb_extension_completion,
    n_qubit_ueb,
    orthogonal_complement,
    orthonormalize,
    padded_meb_with_extension,
    recognize_padded_square_meb,
    schmidt,
    single_cut,
    span_equal,
    state_from_combination,
    three_qubit_mixed_ueb,
    three_qubit_w_ueb,
    two_qubit_ueb_fourier,
    two_qubit_ueb_general,
    two_qubit_ueb_real,
    verify_basis,
)

SP2 = QuditDims((2, 2))
SP3 = QuditDims((2, 2, 2))
TOL = Tolerance()

EXPECTED_SHAPE = {
    "eq1-ueb": ((2, 2), 3),
    "eq2-ueb": ((2, 2), 3),
    "eq3-meb": ((2, 2), 4),
    "eq3-in-2x3": ((2, 3), 4),
    "eq3-eq4-meb": ((2, 4), 8),
    "eq5-w-ueb": ((2, 2, 2), 6),
    "eq6-mixed-ueb": ((2, 2, 2), 7),
    "appendix-4qubit": ((2, 2, 2, 2), 15),
}


def test_catalog_ids_and_shapes():
    assert set(CATALOG) == set(EXPECTED_SHAPE)
    for eid, (dims, count) in EXPECTED_SHAPE.items():
        st = build_entry(eid)
        assert st.space.dims == dims, eid
        assert len(st.states) == count, eid


def test_unknown_entry_rejected():
    with pytest.raises(KeyError):
        build_entry("no-such-entry")


def test_first_family_closed_form():
    """The three members have fixed real amplitude patterns and a |11> complement."""
    st = build_entry("eq1-ueb")
    r3, r2, r6 = 1 / math.sqrt(3), 1 / math.sqrt(2), 1 / math.sqrt(6)
    want = [
        np.array([r3, r3, r3, 0]),
        np.array([0, r2, -r2, 0]),
        np.array([2 * r6, -r6, -r6, 0]),
    ]
    for member, ref in zip(st.states, want):
        assert np.abs(member.amps - ref).max() < 1e-12
    comp = orthogonal_complement(st, TOL)
    assert len(comp) == 1
    assert abs(abs(inner(comp.states[0], basis_state(SP2, 3))) - 1.0) < 1e-12


def test_second_family_members_equally_entangled():
    st = build_entry("eq2-ueb")
    hi = (3 + math.sqrt(5)) / 6
    lo = (3 - math.sqrt(5)) / 6
    for member in st.states:
        cs = schmidt(member, single_cut(SP2), TOL).coefficients
        assert abs(cs[0] ** 2 - hi) < 1e-12
        assert abs(cs[1] ** 2 - lo) < 1e-12


def test_two_qubit_families_share_their_span():
    a = build_entry("eq1-ueb")
    b = build_entry("eq2-ueb")
    assert span_equal(a, b, TOL)


def test_general_family_identity_locals_reproduce_fourier():
    st, verdict = two_qubit_ueb_general(basis_a=np.eye(2), vec_b=np.array([1.0, 0.0]))
    assert verdict.outcome is Outcome.VERIFIED
    ref = two_qubit_ueb_fourier()
    for a, b in zip(st.states, ref.states):
        assert np.abs(a.amps - b.amps).max() < 1e-15


def test_general_family_parameter_validation():
    with pytest.raises(ValueError):
        two_qubit_ueb_general(basis_a=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        two_qubit_ueb_general(vec_b=np.array([1.0, 1.0]))


def test_general_family_complement_is_product_ray():
    rng_seeds = range(25)
    for seed in rng_seeds:
        st, verdict = two_qubit_ueb_general(seed=seed)
        assert verdict.outcome is Outcome.VERIFIED
        comp = orthogonal_complement(st, TOL)
        assert len(comp) == 1
        assert is_product(comp.states[0], single_cut(SP2), TOL)


def test_real_variant_is_real_and_verified():
    st = two_qubit_ueb_real()
    assert len(st.states) == 3
    assert all(float(np.abs(s.amps.imag).max()) < 1e-15 for s in st.states)
    assert verify_basis(st, BasisKind.UEB).outcome is Outcome.VERIFIED


def test_bell_family_order_and_completeness():
    st = bell_meb(2)
    s = 1 / math.sqrt(2)
    want = [
        np.array([s, 0, 0, s]),
        np.array([s, 0, 0, -s]),
        np.array([0, s, s, 0]),
        np.array([0, s, -s, 0]),
    ]
    for member, ref in zip(st.states, want):
        assert np.abs(member.amps - ref).max() < 1e-12
    assert verify_basis(st, BasisKind.UMEB).outcome is Outcome.COMPLETE_BASIS

    nine = bell_meb(3)
    assert len(nine.states) == 9
    for member in nine.states:
        assert is_maximally_entangled(member, single_cut(member.space), TOL)
    with pytest.raises(ValueError):
        bell_meb(1)


def test_embedded_family_grid():
    for d, n in ((2, 1), (3, 1), (3, 2), (4, 2)):
        st = embed_meb(d, n)
        assert st.space.dims == (d, d + n)
        assert len(st.states) == d * d
        for member in st.states:
            assert is_maximally_entangled(member, single_cut(st.space), TOL)
    for d, n in ((2, 2), (3, 0), (3, 3), (1, 1)):
        with pytest.raises(ValueError):
            embed_meb(d, n)


def test_extension_pair_constraints():
    st = meb_extension_completion()
    assert st.space.dims == (2, 4)
    assert len(st.states) == 4
    for member in st.states:
        assert is_maximally_entangled(member, single_cut(st.space), TOL)
    with pytest.raises(ValueError):
        meb_extension_completion(x=np.array([0, 0, 1.0, 0]), x_prime=np.array([0, 0, 1.0, 0]))


def test_padded_union_has_disjoint_supports():
    st = padded_meb_with_extension()
    assert len(st.states) == 8
    first = np.abs(np.stack([p.amps for p in st.states[:4]]))
    last = np.abs(np.stack([p.amps for p in st.states[4:]]))
    overlap = (first.sum(axis=0) > 1e-12) & (last.sum(axis=0) > 1e-12)
    assert not overlap.any()
    assert verify_basis(st, BasisKind.UMEB).outcome is Outcome.COMPLETE_BASIS


def test_triple_registered_as_parameterless_generator():
    t = me_triple_2x3()
    built = build_generator("prop2a-set")
    cut = single_cut(built.space)
    assert built.space.dims == (2, 3) and len(built.states) == 3
    for a, b in zip(t.states, built.states):
        assert abs(abs(inner(a, b)) - 1.0) < 1e-12
    for s in built.states:
        assert is_maximally_entangled(s, cut, TOL)


def test_three_qubit_families_and_complements():
    w6 = three_qubit_w_ueb()
    assert len(w6.states) == 6
    comp = orthogonal_complement(w6, TOL)
    ref = orthonormalize(SP3, [basis_state(SP3, 0b011).amps, basis_state(SP3, 0b111).amps])
    assert span_equal(comp, ref, TOL)

    m7 = three_qubit_mixed_ueb()
    assert len(m7.states) == 7
    comp = orthogonal_complement(m7, TOL)
    assert len(comp) == 1
    assert abs(abs(inner(comp.states[0], basis_state(SP3, 0b111))) - 1.0) < 1e-12


def test_dft_superposition_properties():
    single = dft_superposition(SP3, ["001"])
    assert len(single) == 1
    assert abs(single[0].amps[1] - 1.0) < 1e-15

    trio = dft_superposition(SP3, ["001", "010", "100"])
    gram = np.stack([p.amps for p in trio])
    assert np.abs(gram @ gram.conj().T - np.eye(3)).max() < 1e-12
    # the three-ket combinations are the tail of the seven-state family
    tail = build_entry("eq6-mixed-ueb").states[4:]
    for a, b in zip(trio, tail):
        assert abs(abs(inner(a, b)) - 1.0) < 1e-12

    with pytest.raises(ValueError):
        dft_superposition(SP3, ["001", "001"])


def test_n_qubit_generator_bounds():
    st = n_qubit_ueb(4)
    assert len(st.states) == 15
    comp = orthogonal_complement(st, TOL)
    assert len(comp) == 1
    assert abs(abs(inner(comp.states[0], basis_state(st.space, 15))) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        n_qubit_ueb(3)
    with pytest.raises(ValueError):
        n_qubit_ueb(5, CoeffVariant.HADAMARD_IF_POWER_OF_TWO)


def test_n_qubit_variants_share_complement():
    a = n_qubit_ueb(4)
    b = n_qubit_ueb(4, CoeffVariant.HADAMARD_IF_POWER_OF_TWO)
    assert span_equal(a, b, TOL)


def test_padded_square_recognition_and_extension():
    assert recognize_padded_square_meb(build_entry("eq3-in-2x3")) == 2
    assert recognize_padded_square_meb(build_generator("prop2a-set")) is None
    ext = extend_padded_square_meb(build_entry("eq3-in-2x3"), 2)
    assert ext.space.dims == (2, 4)
    assert len(ext.states) == 8
    assert verify_basis(ext, BasisKind.UMEB).outcome is Outcome.COMPLETE_BASIS


def test_build_generator_dispatch():
    assert set(GENERATORS) == {"bell-meb", "dft-superposition", "embed-meb", "nqubit-ueb", "prop2a-set"}
    st = build_generator("bell-meb", d=3)
    ref = bell_meb(3)
    for a, b in zip(st.states, ref.states):
        assert np.array_equal(a.amps, b.amps)
    st = build_generator("embed-meb", d=3, n=2)
    assert st.space.dims == (3, 5) and len(st.states) == 9
    st = build_generator("dft-superposition", dims=(2, 2, 2), kets=["001", "010", "100"])
    assert len(st.states) == 3
    with pytest.raises(KeyError):
        build_generator("no-such-generator", d=2)
    with pytest.raises(ValueError):
        build_generator("bell-meb")


def test_every_entry_passes_its_declared_gate():
    """Building an entry runs its own verification; a clean build is the gate."""
    for eid in sorted(CATALOG):
        st = build_entry(eid)
        assert isinstance(st, StateSet)
        gram = np.stack([p.amps for p in st.states])
        assert np.abs(gram @ gram.conj().T - np.eye(len(st.states))).max() < 1e-9


def test_a_missed_claim_raises_naming_family_verdict_and_claim(monkeypatch):
    """When the verifier's outcome is not the registered claim, the one gate
    raises ConstructionError for a registry entry, a gated generator and
    n_qubit_ueb alike, with one message form."""
    verify = uebkit.catalog.verify_basis

    def missed(*args, **kwargs):
        return dataclasses.replace(verify(*args, **kwargs), outcome=Outcome.INCONCLUSIVE)

    monkeypatch.setattr(uebkit.catalog, "verify_basis", missed)
    for build, family, claim in ((lambda: build_entry("eq3-meb"), "eq3-meb", "COMPLETE_BASIS"),
                                 (lambda: build_generator("embed-meb", d=3, n=1), "embed-meb(d=3, n=1)", "VERIFIED"),
                                 (lambda: n_qubit_ueb(4), "nqubit-ueb(n=4)", "VERIFIED")):
        with pytest.raises(ConstructionError) as err:
            build()
        assert str(err.value) == (f"{family} failed its gate: verifier returned INCONCLUSIVE,"
                                  f" registered claim is {claim}")


def test_library_refuses_oversize_generators_before_building():
    """build_generator and n_qubit_ueb refuse a space over MAX_COMPLEMENT_BYTES
    from the parameters alone: nothing near the size of one state is allocated."""
    for call in (lambda: build_generator("dft-superposition", dims=(2,) * 14, kets=["0" * 14]),
                 lambda: build_generator("bell-meb", d=100),
                 lambda: build_generator("embed-meb", d=91, n=10),
                 lambda: build_generator("nqubit-ueb", n=20),
                 lambda: n_qubit_ueb(20)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_COMPLEMENT_BYTES cap"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
