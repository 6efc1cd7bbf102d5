"""Bipartitions and Schmidt data: canonical masks, decomposition, invariances."""

import math
import sys
import threading

import numpy as np
import pytest

import uebkit.cuts
from uebkit.cuts import reshape_rows
from uebkit import (
    BasisKind,
    Bipartition,
    PureState,
    QuditDims,
    StateSet,
    Tolerance,
    apply_local_unitaries,
    basis_state,
    bell_meb,
    classify_three_qubit,
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


def _rotated_family(n: int, seed: int) -> StateSet:
    rng = np.random.default_rng(seed)
    us = [haar_unitary(2, rng) for _ in range(n)]
    return StateSet(QuditDims((2,) * n), tuple(apply_local_unitaries(s, us) for s in n_qubit_ueb(n).states))


def test_rank_table_matches_per_state_passes():
    """The shared rank table reproduces per-state Schmidt ranks, flags and gate refutations."""
    r = 1 / math.sqrt(2)
    bisep = StateSet(SP3, (
        w_state(3),
        state_from_combination(SP3, {"000": 1, "111": 1}),
        tensor_product(state_from_combination(SP2, {"01": r, "10": r}), basis_state(QuditDims((2,)), 1)),
    ))
    for st in (n_qubit_ueb(5), three_qubit_w_ueb(), three_qubit_mixed_ueb(), bisep, _rotated_family(6, 61)):
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


def test_rank_table_is_the_same_for_every_thread_count(monkeypatch):
    """Shares of the cuts run in threads; the table equals the one-thread loop's."""
    st = _rotated_family(5, 62)
    amps = st.matrix()
    amps[3] = 0.0
    amps[3, 8] = amps[3, 16] = 1 / math.sqrt(2)  # (|01> + |10>)|000>: rank 1 wherever parties 1, 2 stay together
    cuts = enumerate_cuts(st.space)
    loop = [[schmidt(PureState(st.space, row), c, TOL).rank for c in cuts] for row in amps]
    assert min(loop[3]) == 1 and max(loop[3]) == 2
    seen: set[threading.Thread] = set()

    def recording_reshape(*args, **kwargs):
        seen.add(threading.current_thread())  # held here, so no two threads compare equal
        return reshape_rows(*args, **kwargs)

    # every share reshapes each of its cuts, whichever route then counts the ranks
    monkeypatch.setattr(uebkit.cuts, "reshape_rows", recording_reshape)
    monkeypatch.setattr(uebkit.cuts, "_THREADED_MIN_SIZE", 0)  # this small table would run inline
    for width in (1, 2, 3, 64):
        monkeypatch.setattr(uebkit.cuts, "_usable_cpus", lambda: width)
        seen.clear()
        table = schmidt_rank_table(amps, cuts, TOL)
        assert table.tolist() == loop
        assert len(seen) == min(width, len(cuts))
    # a one-cut table starts no thread, whatever the CPU count
    seen.clear()
    schmidt_rank_table(amps, cuts[:1], TOL)
    assert seen == {threading.current_thread()}


def test_one_row_tables_start_no_thread(monkeypatch):
    """A one-row table runs inline, and so does a small one; the three-qubit classifier
    builds one per state."""
    starts = []
    start = threading.Thread.start

    def counting_start(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(uebkit.cuts, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    family = three_qubit_mixed_ueb()
    cuts = enumerate_cuts(family.space)
    labels = [classify_three_qubit(p, TOL).label for p in family.states]
    assert len(labels) == 7 and not starts
    assert schmidt_rank_table(family.matrix()[:1], cuts, TOL).tolist() == [[2, 2, 2]]
    assert not starts
    # a table under _THREADED_MIN_SIZE amplitudes runs inline, a larger one of two rows
    # spreads its cuts over the usable CPUs
    assert family.matrix().size < uebkit.cuts._THREADED_MIN_SIZE
    schmidt_rank_table(family.matrix(), cuts, TOL)
    assert not starts
    monkeypatch.setattr(uebkit.cuts, "_THREADED_MIN_SIZE", 16)
    schmidt_rank_table(family.matrix()[:2], cuts, TOL)
    assert len(starts) == 2


def test_rank_table_threads_under_fast_switching(monkeypatch):
    """More shares than cores and a tiny switch interval: no column is lost or mixed up."""
    st = _rotated_family(6, 64)
    cuts = enumerate_cuts(st.space)
    want = schmidt_rank_table(st.matrix(), cuts, TOL).tolist()
    amps = st.matrix()
    amps[:, ::7] *= 1e-12  # ranks now differ from cut to cut
    monkeypatch.setattr(uebkit.cuts, "_usable_cpus", lambda: 1)
    skewed = schmidt_rank_table(amps, cuts, TOL).tolist()
    assert skewed != want
    monkeypatch.setattr(uebkit.cuts, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(uebkit.cuts, "_THREADED_MIN_SIZE", 0)
    got = []

    def repeat() -> None:
        for _ in range(10):
            got.append(schmidt_rank_table(st.matrix(), cuts, TOL).tolist())
            got.append(schmidt_rank_table(amps, cuts, TOL).tolist())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=repeat, daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [want, skewed] * 10


def test_rank_table_reraises_a_worker_failure(monkeypatch):
    st = _rotated_family(4, 63)
    cuts = enumerate_cuts(st.space)
    svd = np.linalg.svd

    def failing_svd(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(uebkit.cuts, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(uebkit.cuts, "_THREADED_MIN_SIZE", 0)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    baseline = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        schmidt_rank_table(st.matrix(), cuts, TOL)
    assert threading.active_count() == baseline


def _svd_loop(amps: np.ndarray, cuts, eps: float) -> list[list[int]]:
    """The reference table: one batched SVD of every cut's stack, ranks counted above eps."""
    cols = [(np.linalg.svd(reshape_rows(amps, c), compute_uv=False) > eps).sum(axis=1) for c in cuts]
    return np.stack(cols, axis=1).tolist()


class _Routes:
    """Spies on the routes of schmidt_rank_table: QR stacks, slice SVDs and SVD fallbacks.

    A QR-route member the triangle bound certifies takes neither a slice SVD
    nor a fallback. A fallback is an SVD of a stack whose smaller dimension
    exceeds 2; the other SVDs are those of the cuts with min(dim_a, dim_b) <= 2.
    """

    def __init__(self, monkeypatch) -> None:
        self.qr: list[tuple[int, ...]] = []
        self.slices: list[np.ndarray] = []
        self.fallbacks: list[np.ndarray] = []
        qr, slice_values, svd_ranks = uebkit.cuts._qr_in_place, uebkit.cuts._slice_values, uebkit.cuts._svd_ranks

        def spy_qr(stack):
            self.qr.append(stack.shape)
            return qr(stack)

        def spy_slice(slices):
            sv = slice_values(slices)
            self.slices.append(sv)
            return sv

        def spy_svd(stack, eps):
            if min(stack.shape[1:]) > 2:
                self.fallbacks.append(stack.copy())
            return svd_ranks(stack, eps)

        monkeypatch.setattr(uebkit.cuts, "_qr_in_place", spy_qr)
        monkeypatch.setattr(uebkit.cuts, "_slice_values", spy_slice)
        monkeypatch.setattr(uebkit.cuts, "_svd_ranks", spy_svd)

    def clear(self) -> None:
        self.qr.clear()
        self.slices.clear()
        self.fallbacks.clear()

    def certified_share(self) -> float:
        """The share of QR-route members counted by the triangle bound alone."""
        members = sum(shape[0] for shape in self.qr)
        undecided = sum(len(sv) for sv in self.slices) + sum(len(stack) for stack in self.fallbacks)
        return 1 - undecided / members

    def sliced(self, value: float) -> bool:
        """Some slice SVD returned value, to within 1e-3 of it."""
        return any(np.isclose(sv, value, rtol=1e-3, atol=0).any() for sv in self.slices)

    def fell_back_on(self, matrix: np.ndarray) -> bool:
        return any(any(np.array_equal(m, matrix) for m in stack) for stack in self.fallbacks)


def _qr_cuts(cuts) -> list[Bipartition]:
    return [c for c in cuts if min(c.dim_a, c.dim_b) > 2]


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-5])
def test_rank_table_matches_the_svd_loop(monkeypatch, eps):
    """The QR route counts what the per-cut SVD loop counts, on families, Haar sets and corner rows."""
    routes = _Routes(monkeypatch)
    families = [_rotated_family(n, seed) for n, seed in ((5, 71), (6, 72), (7, 73))] + [n_qubit_ueb(6)]
    for st in families:
        amps = st.matrix()
        cuts = enumerate_cuts(st.space)
        routes.clear()
        assert schmidt_rank_table(amps, cuts, eps).tolist() == _svd_loop(amps, cuts, eps)
        # every wide cut went through the QR route, none fell back, and the triangle bound
        # alone counted almost every member: on the unrotated family, whose reshapes are
        # mostly zero columns, only because each member's columns are ordered by norm
        assert sorted(routes.qr) == sorted((len(amps), max(c.dim_a, c.dim_b), min(c.dim_a, c.dim_b))
                                           for c in _qr_cuts(cuts))
        assert not routes.fallbacks
        assert routes.certified_share() >= 0.95
    rng = np.random.default_rng(74)
    for dims in ((2,) * 6, (3, 3, 2)):
        sp = QuditDims(dims)
        amps = np.array([random_state(sp, rng).amps for _ in range(sp.total - 1)])
        cuts = enumerate_cuts(sp)
        assert _qr_cuts(cuts)
        table = schmidt_rank_table(amps, cuts, eps).tolist()
        assert table == _svd_loop(amps, cuts, eps)
        assert all(k == min(c.dim_a, c.dim_b) for row in table for k, c in zip(row, cuts))  # full rank
    amps = _rotated_family(6, 75).matrix()
    cuts = enumerate_cuts(QuditDims((2,) * 6))
    amps[4] = 0.0  # an exact zero row has rank 0 everywhere
    amps[5] = basis_state(QuditDims((2,) * 6), 9).amps  # a product row
    amps[6, ::3] = 0.0  # exact zeros inside a row
    table = schmidt_rank_table(amps, cuts, eps).tolist()
    assert table == _svd_loop(amps, cuts, eps)
    assert table[4] == [0] * len(cuts) and table[5] == [1] * len(cuts)
    amps = _rotated_family(6, 64).matrix()
    amps[:, ::7] *= 1e-12  # singular values spread over many scales
    assert schmidt_rank_table(amps, cuts, eps).tolist() == _svd_loop(amps, cuts, eps)


def _planted(dims: tuple[int, ...], mask: int, sigma2: float, seed: int) -> tuple[PureState, Bipartition]:
    """A state with Schmidt coefficients sqrt(1 - sigma2^2), sigma2 at the cut mask of dims,
    under seeded Haar local unitaries and a seeded relabelling of the parties.

    Returns the state and its planted cut in the new labels."""
    rng = np.random.default_rng(seed)
    sp = QuditDims(dims)
    cut = Bipartition(sp, mask)
    m = np.zeros((cut.dim_a, cut.dim_b), dtype=np.complex128)
    m[0, 0], m[1, 1] = math.sqrt(1 - sigma2**2), sigma2
    p = apply_local_unitaries(PureState(sp, unreshape(m, cut)), [haar_unitary(d, rng) for d in dims])
    perm = rng.permutation(len(dims))
    amps = p.amps.reshape(dims).transpose(perm).reshape(-1)
    new_mask = sum(1 << j for j, i in enumerate(perm) if cut.mask >> i & 1)
    new = QuditDims(tuple(dims[i] for i in perm))
    return PureState(new, amps), Bipartition(new, new_mask)


@pytest.mark.parametrize("dims, mask", [((2, 2, 2, 2), 0b0011), ((2,) * 6, 0b000111)])
def test_rank_table_near_the_tolerance(monkeypatch, dims, mask):
    """sigma_2 planted at 0.1 eps, 10 eps and eps (1 -+ 1e-4) in 4x4 and 8x8 cuts, in rows of
    norm 1 and 1e3: the rank flips only across eps, the triangle bound certifies no planted
    value inside the margin (each takes the slice SVD, then the fallback), and only those
    values take the fallback."""
    eps = TOL.eps
    routes = _Routes(monkeypatch)
    for factor, rank, in_margin in ((0.1, 1, False), (1 - 1e-4, 1, True), (1 + 1e-4, 2, True), (10.0, 2, False)):
        for seed in range(4):
            for scale in (1.0, 1e3):  # a long row: the bound's factor 1 / |R|_F is no longer 1
                p, cut = _planted(dims, mask, factor * eps / scale, 80 + seed)
                assert cut.dim_a == cut.dim_b in (4, 8)
                amps = scale * p.amps[None]
                cuts = enumerate_cuts(p.space)
                routes.clear()
                table = schmidt_rank_table(amps, cuts, TOL).tolist()
                assert table == _svd_loop(amps, cuts, eps)
                assert table[0][cuts.index(cut)] == rank
                assert routes.fell_back_on(reshape_rows(amps, cut)[0]) is in_margin
                if in_margin:
                    assert routes.sliced(factor * eps)


def test_rank_table_below_the_rounding_margin(monkeypatch):
    """At eps = 1e-15 the margin delta, a few ulps of |A|_F times D, is at least eps, so
    neither the triangle bound nor a slice SVD may count: every member takes its own SVD."""
    amps = _rotated_family(5, 77).matrix()
    cuts = enumerate_cuts(QuditDims((2,) * 5))
    routes = _Routes(monkeypatch)
    assert schmidt_rank_table(amps, cuts, 1e-15).tolist() == _svd_loop(amps, cuts, 1e-15)
    assert routes.qr and not routes.slices
    assert sum(len(stack) for stack in routes.fallbacks) == sum(shape[0] for shape in routes.qr)


def test_rank_table_truncation_keeps_tails_above_tau():
    """Dropping R's trailing rows moves singular values by at most their norm: here a tail of
    norm 0.8 eps sits under a sigma_2 of 1.13 eps, so it must be kept for the rank to be 2."""
    sp = QuditDims((2, 2, 2, 2))
    cut = Bipartition(sp, 0b0011)
    b = 0.8 * TOL.eps
    m = np.zeros((4, 4))
    m[0, 0], m[1, 2], m[2, 2] = math.sqrt(1 - 2 * b * b), b, b  # already upper triangular: R = m
    p = PureState(sp, unreshape(m, cut))
    assert np.linalg.svd(m, compute_uv=False)[1] > TOL.eps
    table = schmidt_rank_table(p.amps[None], [cut], TOL)
    assert table.tolist() == [[2]] == _svd_loop(p.amps[None], [cut], TOL.eps)
    # the table orders the columns of this sparse matrix by norm, which merges the two b
    # entries into one row of R; without that ordering R = m keeps them in two rows
    buffer = np.empty(sp.total, dtype=np.complex128)
    assert uebkit.cuts._qr_ranks(p.amps[None], cut, buffer, TOL.eps, pivot=False).tolist() == [2]


def test_rank_table_without_the_in_place_qr(monkeypatch):
    """Without numpy's in-place QR gufunc the table takes np.linalg.qr and is unchanged."""
    amps = _rotated_family(6, 76).matrix()
    cuts = enumerate_cuts(QuditDims((2,) * 6))
    want = schmidt_rank_table(amps, cuts, TOL).tolist()
    monkeypatch.setattr(uebkit.cuts, "_geqrf", None)
    assert schmidt_rank_table(amps, cuts, TOL).tolist() == want == _svd_loop(amps, cuts, TOL.eps)
