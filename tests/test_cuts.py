"""Bipartitions and Schmidt data: canonical masks, decomposition, invariances."""

import functools
import math
import threading

import numpy as np
import pytest

import uebkit.cuts
import uebkit.subspaces
from uebkit.cuts import reshape_rows
from uebkit import (
    CATALOG,
    BasisKind,
    Bipartition,
    CoeffVariant,
    DEFAULT_EPS,
    PureState,
    QuditDims,
    StateSet,
    apply_local_unitaries,
    basis_state,
    bell_meb,
    build_entry,
    classify_three_qubit,
    dft_superposition,
    embed_meb,
    enumerate_cuts,
    ghz_state,
    haar_unitary,
    inner,
    is_maximally_entangled,
    is_product,
    n_qubit_ueb,
    orthogonal_complement,
    random_state,
    reshape,
    schmidt,
    schmidt_rank_table,
    single_cut,
    state_from_combination,
    tensor_product,
    three_qubit_mixed_ueb,
    three_qubit_w_ueb,
    verify_basis,
    w_state,
)
from uebkit.report import state_diagnostics

SP2 = QuditDims((2, 2))
SP3 = QuditDims((2, 2, 2))
TOL = DEFAULT_EPS


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
        assert np.abs(u @ np.diag(s) @ vh - m).max() < 10 * TOL


def test_schmidt_invariant_under_local_unitaries():
    rng = np.random.default_rng(15)
    for _ in range(40):
        sp = QuditDims((2, 3))
        p = random_state(sp, rng)
        q = apply_local_unitaries(p, [haar_unitary(2, rng), haar_unitary(3, rng)])
        a = schmidt(p, single_cut(sp), TOL).coefficients
        b = schmidt(q, single_cut(sp), TOL).coefficients
        assert max(abs(x - y) for x, y in zip(a, b)) < 10 * TOL


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
        gram_rank = int(np.sum(np.linalg.eigvalsh(rho) > TOL**2))
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
    """The report's genuine entanglement is Schmidt rank >= 2 at every cut."""
    lone = tensor_product(basis_state(QuditDims((2,)), 0),
                          state_from_combination(SP2, {"00": 1, "11": 1}))
    for p, want in ((ghz_state(3), True), (w_state(3), True), (lone, False), (basis_state(SP3, 0), False)):
        (row,) = state_diagnostics(StateSet(SP3, (p,)), TOL)
        assert row["genuinely_entangled"] is want


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
            assert rows[i]["genuinely_entangled"] is (min(want) >= 2)
        loop = next((i for i, row in enumerate(table) if row.min() < 2), None)
        assert verify_basis(st, BasisKind.UEB_ALL_CUTS, tol=TOL).offending_state == loop
        for c in cuts:
            loop = next((i for i, s in enumerate(st.states) if is_product(s, c, TOL)), None)
            assert verify_basis(st, BasisKind.UEB, tol=TOL, cut=c).offending_state == loop
    # the biseparable member is the one refuted, and only at the cut that splits it off
    assert verify_basis(bisep, BasisKind.UEB_ALL_CUTS, tol=TOL).offending_state == 2
    assert [verify_basis(bisep, BasisKind.UEB, tol=TOL, cut=c).offending_state
            for c in enumerate_cuts(SP3)] == [None, 2, None]


def test_rank_table_matches_the_loop_with_a_planted_member():
    """The table equals the per-state loop and the SVD loop, also for a member whose rank
    differs from cut to cut, and a one-cut table its column."""
    st = _rotated_family(5, 62)
    amps = st.matrix().copy()
    amps[3] = 0.0
    amps[3, 8] = amps[3, 16] = 1 / math.sqrt(2)  # (|01> + |10>)|000>: rank 1 wherever parties 1, 2 stay together
    cuts = enumerate_cuts(st.space)
    loop = [[schmidt(PureState(st.space, row), c, TOL).rank for c in cuts] for row in amps]
    assert min(loop[3]) == 1 and max(loop[3]) == 2
    assert schmidt_rank_table(amps, cuts, TOL).tolist() == loop == _svd_loop(amps, cuts, TOL)
    assert schmidt_rank_table(amps, cuts[:1], TOL).tolist() == [row[:1] for row in loop]


def test_no_rank_table_starts_a_thread(monkeypatch):
    """Every table runs on the calling thread: a one-row table, which the three-qubit classifier
    builds once per state, a small one and the rotated n = 7 family's 127 x 128 amplitudes."""
    starts = []
    start = threading.Thread.start

    def counting_start(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    family = three_qubit_mixed_ueb()
    cuts = enumerate_cuts(family.space)
    labels = [classify_three_qubit(p, TOL).label for p in family.states]
    assert len(labels) == 7
    assert schmidt_rank_table(family.matrix()[:1], cuts, TOL).tolist() == [[2, 2, 2]]
    schmidt_rank_table(family.matrix(), cuts, TOL)
    large = _rotated_family(7, 65)
    assert large.matrix().size == 127 * 128
    assert schmidt_rank_table(large.matrix(), enumerate_cuts(large.space), TOL).min() == 2
    assert not starts


def _svd_loop(amps: np.ndarray, cuts, eps: float) -> list[list[int]]:
    """The reference table: one batched SVD of every cut's stack, ranks counted above eps."""
    cols = [(np.linalg.svd(reshape_rows(amps, c), compute_uv=False) > eps).sum(axis=1) for c in cuts]
    return np.stack(cols, axis=1).tolist()



def _kept_height(matrix: np.ndarray, eps: float) -> int:
    """The rows of the R factor of matrix, in its tall orientation, above a tail of
    Frobenius norm at most tau = _TAU * eps: the height _node_ranks keeps."""
    tall = matrix if matrix.shape[0] >= matrix.shape[1] else matrix.T
    rows = (np.abs(np.linalg.qr(tall, mode="r")) ** 2).sum(axis=1)
    return int((rows[::-1].cumsum()[::-1] > (uebkit.cuts._TAU * eps) ** 2).sum())


def _tree_shapes(amps: np.ndarray, cuts, table) -> list[tuple[int, int, int]]:
    """The QR stack shapes of the cut-tree walk over all cuts: the root 1|.. as (k, d_1, D / d_1),
    a child moving party p as (k, h * d_p, d_B / d_p), h the largest rank at its parent, and a
    cut without children in its tall orientation."""
    masks = [c.mask for c in cuts]
    top = np.array(table).max(axis=0)
    shapes = []
    for c in cuts:
        parent = c.mask ^ 1 << c.mask.bit_length() - 1
        if parent:
            p = c.mask.bit_length() - 1
            m, n = top[masks.index(parent)] * c.space.dims[p], c.dim_b
        else:
            m, n = c.dim_a, c.dim_b
        leaf = not any(mask ^ 1 << mask.bit_length() - 1 == c.mask for mask in masks)
        shapes.append((len(amps), max(m, n), min(m, n)) if leaf else (len(amps), m, n))
    return shapes


class _Routes:
    """Spies on the routes of schmidt_rank_table: the rows left to the dense route, QR
    stacks and SVD fallbacks.

    A member with at most two nonzero amplitudes outside the rounding margin
    takes the closed form and never reaches the dense route. Every cut of the
    dense route takes the QR route, and a member the triangle bound certifies
    takes no fallback. A fallback is an SVD of a member's own matrix, at any cut.
    """

    def __init__(self, monkeypatch) -> None:
        self.dense: list[np.ndarray] = []
        self.qr: list[tuple[int, ...]] = []
        self.fallbacks: list[np.ndarray] = []
        dense_ranks, qr, svd_ranks = uebkit.cuts._dense_ranks, uebkit.cuts._qr_in_place, uebkit.cuts._svd_ranks

        def spy_dense(amps, cuts, eps):
            self.dense.append(amps.copy())
            return dense_ranks(amps, cuts, eps)

        def spy_qr(stack):
            self.qr.append(stack.shape)
            return qr(stack)

        def spy_svd(stack, eps):
            self.fallbacks.append(stack.copy())
            return svd_ranks(stack, eps)

        monkeypatch.setattr(uebkit.cuts, "_dense_ranks", spy_dense)
        monkeypatch.setattr(uebkit.cuts, "_qr_in_place", spy_qr)
        monkeypatch.setattr(uebkit.cuts, "_svd_ranks", spy_svd)

    def clear(self) -> None:
        self.dense.clear()
        self.qr.clear()
        self.fallbacks.clear()

    def certified_share(self) -> float:
        """The share of QR-route members counted by the triangle bound alone."""
        members = sum(shape[0] for shape in self.qr)
        return 1 - sum(len(stack) for stack in self.fallbacks) / members

    def fell_back_on(self, matrix: np.ndarray) -> bool:
        return any(any(np.array_equal(m, matrix) for m in stack) for stack in self.fallbacks)


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-5])
def test_rank_table_matches_the_svd_loop(monkeypatch, eps):
    """The QR route counts what the per-cut SVD loop counts, on families, Haar sets and corner rows."""
    routes = _Routes(monkeypatch)
    for n, seed in ((5, 71), (6, 72), (7, 73)):
        amps = _rotated_family(n, seed).matrix()
        cuts = enumerate_cuts(QuditDims((2,) * n))
        routes.clear()
        want = _svd_loop(amps, cuts, eps)
        assert schmidt_rank_table(amps, cuts, eps).tolist() == want
        # the rotated members are dense: every cut took one QR, with all of them, and the
        # triangle bound alone counted almost every member
        assert len(routes.qr) == len(cuts) and {shape[0] for shape in routes.qr} == {len(amps)}
        if eps >= 1e-9:  # the stacks of the cut tree, pinned where kept heights are the ranks
            assert sorted(routes.qr) == sorted(_tree_shapes(amps, cuts, want))
        # none fell back but at eps = 1e-12, where tau = 1e-15 sits at the QR's own rounding:
        # a wide stack of a node with children keeps rounding rows of norm about 1e-15 to
        # 1e-14 (its leading columns are short), so 3 of the 1953 member-cuts at n = 6 and
        # 15 of the 8001 at n = 7 keep a noise row above their rank. The bound cannot
        # certify that height and they take their own SVD, although their own matrices,
        # factored tall, keep exactly their rank
        fallbacks = [m for stack in routes.fallbacks for m in stack]
        assert len(fallbacks) == {(1e-12, 6): 3, (1e-12, 7): 15}.get((eps, n), 0)
        assert all(_kept_height(m, eps) == (np.linalg.svd(m, compute_uv=False) > eps).sum() for m in fallbacks)
        assert routes.certified_share() >= 0.95
    # unrotated, the two-amplitude members take the closed form and only the others
    # (the three-amplitude triple and the weight-1 and weight-5 superpositions) reach the QR route
    amps = n_qubit_ueb(6).matrix()
    cuts = enumerate_cuts(QuditDims((2,) * 6))
    routes.clear()
    assert schmidt_rank_table(amps, cuts, eps).tolist() == _svd_loop(amps, cuts, eps)
    two = (amps != 0).sum(axis=1) == 2
    assert two.sum() == 49
    assert len(routes.dense) == 1 and np.array_equal(routes.dense[0], amps[~two])
    assert len(routes.qr) == len(cuts) and {shape[0] for shape in routes.qr} == {14}
    # 26 cuts take SVD calls, one more than the 25 of a per-cut QR of each tall stack: the
    # root 1|23456 is factored wide (2 x 32) for its children, and for 8 sparse members its
    # leading columns 00000 and 00001 give a singular triangle there
    assert len(routes.fallbacks) == 26 and sum(map(len, routes.fallbacks)) == 194
    rng = np.random.default_rng(74)
    for dims in ((2,) * 6, (3, 3, 2)):
        sp = QuditDims(dims)
        amps = np.array([random_state(sp, rng).amps for _ in range(sp.total - 1)])
        cuts = enumerate_cuts(sp)
        table = schmidt_rank_table(amps, cuts, eps).tolist()
        assert table == _svd_loop(amps, cuts, eps)
        assert all(k == min(c.dim_a, c.dim_b) for row in table for k, c in zip(row, cuts))  # full rank
    amps = _rotated_family(6, 75).matrix().copy()
    cuts = enumerate_cuts(QuditDims((2,) * 6))
    amps[4] = 0.0  # an exact zero row has rank 0 everywhere
    amps[5] = basis_state(QuditDims((2,) * 6), 9).amps  # a product row
    amps[6, ::3] = 0.0  # exact zeros inside a row
    table = schmidt_rank_table(amps, cuts, eps).tolist()
    assert table == _svd_loop(amps, cuts, eps)
    assert table[4] == [0] * len(cuts) and table[5] == [1] * len(cuts)
    amps = _rotated_family(6, 64).matrix().copy()
    amps[:, ::7] *= 1e-12  # singular values spread over many scales
    assert schmidt_rank_table(amps, cuts, eps).tolist() == _svd_loop(amps, cuts, eps)


def _from_matrix(m: np.ndarray, cut: Bipartition) -> np.ndarray:
    """The amplitudes whose reshape at cut is m."""
    perm = cut.block_a + cut.block_b
    t = np.asarray(m, dtype=np.complex128).reshape([cut.space.dims[i] for i in perm])
    return t.transpose(np.argsort(perm)).reshape(-1)


def _planted(dims: tuple[int, ...], mask: int, sigma2: float, seed: int) -> tuple[PureState, Bipartition]:
    """A state with Schmidt coefficients sqrt(1 - sigma2^2), sigma2 at the cut mask of dims,
    under seeded Haar local unitaries and a seeded relabelling of the parties.

    Returns the state and its planted cut in the new labels."""
    rng = np.random.default_rng(seed)
    sp = QuditDims(dims)
    cut = Bipartition(sp, mask)
    m = np.zeros((cut.dim_a, cut.dim_b), dtype=np.complex128)
    m[0, 0], m[1, 1] = math.sqrt(1 - sigma2**2), sigma2
    p = apply_local_unitaries(PureState(sp, _from_matrix(m, cut)), [haar_unitary(d, rng) for d in dims])
    perm = rng.permutation(len(dims))
    amps = p.amps.reshape(dims).transpose(perm).reshape(-1)
    new_mask = sum(1 << j for j, i in enumerate(perm) if cut.mask >> i & 1)
    new = QuditDims(tuple(dims[i] for i in perm))
    return PureState(new, amps), Bipartition(new, new_mask)


@pytest.mark.parametrize("dims, mask", [((2, 2, 2, 2), 0b0011), ((2,) * 6, 0b000111)])
def test_rank_table_near_the_tolerance(monkeypatch, dims, mask):
    """sigma_2 planted at 0.1 eps, 10 eps and eps (1 -+ 1e-4) in 4x4 and 8x8 cuts, in rows of
    norm 1 and 1e3: the rank flips only across eps, and the triangle bound certifies no planted
    value inside the margin, so each of those members takes its own SVD."""
    eps = TOL
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
                if in_margin:
                    assert routes.fell_back_on(reshape_rows(amps, cut)[0])


def test_rank_table_below_the_rounding_margin(monkeypatch):
    """Where the margin delta, a few ulps of |A|_F times D, is at least eps, the triangle bound
    may not count: every member takes its own SVD, at every cut, thin ones included."""
    amps = _rotated_family(5, 77).matrix()
    cuts = enumerate_cuts(QuditDims((2,) * 5))
    routes = _Routes(monkeypatch)
    assert schmidt_rank_table(amps, cuts, 1e-15).tolist() == _svd_loop(amps, cuts, 1e-15)
    assert len(routes.qr) == len(cuts)
    assert sum(len(stack) for stack in routes.fallbacks) == sum(shape[0] for shape in routes.qr)
    # at eps = 5e-15 delta is about 1.42e-14, inside [eps, 10 eps): full-rank Haar rows, which
    # the bound would certify, must still take their own SVDs
    sp = QuditDims((2,) * 5)
    rng = np.random.default_rng(78)
    amps = np.array([random_state(sp, rng).amps for _ in range(8)])
    routes.clear()
    assert schmidt_rank_table(amps, cuts, 5e-15).tolist() == _svd_loop(amps, cuts, 5e-15)
    assert len(routes.qr) == len(cuts)
    assert sum(len(stack) for stack in routes.fallbacks) == sum(shape[0] for shape in routes.qr) == 8 * len(cuts)
    # nor may the closed form: every member of the unrotated family reaches the dense route
    amps = n_qubit_ueb(5).matrix()
    routes.clear()
    assert schmidt_rank_table(amps, cuts, 1e-15).tolist() == _svd_loop(amps, cuts, 1e-15)
    assert len(routes.dense) == 1 and np.array_equal(routes.dense[0], amps)


def _relabelled(amps: np.ndarray, dims: tuple[int, ...], perm) -> tuple[np.ndarray, tuple[int, ...]]:
    """The rows of amps with party perm[j] of dims moved to position j."""
    k = len(amps)
    moved = amps.reshape((k,) + dims).transpose((0,) + tuple(p + 1 for p in perm)).reshape(k, -1)
    return moved, tuple(dims[p] for p in perm)


def _two_amplitude_rows(dims: tuple[int, ...], pairs) -> np.ndarray:
    """One row per ((digits, value), ...) entry, zero everywhere else."""
    amps = np.zeros((len(pairs), math.prod(dims)), dtype=np.complex128)
    for row, entries in zip(amps, pairs):
        for digits, value in entries:
            row[np.ravel_multi_index(digits, dims)] = value
    return amps


_R2 = 1 / math.sqrt(2)
# rows of a 2x3x4 space (parties 1, 2, 3) and where their two nonzero amplitudes
# meet: the digits of a pair agree on the parties named, so the pair shares a row
# at the cuts whose block A those parties cover and a column where they cover block B
_PLANTED_2X3X4 = [
    (((0, 1, 0), _R2), ((0, 1, 3), -_R2)),  # agree on 1, 2: shared at every cut
    (((0, 1, 2), 0.6), ((0, 2, 3), 0.8j)),  # agree on 1: shared row at 1|23 only
    (((0, 1, 0), _R2), ((1, 1, 2), 1j * _R2)),  # agree on 2: shared column at 13|2 only
    (((0, 0, 0), 0.6), ((1, 2, 3), -0.8)),  # agree nowhere: distinct at every cut
    (((0, 0, 1), math.sqrt(1 - 1e-14)), ((1, 1, 1), 1e-7)),  # agree on 3, a modulus between the eps
    (((1, 2, 1), -1j),),  # a single amplitude
    (),  # a zero row
]


@functools.cache
def _sparse_sets() -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Unrotated n-qubit families, every catalog entry, the generators' sets and planted
    2x3x4 rows next to a dense one, each also under a seeded relabelling of its parties."""
    sets = [n_qubit_ueb(n) for n in range(4, 9)]
    sets += [n_qubit_ueb(n, CoeffVariant.HADAMARD_IF_POWER_OF_TWO) for n in (4, 8)]
    sets += [build_entry(entry_id) for entry_id in CATALOG]
    sets += [bell_meb(3), embed_meb(3, 2)]
    sp = QuditDims((2, 3, 4))
    sets.append(StateSet(sp, tuple(dft_superposition(sp, ["012", "123", "001", "100"]))))
    out = [(st.matrix(), st.space.dims) for st in sets]
    planted = _two_amplitude_rows(sp.dims, _PLANTED_2X3X4)
    out.append((np.vstack([planted, random_state(sp, np.random.default_rng(90)).amps]), sp.dims))
    rng = np.random.default_rng(91)
    return out + [_relabelled(amps, dims, rng.permutation(len(dims))) for amps, dims in out]


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-5])
def test_sparse_route_matches_the_svd_loop(monkeypatch, eps):
    """Members with at most two nonzero amplitudes are counted in closed form, and the
    table is the per-cut SVD loop's: where the pair shares a row or a column, apart,
    alone, or absent, in sets of qubits and of mixed dimensions, under any party labels."""
    routes = _Routes(monkeypatch)
    closed = 0
    for amps, dims in _sparse_sets():
        cuts = enumerate_cuts(QuditDims(dims))
        routes.clear()
        assert schmidt_rank_table(amps, cuts, eps).tolist() == _svd_loop(amps, cuts, eps), dims
        dense = sum(len(rows) for rows in routes.dense)
        assert dense >= ((amps != 0).sum(axis=1) > 2).sum()
        closed += len(amps) - dense
    assert closed > 1000
    # all planted rows but the dense one took the closed form, at each eps
    amps, dims = _sparse_sets()[len(_sparse_sets()) // 2 - 1]
    routes.clear()
    table = schmidt_rank_table(amps, enumerate_cuts(QuditDims(dims)), eps).tolist()
    assert len(routes.dense) == 1 and np.array_equal(routes.dense[0], amps[-1:])
    # cuts 1|23, 12|3, 13|2: a shared pair has one singular value, a distinct pair two
    assert table[:7] == [[1, 1, 1], [1, 2, 2], [2, 2, 1], [2, 2, 2], [2, 1, 2] if eps < 1e-7 else [1, 1, 1],
                         [1, 1, 1], [0, 0, 0]]


def test_sparse_route_near_the_tolerance(monkeypatch):
    """A two-amplitude member with a singular value at 0.1 eps, eps (1 -+ 1e-4) or 10 eps, in
    rows of norm 1 and 1e3: counts are the SVD loop's, and exactly the members with a value
    inside the margin reach the dense route. A modulus that is no singular value at any cut
    (the pair shares a row or a column at each) sends no member there."""
    eps = TOL
    sp = QuditDims((2, 3, 4))
    cuts = enumerate_cuts(sp)
    routes = _Routes(monkeypatch)
    for factor, in_margin in ((0.1, False), (1 - 1e-4, True), (1 + 1e-4, True), (10.0, False)):
        b = factor * eps
        for scale in (1.0, 1e3):
            amps = _two_amplitude_rows(sp.dims, [
                (((0, 1, 2), scale), ((0, 2, 3), b)),  # |b| is a value at 12|3 and 13|2
                (((0, 1, 0), scale), ((0, 1, 3), -b)),  # |b| is no value: shared at every cut
                (((0, 1, 2), b * _R2), ((0, 2, 3), 1j * b * _R2)),  # b is the value at 1|23 only
            ])
            routes.clear()
            table = schmidt_rank_table(amps, cuts, TOL).tolist()
            assert table == _svd_loop(amps, cuts, eps)
            assert table[0] == [1, 1 + (factor > 1), 1 + (factor > 1)]
            assert table[1] == [1, 1, 1]
            assert table[2][0] == (factor > 1)
            want = [0, 2] if in_margin else []
            assert sum(len(rows) for rows in routes.dense) == len(want)
            if want:
                assert np.array_equal(routes.dense[0], amps[want])


def test_rank_table_truncation_keeps_tails_above_tau():
    """Dropping R's trailing rows moves singular values by at most their norm: here a tail of
    norm 0.8 eps sits under a sigma_2 of 1.13 eps, so it must be kept for the rank to be 2."""
    sp = QuditDims((2, 2, 2, 2))
    cut = Bipartition(sp, 0b0011)
    b = 0.8 * TOL
    m = np.zeros((4, 4))
    m[0, 0], m[1, 2], m[2, 2] = math.sqrt(1 - 2 * b * b), b, b  # already upper triangular: R = m
    p = PureState(sp, _from_matrix(m, cut))
    assert np.linalg.svd(m, compute_uv=False)[1] > TOL
    # the member has three nonzero amplitudes, so it takes the QR route, where R = m keeps
    # the two b entries in two rows: the last kept one is the tail of norm 0.8 eps
    table = schmidt_rank_table(p.amps[None], [cut], TOL)
    assert table.tolist() == [[2]] == _svd_loop(p.amps[None], [cut], TOL)


def test_rank_table_bound_inside_the_margin_falls_back(monkeypatch):
    """A triangle bound above eps but within delta of it certifies nothing: R = diag(a, 1/2, c)
    gives the bound 2abc / |R|_F^2 = ac = eps (1 + 5e-4), inside eps + delta (delta about
    1e-3 eps), so the member takes its own SVD although its count, 3, is the kept height."""
    sp = QuditDims((2, 2, 2, 2))
    cut = Bipartition(sp, 0b0011)
    eps = TOL
    bound = eps * (1 + 5e-4)
    a = math.sqrt(0.75 - bound * bound / 0.75)
    m = np.zeros((4, 4))
    m[0, 0], m[1, 1], m[2, 2] = a, 0.5, bound / a
    amps = PureState(sp, _from_matrix(m, cut)).amps[None]
    assert eps < bound < eps + uebkit.cuts._margin(eps, sp.total, np.float64(1.0))
    routes = _Routes(monkeypatch)
    assert schmidt_rank_table(amps, [cut], TOL).tolist() == [[3]] == _svd_loop(amps, [cut], eps)
    assert routes.fell_back_on(reshape_rows(amps, cut)[0])


def test_rank_table_without_the_in_place_qr(monkeypatch):
    """Without numpy's in-place QR gufunc the table takes np.linalg.qr and is unchanged."""
    amps = _rotated_family(6, 76).matrix()
    cuts = enumerate_cuts(QuditDims((2,) * 6))
    want = schmidt_rank_table(amps, cuts, TOL).tolist()
    monkeypatch.setattr(uebkit.cuts, "_geqrf", None)
    assert schmidt_rank_table(amps, cuts, TOL).tolist() == want == _svd_loop(amps, cuts, TOL)


@functools.cache
def _walk_sets() -> list[tuple[np.ndarray, tuple[int, ...]]]:
    sets = [(_rotated_family(n, 90 + n).matrix(), (2,) * n) for n in (5, 6, 7, 8)]
    rng = np.random.default_rng(95)
    for dims in ((3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2), (2, 3, 2, 2)):
        sp = QuditDims(dims)
        sets.append((np.array([random_state(sp, rng).amps for _ in range(sp.total - 1)]), dims))
    return sets


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-5])
def test_cut_tree_walk_matches_the_svd_loop(eps):
    """The walk over the cut tree counts what the per-cut SVD loop counts: rotated n-qubit
    families, Haar sets with a qutrit party in each place, cut lists whose cuts lack their
    parents, and one-cut lists."""
    for amps, dims in _walk_sets():
        cuts = enumerate_cuts(QuditDims(dims))
        want = _svd_loop(amps, cuts, eps)
        assert schmidt_rank_table(amps, cuts, eps).tolist() == want, dims
        # cuts[3] and cuts[5] (masks 7 and 11 with four or more parties) lack their parent,
        # so each is a root; so is every cut of a one-cut list
        picks = [[3, 5], [len(cuts) - 1], [0]] if len(cuts) > 5 else [[1, 2], [2]]
        for pick in picks:
            got = schmidt_rank_table(amps, [cuts[j] for j in pick], eps).tolist()
            assert got == [[row[j] for j in pick] for row in want], (dims, pick)


def test_rank_table_columns_follow_a_relabelling_of_the_parties():
    """Relabelling the parties permutes the columns of the table: the cut of the new labels
    that puts each party on the same side as before has the same ranks."""
    rng = np.random.default_rng(96)
    for amps, dims in ((_rotated_family(6, 97).matrix(), (2,) * 6),
                       (np.array([random_state(QuditDims((3, 2, 2, 2)), rng).amps for _ in range(9)]), (3, 2, 2, 2))):
        cuts = enumerate_cuts(QuditDims(dims))
        table = schmidt_rank_table(amps, cuts, TOL)
        perm = rng.permutation(len(dims))
        moved, new_dims = _relabelled(amps, dims, perm)
        new_cuts = [Bipartition(QuditDims(new_dims), sum(1 << j for j, i in enumerate(perm) if c.mask >> i & 1))
                    for c in cuts]
        assert np.array_equal(schmidt_rank_table(moved, new_cuts, TOL), table)
        masks = [c.mask for c in new_cuts]
        order = [masks.index(c.mask) for c in enumerate_cuts(QuditDims(new_dims))]
        assert sorted(order) == list(range(len(cuts)))
        assert np.array_equal(schmidt_rank_table(moved, enumerate_cuts(QuditDims(new_dims)), TOL), table[:, order])


def test_rank_table_leaves_a_read_only_input_unchanged():
    """numpy's in-place QR writes through read-only views, so every root factors a copy: the
    members of an all-cuts table, of a one-cut table whose tall stack is the members' own
    layout (block A the leading parties, d_A >= d_B), and the complement rows whose support
    ranks support_ranks counts are left bit-identical."""
    st = _rotated_family(5, 98)
    amps = st.matrix()
    assert not amps.flags.writeable
    before = amps.tobytes()
    cuts = enumerate_cuts(st.space)
    assert schmidt_rank_table(amps, cuts, TOL).tolist() == _svd_loop(amps, cuts, TOL)
    assert amps.tobytes() == before
    cut = Bipartition(st.space, 0b00111)  # 123|45: an 8 x 4 stack, the rows of amps as they lie
    assert schmidt_rank_table(amps, [cut], TOL).tolist() == _svd_loop(amps, [cut], TOL)
    assert amps.tobytes() == before
    # support ranks of a complement: a ray takes its own row, a plane its purification's table
    for comp in (orthogonal_complement(st, TOL), orthogonal_complement(StateSet(st.space, amps[:-1]), TOL)):
        m = comp.matrix()
        assert not m.flags.writeable
        before = m.tobytes()
        assert uebkit.subspaces.support_ranks(comp, cuts, TOL).min() >= 1
        assert m.tobytes() == before
