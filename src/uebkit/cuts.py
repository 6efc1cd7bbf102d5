"""Bipartitions of a multi-qudit space and Schmidt decompositions across them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import DEFAULT_EPS, PureState, QuditDims, _eps


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of the parties, canonicalized so block A holds party 0.

    The mask sets bit i when party i belongs to block A. Canonical masks are
    odd (party 0 on the A side) and proper (neither block empty).
    """

    space: QuditDims
    mask: int

    def __post_init__(self) -> None:
        m = self.space.parties
        if m < 2:
            raise ValueError("a bipartition needs at least two parties")
        mask = int(self.mask)
        full = (1 << m) - 1
        if not 0 < mask < full:
            raise ValueError(f"mask {mask} does not describe a proper nonempty split of {m} parties")
        if not mask & 1:
            mask = full ^ mask  # canonical form keeps party 0 in block A
        object.__setattr__(self, "mask", mask)

    @property
    def block_a(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.space.parties) if self.mask >> i & 1)

    @property
    def block_b(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.space.parties) if not self.mask >> i & 1)

    @property
    def dim_a(self) -> int:
        return math.prod(self.space.dims[i] for i in self.block_a)

    @property
    def dim_b(self) -> int:
        return math.prod(self.space.dims[i] for i in self.block_b)

    @property
    def label(self) -> str:
        """Human-readable split with 1-based party labels, e.g. '1|23'."""
        if self.space.parties <= 9:
            a = "".join(str(i + 1) for i in self.block_a)
            b = "".join(str(i + 1) for i in self.block_b)
        else:
            a = ",".join(str(i + 1) for i in self.block_a)
            b = ",".join(str(i + 1) for i in self.block_b)
        return f"{a}|{b}"


def enumerate_cuts(space: QuditDims) -> list[Bipartition]:
    """All distinct bipartitions in ascending canonical-mask order."""
    m = space.parties
    if m < 2:
        raise ValueError("cut enumeration needs at least two parties")
    full = (1 << m) - 1
    return [Bipartition(space, mask) for mask in range(1, full, 2)]


def single_cut(space: QuditDims) -> Bipartition:
    """The unique cut of a two-party space."""
    if space.parties != 2:
        raise ValueError(f"space {space} has {space.parties} parties, expected 2")
    return Bipartition(space, 1)


def reshape_rows(amps: np.ndarray, cut: Bipartition, tall: bool = False) -> np.ndarray:
    """Row-batched reshape: a (k, D) amplitude array to a new C-ordered (k, dim_a, dim_b) stack.

    Row and column indices are lexicographic over the parties of each block,
    preserving the original party order within the block. The stack is a
    copy even where the permutation is the identity, so a caller may factor
    it in place. With tall, a cut with dim_a < dim_b gives the transposed
    (k, dim_b, dim_a) stack, so every matrix has at least as many rows as
    columns.
    """
    k = amps.shape[0]
    t = amps.reshape((k,) + cut.space.dims)
    rows, cols, shape = cut.block_a, cut.block_b, (k, cut.dim_a, cut.dim_b)
    if tall and cut.dim_a < cut.dim_b:
        rows, cols, shape = cols, rows, (k, cut.dim_b, cut.dim_a)
    perm = (0,) + tuple(i + 1 for i in rows + cols)
    return np.array(t.transpose(perm), order="C").reshape(shape)


def reshape(p: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitudes rearranged into a dim_a x dim_b matrix for the given cut."""
    if p.space != cut.space:
        raise ValueError(f"space mismatch: {p.space} vs {cut.space}")
    return reshape_rows(p.amps[None], cut)[0]


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt coefficients (nonincreasing, squares summing to 1) and rank at a cut."""

    cut: Bipartition
    coefficients: np.ndarray
    rank: int


def schmidt(p: PureState, cut: Bipartition, tol: float = DEFAULT_EPS) -> SchmidtData:
    """Schmidt decomposition via SVD of the cut reshape."""
    eps = _eps(tol)
    sv = np.linalg.svd(reshape(p, cut), compute_uv=False)
    sv.setflags(write=False)
    return SchmidtData(cut=cut, coefficients=sv, rank=int((sv > eps).sum()))


# The routes of schmidt_rank_table: tau = _TAU * eps bounds the dropped tail
# of R, and delta = tau + _ROUNDING * D * u * |A|_F (u the unit roundoff) is
# the margin around eps inside which neither the triangle bound nor a
# closed-form value decides a count.
_TAU = 1e-3
_ROUNDING = 4.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _margin(eps: float, total: int, norm: np.ndarray) -> np.ndarray:
    return _TAU * eps + _ROUNDING * total * _UNIT_ROUNDOFF * norm


try:  # geqrf over a stack, in place: np.linalg.qr would copy the stack and its triangle
    from numpy.linalg._umath_linalg import qr_r_raw as _geqrf
except ImportError:  # numpy < 2 names its gufuncs by orientation
    _geqrf = None


def _qr_in_place(stack: np.ndarray) -> None:
    """Leave each matrix's R factor in the upper triangle of stack[:, :n]."""
    if _geqrf is not None:
        _geqrf(stack, signature="D->D")
    else:
        stack[:, : stack.shape[2]] = np.linalg.qr(stack, mode="r")


def _svd_ranks(stack: np.ndarray, eps: float) -> np.ndarray:
    return (np.linalg.svd(stack, compute_uv=False) > eps).sum(axis=1)


def _node_ranks(amps: np.ndarray, cut: Bipartition, stack: np.ndarray, eps: float, depth: int) -> tuple:
    """Schmidt ranks of every row of amps at cut, equal to _svd_ranks of its stack, and the
    kept rows of its R factors (a view of stack), which the walk of schmidt_rank_table takes.

    stack, a private (k, m, n) array factored in place, holds the members'
    singular values at cut up to (depth - 1) * tau. Member i keeps the
    leading h_i rows of its R, those above a tail of Frobenius norm at most
    tau; T_i is their leading h_i x h_i triangle. With delta_i the margin
    times depth, member i is counted as h_i, with no SVD, when delta_i < eps
    and the triangle bound

        |det T_i| * ((h_i - 1) / |R_i|_F^2)^((h_i - 1) / 2) <= sigma_min(T_i)

    exceeds eps + delta_i. Every other member takes the SVD of its own
    matrix. schmidt_rank_table states why each count is the SVD's.
    """
    n = min(stack.shape[1:])
    _qr_in_place(stack)
    r = stack[:, :n]
    np.copyto(r, 0, where=np.tri(n, stack.shape[2], k=-1, dtype=bool))  # clear the Householder vectors
    flat = r.view(np.float64)
    tails = np.einsum("kij,kij->ki", flat, flat)[:, ::-1].cumsum(axis=1)[:, ::-1]
    tau = _TAU * eps
    heights = (tails > tau * tau).sum(axis=1)
    norm2 = tails[:, 0]
    delta = depth * _margin(eps, cut.space.total, np.sqrt(norm2))
    # the bound as d_0 * prod_{0 < j < h} (d_j * sqrt(h - 1) / |R|_F): no factor exceeds
    # sqrt(h - 1), so nothing overflows, and h = 0 (norm2 <= tau^2) takes no division
    scale = np.sqrt(np.maximum(heights - 1, 0) / np.where(heights > 0, norm2, 1.0))
    factors = np.abs(np.diagonal(r, axis1=1, axis2=2)) * scale[:, None]
    factors[:, 0] = np.abs(r[:, 0, 0])
    factors[np.arange(n) >= heights[:, None]] = 1.0
    counts = heights.copy()
    rows = np.flatnonzero((delta >= eps) | (factors.prod(axis=1) <= eps + delta))
    if rows.size:
        counts[rows] = _svd_ranks(reshape_rows(amps[rows], cut), eps)
    kept = r[:, : max(heights.max(), 1)]
    kept[np.arange(kept.shape[1]) >= heights[:, None]] = 0  # each member's own tail is dropped
    return counts, kept


def _child_stack(y: np.ndarray, parent: Bipartition, p: int, tall: bool) -> np.ndarray:
    """A new (k, d_p * h, d_B / d_p) stack (tall: in its tall orientation) of the cut parent + {p}
    from y, parent's (k, h, d_B) kept rows: p's digit moves from the columns into the rows."""
    k, h, b = *y.shape[:2], parent.block_b
    t = y.reshape((k, h) + tuple(parent.space.dims[i] for i in b))
    j = 2 + b.index(p)
    rows, cols = (j, 1), tuple(i for i in range(2, t.ndim) if i != j)
    m = math.prod(t.shape[i] for i in rows)
    if tall and m * m < y[0].size:
        rows, cols, m = cols, rows, y[0].size // m
    return np.array(t.transpose((0,) + rows + cols), order="C").reshape(k, m, -1)  # a copy, even of a view


def _sparse_ranks(amps: np.ndarray, cuts: Sequence[Bipartition], eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ranks of the members with at most two nonzero amplitudes a, b.

    Returns a mask of the rows counted and their (rows, len(cuts)) ranks,
    which schmidt_rank_table shows equal to _svd_ranks. b = 0 for a member
    with one nonzero, whose two kets are then the same, and a = b = 0 for a
    zero row, which counts 0 at every cut either way.
    """
    nonzero = amps != 0
    rows = np.flatnonzero(nonzero.sum(axis=1) <= 2)
    closed = np.zeros(len(amps), dtype=bool)
    if not rows.size or not cuts:
        return closed, np.empty((0, len(cuts)), dtype=int)
    space = cuts[0].space
    nonzero = nonzero[rows]
    first = nonzero.argmax(axis=1)
    last = space.total - 1 - nonzero[:, ::-1].argmax(axis=1)
    a = np.abs(amps[rows, first])
    b = np.where(first < last, np.abs(amps[rows, last]), 0.0)
    norm = np.hypot(a, b)
    digits = np.unravel_index(np.stack([first, last]), space.dims)
    agree = sum((d[0] == d[1]).astype(int) << i for i, d in enumerate(digits))[:, None]
    masks = np.array([c.mask for c in cuts])
    blocks_b = (1 << space.parties) - 1 ^ masks
    shared = ((agree & masks) == masks) | ((agree & blocks_b) == blocks_b)
    apart = (a > eps).astype(int) + (b > eps)
    ranks = np.where(shared, (norm > eps)[:, None], apart[:, None])
    delta = _margin(eps, space.total, norm)

    def near(x: np.ndarray) -> np.ndarray:
        return np.abs(x - eps) <= delta

    dense = (delta >= eps) | shared.any(axis=1) & near(norm) | ~shared.all(axis=1) & (near(a) | near(b))
    closed[rows[~dense]] = True
    return closed, ranks[~dense]


def _dense_ranks(amps: np.ndarray, cuts: Sequence[Bipartition], eps: float) -> np.ndarray:
    """(k, len(cuts)) ranks by the QR route, one depth-first walk of the cut tree on the calling
    thread, as schmidt_rank_table states."""
    ranks = np.empty((amps.shape[0], len(cuts)), dtype=int)
    columns: dict[int, list[int]] = {}
    for j, c in enumerate(cuts):
        columns.setdefault(c.mask, []).append(j)
    cut = {mask: cuts[js[0]] for mask, js in columns.items()}
    children: dict[int, list[int]] = {mask: [] for mask in columns}
    roots: list[int] = []
    for mask in columns:  # a cut's parent moves the highest party of block A back to block B
        children.get(mask ^ 1 << mask.bit_length() - 1, roots).append(mask)

    def walk(mask: int, y: np.ndarray, depth: int) -> None:
        """Fill the columns of mask's subtree from y: the members at a root, else the parent's kept rows."""
        tall = not children[mask]
        if depth == 1:
            stack = reshape_rows(y, cut[mask], tall=tall)
        else:
            p = mask.bit_length() - 1
            stack = _child_stack(y, cut[mask ^ 1 << p], p, tall)
        counts, kept = _node_ranks(amps, cut[mask], stack, eps, depth)
        ranks[:, columns[mask]] = counts[:, None]
        if children[mask]:
            y = kept.copy()
            del stack, kept  # freed before the subtree
            for child in children[mask]:
                walk(child, y, depth + 1)

    for mask in roots:
        walk(mask, amps, 1)
    return ranks


def schmidt_rank_table(
    amps: np.ndarray,
    cuts: Sequence[Bipartition],
    tol: float = DEFAULT_EPS,
) -> np.ndarray:
    """(k, len(cuts)) Schmidt ranks of the k rows of amps: rank = #{sigma > eps}.

    The table is the certificate behind the EXACT grade of the UEB gate
    (verify_basis): it equals the table that one batched SVD of every cut's
    (k, dim_a, dim_b) stack gives. Exact zero rows and columns of a matrix
    leave its nonzero singular values unchanged, so a member with at most
    two nonzero amplitudes a and b is counted in closed form at every cut
    at once (_sparse_ranks): its singular values are |a| and |b| when the
    two lie in different rows and different columns of the cut's reshape,
    and hypot(|a|, |b|) alone when they share a row or a column (one
    nonzero gives |a|, a zero row none). They share a row exactly when
    their party digits agree on every party of block A, so one bitmask per
    member, the parties where the digits agree, decides each cut against
    its mask and the mask's complement. The SVD that the reference table
    takes of such a matrix is off by rounding, a few ulps of |A|_F, so a
    member with a value within the margin delta (below) of eps, or with
    delta >= eps, goes to the dense route instead.

    The dense route counts every other member by the QR route over the cut
    tree, whose node A|B has parent A minus its highest party; a requested
    cut whose parent is not requested is a root ({0} for all cuts, the cut
    itself for one). Each node takes one batched Householder QR, in place,
    of its stack, block A as rows where it has children, else tall, and each
    member keeps the leading h rows of R above a tail of Frobenius norm at
    most tau = _TAU * eps. Y, the first max h rows of every R with each
    member's tail zeroed, gives the member's matrix as X Y plus that tail, X
    an isometry never formed; the child moving party p factors Y with p's
    digit moved into the rows, (max h * d_p) x (d_B / d_p), its matrix up to
    the isometry X (x) I_p, a row permutation and the tail. Dropping rows
    never raises a singular value, and by Weyl's inequality a dropped tail
    moves one by at most tau, so at depth t (roots have depth 1) the values
    lie within (t - 1) * tau of the member's. The margin delta = tau +
    _ROUNDING * D * u * |A|_F (u the unit roundoff) covers that and the QR's
    rounding, a few ulps of |A|_F, at depth 1, and depth t counts with t *
    delta: with t * delta < eps, A's values past the h-th stay below eps, so
    the count is h whenever the h-th singular value of the kept rows
    exceeds eps + t * delta.

    That value is at least sigma_min(T) of the leading h x h triangle T of
    R, since deleting columns never raises singular values, and sigma_min(T)
    is at least |det T| * ((h - 1) / |R|_F^2)^((h - 1) / 2): det T is the
    product of T's singular values, and by the AM-GM inequality the other
    h - 1 of them multiply to at most (|R|_F^2 / (h - 1))^((h - 1) / 2).
    |det T| is the product of R's first h diagonal entries, so this bound
    costs a few vector operations per stack and certifies the count h of
    almost every member of a rotated n-qubit family. A member with t * delta
    >= eps, or whose bound does not exceed eps + t * delta, is counted by
    the SVD of its own matrix at that cut: the reference count itself.

    The walk goes depth first on the calling thread and frees a node's stack
    once its Y is copied out. Every node factors a new stack, a root a copy
    of the members, since numpy's in-place QR writes through read-only views.
    """
    eps = _eps(tol)
    closed, sparse = _sparse_ranks(amps, cuts, eps)
    if not closed.any():
        return _dense_ranks(amps, cuts, eps)
    ranks = np.empty((amps.shape[0], len(cuts)), dtype=int)
    ranks[closed] = sparse
    if not closed.all():
        ranks[~closed] = _dense_ranks(amps[~closed], cuts, eps)
    return ranks


def is_product(p: PureState, cut: Bipartition, tol: float = DEFAULT_EPS) -> bool:
    """Schmidt rank 1 at the cut."""
    return schmidt(p, cut, tol).rank == 1


def is_maximally_entangled(p: PureState, cut: Bipartition, tol: float = DEFAULT_EPS) -> bool:
    """Full Schmidt rank with all coefficients equal within tolerance."""
    eps = _eps(tol)
    data = schmidt(p, cut, tol)
    k = min(cut.dim_a, cut.dim_b)
    return data.rank == k and float(data.coefficients[0] - data.coefficients[k - 1]) < eps
