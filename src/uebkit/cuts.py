"""Bipartitions of a multi-qudit space and Schmidt decompositions across them."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import PureState, QuditDims, Tolerance, _eps


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


def reshape_rows(
    amps: np.ndarray, cut: Bipartition, out: np.ndarray | None = None, tall: bool = False
) -> np.ndarray:
    """Row-batched reshape: a (k, D) amplitude array to a (k, dim_a, dim_b) stack.

    Row and column indices are lexicographic over the parties of each block,
    preserving the original party order within the block. With out, a flat
    complex buffer of k*D entries, the stack is written into out and
    returned as a view of it, so no new array is allocated. With tall, a
    cut with dim_a < dim_b gives the transposed (k, dim_b, dim_a) stack, so
    every matrix has at least as many rows as columns.
    """
    k = amps.shape[0]
    t = amps.reshape((k,) + cut.space.dims)
    rows, cols, shape = cut.block_a, cut.block_b, (k, cut.dim_a, cut.dim_b)
    if tall and cut.dim_a < cut.dim_b:
        rows, cols, shape = cols, rows, (k, cut.dim_b, cut.dim_a)
    perm = (0,) + tuple(i + 1 for i in rows + cols)
    if out is None:
        return np.ascontiguousarray(t.transpose(perm).reshape(shape))
    np.copyto(out.reshape(tuple(t.shape[i] for i in perm)), t.transpose(perm))
    return out.reshape(shape)


def reshape(p: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitudes rearranged into a dim_a x dim_b matrix for the given cut."""
    if p.space != cut.space:
        raise ValueError(f"space mismatch: {p.space} vs {cut.space}")
    return reshape_rows(p.amps[None], cut)[0]


def unreshape(matrix: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Invert reshape: matrix for a cut back to a flat amplitude vector."""
    dims = cut.space.dims
    perm = cut.block_a + cut.block_b
    t = np.asarray(matrix, dtype=np.complex128).reshape([dims[i] for i in perm])
    inverse = np.argsort(perm)
    return np.ascontiguousarray(t.transpose(inverse).reshape(-1))


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt coefficients (nonincreasing, squares summing to 1) and rank at a cut."""

    cut: Bipartition
    coefficients: np.ndarray
    rank: int


def schmidt(p: PureState, cut: Bipartition, tol: Tolerance | float | None = None) -> SchmidtData:
    """Schmidt decomposition via SVD of the cut reshape."""
    eps = _eps(tol)
    sv = np.linalg.svd(reshape(p, cut), compute_uv=False)
    sv.setflags(write=False)
    return SchmidtData(cut=cut, coefficients=sv, rank=int((sv > eps).sum()))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The QR route of schmidt_rank_table: tau = _TAU * eps bounds the dropped tail
# of R, and delta = tau + _ROUNDING * D * u * |A|_F (u the unit roundoff) is
# the margin around eps inside which no bound or slice value decides a count.
_TAU = 1e-3
_ROUNDING = 4.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

# Tables of fewer amplitudes (rows x D) run on the calling thread. On 2 cores,
# two threads lost to one on the n-qubit families with n <= 6 (k*D <= 4032)
# and drew level or won from n = 7 (k*D = 16256) up.
_THREADED_MIN_SIZE = 8192

# The column ordering of the QR route permutes this many members at a time,
# so its temporary copy stays a small slice of the stack.
_PIVOT_ROWS = 16

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


def _slice_values(slices: np.ndarray) -> np.ndarray:
    return np.linalg.svd(slices, compute_uv=False)


def _qr_ranks(amps: np.ndarray, cut: Bipartition, buffer: np.ndarray, eps: float, pivot: bool) -> np.ndarray:
    """Schmidt ranks of every row of amps at cut, equal to _svd_ranks of its stack.

    The stack is factored in place in its tall orientation (m x n, m >= n),
    with each member's columns first put in order of decreasing norm when
    pivot is set. Member i keeps the leading h_i rows of its R, those above
    a tail of Frobenius norm at most tau; T_i is their leading h_i x h_i
    triangle. Member i is counted as h_i, with no SVD, when delta_i < eps
    and the triangle bound

        |det T_i| * ((h_i - 1) / |R_i|_F^2)^((h_i - 1) / 2) <= sigma_min(T_i)

    exceeds eps + delta_i. The members it cannot decide take one slice SVD
    of their kept rows per height h, and those with a slice value within
    delta_i of eps, or with delta_i >= eps, take the SVD of their own
    matrix. schmidt_rank_table states why each count is the SVD's.
    """
    stack = reshape_rows(amps, cut, out=buffer, tall=True)
    k, n = stack.shape[0], stack.shape[2]
    if pivot:
        f = stack.view(np.float64)
        norms = np.einsum("kij,kij->kj", f, f).reshape(k, n, 2).sum(axis=2)
        order = np.argsort(-norms, axis=1)
        for lo in range(0, k, _PIVOT_ROWS):
            part = stack[lo : lo + _PIVOT_ROWS]
            cols = part.transpose(0, 2, 1)[np.arange(len(part))[:, None], order[lo : lo + _PIVOT_ROWS]]
            np.copyto(part, cols.transpose(0, 2, 1))
    _qr_in_place(stack)
    r = stack[:, :n]
    np.copyto(r, 0, where=np.tri(n, k=-1, dtype=bool))  # clear the Householder vectors
    flat = r.view(np.float64)
    tails = np.einsum("kij,kij->ki", flat, flat)[:, ::-1].cumsum(axis=1)[:, ::-1]
    tau = _TAU * eps
    heights = (tails > tau * tau).sum(axis=1)
    norm2 = tails[:, 0]
    delta = tau + _ROUNDING * cut.space.total * _UNIT_ROUNDOFF * np.sqrt(norm2)
    # the bound as d_0 * prod_{0 < j < h} (d_j * sqrt(h - 1) / |R|_F): no factor exceeds
    # sqrt(h - 1), so nothing overflows, and h = 0 (norm2 <= tau^2) takes no division
    scale = np.sqrt(np.maximum(heights - 1, 0) / np.where(heights > 0, norm2, 1.0))
    factors = np.abs(np.diagonal(r, axis1=1, axis2=2)) * scale[:, None]
    factors[:, 0] = np.abs(r[:, 0, 0])
    factors[np.arange(n) >= heights[:, None]] = 1.0
    counts = heights.copy()
    full = delta >= eps
    undecided = np.flatnonzero((factors.prod(axis=1) <= eps + delta) & ~full)
    for h in sorted(set(heights[undecided].tolist())):  # np.unique: +0.8 MB resident on first use
        rows = undecided[heights[undecided] == h]
        sv = _slice_values(r[rows, :h])
        counts[rows] = (sv > eps).sum(axis=1)
        # the n - h dropped values, all at most tau, lie outside the window since delta < eps
        full[rows] = (np.abs(sv - eps) <= delta[rows, None]).any(axis=1)
    if full.any():
        rows = np.flatnonzero(full)
        counts[rows] = _svd_ranks(reshape_rows(amps[rows], cut), eps)
    return counts


def schmidt_rank_table(
    amps: np.ndarray,
    cuts: Sequence[Bipartition],
    tol: Tolerance | float | None = None,
) -> np.ndarray:
    """(k, len(cuts)) Schmidt ranks of the k rows of amps: rank = #{sigma > eps}.

    The table is the certificate behind the EXACT grade of the UEB gate
    (verify_basis): it equals the table that one batched SVD of every cut's
    (k, dim_a, dim_b) stack gives. A cut with min(dim_a, dim_b) <= 2 takes
    that SVD. Any other cut takes the QR route (_qr_ranks): one batched
    Householder QR of the tall orientation of the stack (singular values do
    not change under transposition, nor under a permutation of the columns),
    then for each member A the trailing rows of R whose Frobenius norm is at
    most tau = _TAU * eps are dropped, leaving the member's own kept height
    h. By Weyl's inequality the dropped rows move each singular value by at
    most tau, and the rounding of the QR and of the SVDs adds a few ulps of
    |A|_F; the margin delta = tau + _ROUNDING * D * u * |A|_F (u the unit
    roundoff) covers both. With delta < eps, A's values past the h-th (at
    most tau, plus rounding) stay below eps, so the count is h whenever the
    h-th singular value of the kept rows exceeds eps + delta.

    That value is at least sigma_min(T) of the leading h x h triangle T of
    R, since deleting columns never raises singular values, and sigma_min(T)
    is at least |det T| * ((h - 1) / |R|_F^2)^((h - 1) / 2): det T is the
    product of T's singular values, and by the AM-GM inequality the other
    h - 1 of them multiply to at most (|R|_F^2 / (h - 1))^((h - 1) / 2).
    |det T| is the product of R's first h diagonal entries, so this bound
    costs a few vector operations per stack and certifies the count h of
    almost every member of a rotated n-qubit family. A member the bound
    cannot decide is counted from the singular values of its kept h x n
    rows, one slice SVD per height; a member with such a value within delta
    of eps, or with delta >= eps, is counted by the SVD of its own matrix.
    When amps holds an exact zero, each member's columns are ordered by
    decreasing norm before the QR: otherwise a zero column of a sparse
    member sits on T's diagonal, makes the bound 0 and sends the member to
    the slice SVD. The route pays when the Schmidt ranks sit well below
    min(dim_a, dim_b), as across most cuts of a multipartite family: a dense
    rank-2 16 x 16 matrix costs LAPACK's SVD about as much as a full-rank
    one, its QR about a third of that.

    The cuts are dealt round-robin to width = min(len(cuts), usable CPUs)
    shares: share w takes the cuts j with j % width == w, the calling thread
    runs share 0 and one thread runs each other share (numpy's QR and SVD
    release the GIL). A one-cut table, a one-row table and a table of fewer
    than _THREADED_MIN_SIZE amplitudes start no thread: there a second
    thread costs more than the work it would spread. Each share owns one
    flat k*D complex buffer, allocated here by the caller, copies every
    cut's transpose into it and factors that buffer (the QR in place), so
    the table costs width*k*D*16 bytes beyond the input and each share
    writes only its own columns of the result. Every factorization sees the
    same matrices as in a one-thread loop over the cuts, so the table is
    identical to that loop's. An exception raised in any share is re-raised
    here after every thread has joined.
    """
    eps = _eps(tol)
    pivot = not amps.all()
    ranks = np.empty((amps.shape[0], len(cuts)), dtype=int)
    inline = amps.shape[0] <= 1 or amps.size < _THREADED_MIN_SIZE
    width = 1 if inline else max(1, min(len(cuts), _usable_cpus()))
    buffers = [np.empty(amps.size, dtype=np.complex128) for _ in range(width)]
    errors: list[BaseException | None] = [None] * width

    def share(w: int) -> None:
        try:
            for j in range(w, len(cuts), width):
                cut = cuts[j]
                if min(cut.dim_a, cut.dim_b) <= 2:
                    ranks[:, j] = _svd_ranks(reshape_rows(amps, cut, out=buffers[w]), eps)
                else:
                    ranks[:, j] = _qr_ranks(amps, cut, buffers[w], eps, pivot)
        except BaseException as exc:
            errors[w] = exc

    threads = [threading.Thread(target=share, args=(w,)) for w in range(1, width)]
    for th in threads:
        th.start()
    share(0)
    for th in threads:
        th.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return ranks


def is_product(p: PureState, cut: Bipartition, tol: Tolerance | float | None = None) -> bool:
    """Schmidt rank 1 at the cut."""
    return schmidt(p, cut, tol).rank == 1


def is_maximally_entangled(p: PureState, cut: Bipartition, tol: Tolerance | float | None = None) -> bool:
    """Full Schmidt rank with all coefficients equal within tolerance."""
    eps = _eps(tol)
    data = schmidt(p, cut, tol)
    k = min(cut.dim_a, cut.dim_b)
    return data.rank == k and float(data.coefficients[0] - data.coefficients[k - 1]) < eps


def is_genuinely_entangled(p: PureState, tol: Tolerance | float | None = None) -> bool:
    """Entangled (Schmidt rank >= 2) across every bipartition."""
    if p.space.parties < 2:
        raise ValueError("genuine entanglement needs at least two parties")
    return all(not is_product(p, cut, tol) for cut in enumerate_cuts(p.space))
