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
# the margin around eps inside which a member falls back to the SVD.
_TAU = 1e-3
_ROUNDING = 4.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

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


def _qr_ranks(amps: np.ndarray, cut: Bipartition, buffer: np.ndarray, eps: float) -> np.ndarray:
    """Schmidt ranks of every row of amps at cut, equal to _svd_ranks of its stack."""
    stack = reshape_rows(amps, cut, out=buffer, tall=True)
    n = stack.shape[2]
    _qr_in_place(stack)
    r = stack[:, :n]
    np.copyto(r, 0, where=np.tri(n, k=-1, dtype=bool))  # clear the Householder vectors
    flat = r.view(np.float64)
    tails = np.einsum("kij,kij->ki", flat, flat)[:, ::-1].cumsum(axis=1)[:, ::-1]
    tau = _TAU * eps
    keep = int((tails > tau * tau).sum(axis=1).max(initial=0))  # the largest kept height in the stack
    sv = np.linalg.svd(r[:, :keep], compute_uv=False)
    counts = (sv > eps).sum(axis=1)
    delta = tau + _ROUNDING * cut.space.total * _UNIT_ROUNDOFF * np.sqrt(tails[:, 0])
    # a window reaching 0 also holds the dropped values, which are all at most tau
    near = (np.abs(sv - eps) <= delta[:, None]).any(axis=1) | (delta >= eps)
    if near.any():
        rows = np.flatnonzero(near)
        counts[rows] = _svd_ranks(reshape_rows(amps[rows], cut), eps)
    return counts


def schmidt_rank_table(
    amps: np.ndarray,
    cuts: Sequence[Bipartition],
    tol: Tolerance | float | None = None,
) -> np.ndarray:
    """(k, len(cuts)) Schmidt ranks of the k rows of amps: rank = #{sigma > eps}.

    A cut with min(dim_a, dim_b) <= 2 takes one batched SVD of its (k, dim_a,
    dim_b) stack. Any other cut takes the QR route: one batched Householder
    QR of the tall orientation of the stack (singular values do not change
    under transposition), then the trailing rows of each R whose Frobenius
    norm is at most tau = _TAU * eps are dropped, and the singular values of
    the kept r x min(dim_a, dim_b) slices are counted, r being the largest
    kept height over the stack. By Weyl's inequality the dropped rows move
    each singular value by at most tau, and the rounding of the QR, the
    slice SVD and the batched SVD adds a few ulps of the matrix norm; delta
    covers both. So the count is the batched SVD's count except for a member
    with a computed value within delta of eps, and such a member is counted
    by the SVD of its own matrix, as is every member when delta >= eps. The
    table is therefore the one the batched SVD of every cut gives, and it is
    the certificate behind the EXACT grade of the UEB gate (verify_basis).
    The route pays when the Schmidt ranks sit well below min(dim_a, dim_b),
    as across most cuts of a multipartite family: a dense rank-2 16 x 16
    matrix costs LAPACK's SVD about as much as a full-rank one, its QR about
    a third of that.

    The cuts are dealt round-robin to width = min(len(cuts), usable CPUs)
    shares: share w takes the cuts j with j % width == w, the calling thread
    runs share 0 and one thread runs each other share (numpy's QR and SVD
    release the GIL). A one-cut or one-row table starts no thread: there a
    thread start costs more than the work it would spread. Each share owns
    one flat k*D complex buffer, allocated here by the caller, copies every
    cut's transpose into it and factors that buffer (the QR in place), so
    the table costs width*k*D*16 bytes beyond the input and each share
    writes only its own columns of the result. Every factorization sees the same
    matrices as in a one-thread loop over the cuts, so the table is
    identical to that loop's. An exception raised in any share is re-raised
    here after every thread has joined.
    """
    eps = _eps(tol)
    ranks = np.empty((amps.shape[0], len(cuts)), dtype=int)
    width = 1 if amps.shape[0] <= 1 else max(1, min(len(cuts), _usable_cpus()))
    buffers = [np.empty(amps.size, dtype=np.complex128) for _ in range(width)]
    errors: list[BaseException | None] = [None] * width

    def share(w: int) -> None:
        try:
            for j in range(w, len(cuts), width):
                cut = cuts[j]
                if min(cut.dim_a, cut.dim_b) <= 2:
                    ranks[:, j] = _svd_ranks(reshape_rows(amps, cut, out=buffers[w]), eps)
                else:
                    ranks[:, j] = _qr_ranks(amps, cut, buffers[w], eps)
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
