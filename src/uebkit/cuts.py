"""Bipartitions of a multi-qudit space and Schmidt decompositions across them."""

from __future__ import annotations

import math
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


def reshape_rows(amps: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Row-batched reshape: a (k, D) amplitude array to a (k, dim_a, dim_b) stack.

    Row and column indices are lexicographic over the parties of each block,
    preserving the original party order within the block.
    """
    k = amps.shape[0]
    t = amps.reshape((k,) + cut.space.dims)
    perm = (0,) + tuple(i + 1 for i in cut.block_a + cut.block_b)
    return np.ascontiguousarray(t.transpose(perm).reshape(k, cut.dim_a, cut.dim_b))


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


def schmidt_rank_table(
    amps: np.ndarray,
    cuts: Sequence[Bipartition],
    tol: Tolerance | float | None = None,
) -> np.ndarray:
    """(k, len(cuts)) Schmidt ranks of the k rows of amps, one batched SVD per cut."""
    eps = _eps(tol)
    ranks = np.empty((amps.shape[0], len(cuts)), dtype=int)
    for j, cut in enumerate(cuts):
        sv = np.linalg.svd(reshape_rows(amps, cut), compute_uv=False)
        ranks[:, j] = (sv > eps).sum(axis=1)
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
