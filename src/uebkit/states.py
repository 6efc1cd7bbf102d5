"""Pure-state linear algebra for systems of qudits with explicit local dimensions.

Amplitude vectors are dense complex128 arrays ordered lexicographically by
local indices, leftmost party most significant. Values are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_EPS = 1e-9

# Norm drift below _EXACT_SLACK is accepted as-is so that serialization round
# trips are bit-exact; drift up to _NORM_SLACK is silently renormalized;
# anything larger is rejected.
_EXACT_SLACK = 1e-12
_NORM_SLACK = 1e-6


def _eps(tol: float) -> float:
    """The numerical tolerance for orthogonality, rank cutoffs and zero tests, validated."""
    eps = float(tol)
    if not 0.0 < eps < 1e-3:
        raise ValueError(f"tolerance must lie in (0, 1e-3), got {eps!r}")
    return eps


@dataclass(frozen=True)
class QuditDims:
    """An ordered list of local dimensions, each at least 2."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ValueError("need at least one party")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


def _as_amps(space: QuditDims, raw: object) -> np.ndarray:
    amps = np.asarray(raw, dtype=np.complex128).reshape(-1)
    if amps.size != space.total:
        raise ValueError(f"amplitude vector has length {amps.size}, space needs {space.total}")
    return amps


def _unit(amps: np.ndarray) -> np.ndarray:
    """The amplitude rule of every state: amps must be finite with norm within
    _NORM_SLACK of 1, and is divided by its norm past _EXACT_SLACK."""
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite numbers")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > _NORM_SLACK:
        raise ValueError(f"state norm {norm} deviates from 1 by more than {_NORM_SLACK}")
    return amps / norm if abs(norm - 1.0) > _EXACT_SLACK else amps


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """m with _unit applied to each row in place; the ValueError names the first bad row."""
    for i, row in enumerate(m):
        try:
            m[i] = _unit(row)
        except ValueError as exc:
            raise ValueError(f"state {i}: {exc}") from None
    return m


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm amplitude vector over a QuditDims space."""

    space: QuditDims
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = _unit(_as_amps(self.space, self.amps))
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def basis_state(space: QuditDims, which: int | str | Sequence[int]) -> PureState:
    """Computational basis ket, addressed by flat index, digit string or index list."""
    if isinstance(which, str):
        idx = [int(ch) for ch in which]
    elif isinstance(which, int):
        if not 0 <= which < space.total:
            raise ValueError(f"flat index {which} out of range for total dimension {space.total}")
        amps = np.zeros(space.total, dtype=np.complex128)
        amps[which] = 1.0
        return PureState(space, amps)
    else:
        idx = [int(i) for i in which]
    if len(idx) != space.parties:
        raise ValueError(f"index list {idx} does not address {space.parties} parties")
    flat = 0
    for i, d in zip(idx, space.dims):
        if not 0 <= i < d:
            raise ValueError(f"local index {i} out of range for dimension {d}")
        flat = flat * d + i
    amps = np.zeros(space.total, dtype=np.complex128)
    amps[flat] = 1.0
    return PureState(space, amps)


def state_from_combination(space: QuditDims, terms: dict[str, complex]) -> PureState:
    """Superposition built from {digit string: amplitude} terms, then normalized."""
    amps = np.zeros(space.total, dtype=np.complex128)
    for label, coeff in terms.items():
        amps += complex(coeff) * basis_state(space, label).amps
    n = np.linalg.norm(amps)
    if n == 0.0:
        raise ValueError("combination sums to the zero vector")
    return PureState(space, amps / n)


def kron_amplitudes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product kernel on raw amplitude vectors."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Composite state of two subsystems; party order is a's parties then b's."""
    space = QuditDims(a.space.dims + b.space.dims)
    return PureState(space, kron_amplitudes(a.amps, b.amps))


def inner(a: PureState, b: PureState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise ValueError(f"space mismatch: {a.space} vs {b.space}")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True, eq=False)
class StateSet:
    """A finite orthonormal collection of states on one space, and the subspace it spans.

    rows is a (k, D) array of amplitude rows or a sequence of PureStates on
    the space. It is stored once, as the read-only complex128 (k, D) array
    that matrix() returns, each row under PureState's amplitude rule. Empty
    sets are permitted so searches can report size-zero results.
    """

    space: QuditDims
    rows: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        rows = self.rows if isinstance(self.rows, np.ndarray) else tuple(self.rows)
        total = self.space.total
        if len(rows) > total:
            raise ValueError(f"{len(rows)} states cannot be orthogonal in dimension {total}")
        if isinstance(rows, tuple):
            for st in rows:
                if st.space != self.space:
                    raise ValueError(f"space mismatch: {st.space} vs {self.space}")
            rows = [st.amps for st in rows]
        m = _unit_rows(np.array(rows, dtype=np.complex128).reshape(len(rows), total))
        if len(m):
            worst = float(np.abs(np.conj(m) @ m.T - np.eye(len(m))).max())
            if worst > DEFAULT_EPS:
                raise ValueError(f"states are not pairwise orthonormal (worst deviation {worst:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "rows", m)

    @cached_property
    def states(self) -> tuple[PureState, ...]:
        """The members as PureStates, derived once from the rows."""
        return tuple(PureState(self.space, row) for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def matrix(self) -> np.ndarray:
        """The stored read-only (count, D) array, one amplitude vector per row."""
        return self.rows

    def projector(self) -> np.ndarray:
        return self.rows.T @ np.conj(self.rows)

    def vector(self, coeffs: np.ndarray) -> np.ndarray:
        """Raw amplitude vector for a coefficient vector over this set."""
        return np.asarray(coeffs, dtype=np.complex128) @ self.matrix()


# The former name of the subspace role: the benchmark builds its search inputs
# as Subspace(space, states), and its tracer looks the class up under both names.
Subspace = StateSet


def orthonormalize(
    space: QuditDims,
    vectors: Iterable[object],
    tol: float = DEFAULT_EPS,
) -> StateSet:
    """Modified Gram-Schmidt with re-orthogonalization.

    Vectors whose residual norm falls below the tolerance are dropped, so the
    output dimension equals the numerical rank of the input span.
    """
    eps = _eps(tol)
    kept: list[np.ndarray] = []
    for raw in vectors:
        v = _as_amps(space, raw).copy()
        for _ in range(2):
            for u in kept:
                v -= np.vdot(u, v) * u
        n = float(np.linalg.norm(v))
        if n >= eps:
            kept.append(v / n)
    return StateSet(space, np.array(kept).reshape(len(kept), space.total))


# orthogonal_complement builds a D x D complex128 array (16 D^2 bytes) for a
# space of dimension D. Inputs from outside, state files and generator
# parameters, are refused above this cap, 1 GiB, that is D > 8192.
MAX_COMPLEMENT_BYTES = 1 << 30


def check_complement_size(dims: Iterable[int]) -> None:
    """Raise ValueError when a space of these local dimensions is over MAX_COMPLEMENT_BYTES.

    dims may be lazy: the product stops at the first factor that crosses the
    cap, so even a huge party count is refused at once. A dimension below 2
    ends the check, and is left to the caller's own validation.
    """
    total = 1
    for d in dims:
        if d < 2:
            return
        total *= d
        if 16 * total * total > MAX_COMPLEMENT_BYTES:
            raise ValueError(f"space dimension above {math.isqrt(MAX_COMPLEMENT_BYTES // 16)} refused:"
                             f" its complement needs a D x D complex array over the"
                             f" MAX_COMPLEMENT_BYTES cap of {MAX_COMPLEMENT_BYTES} bytes (1 GiB)")


def orthogonal_complement(s: StateSet, tol: float = DEFAULT_EPS) -> StateSet:
    """Orthogonal complement within the full space."""
    eps = _eps(tol)
    d = s.space.total
    if len(s) == 0:
        return StateSet(s.space, np.eye(d))
    _, sv, vh = np.linalg.svd(np.conj(s.matrix()), full_matrices=True)
    return StateSet(s.space, np.conj(vh[int((sv > eps).sum()):]))


def canonical_phase(p: PureState, tol: float = DEFAULT_EPS) -> PureState:
    """Rotate the global phase so the first significant amplitude is real positive.

    Idempotent exactly: reapplying returns the stored amplitudes unchanged.
    """
    eps = _eps(tol)
    amps = p.amps
    idx = np.flatnonzero(np.abs(amps) > eps)
    if idx.size == 0:
        raise ValueError("cannot fix the phase of a (numerically) zero vector")
    k = int(idx[0])
    a = amps[k]
    if a.imag == 0.0 and a.real > 0.0:
        return p
    out = amps * (np.conj(a) / abs(a))
    out[k] = abs(a)
    return PureState(p.space, out)


def span_equal(a: StateSet, b: StateSet, tol: float = DEFAULT_EPS) -> bool:
    """Whether two subspaces coincide, via Frobenius distance of projectors."""
    if a.space != b.space:
        raise ValueError(f"space mismatch: {a.space} vs {b.space}")
    eps = _eps(tol)
    return bool(np.linalg.norm(a.projector() - b.projector()) < eps)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_state(space: QuditDims, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on the given space."""
    v = rng.standard_normal(space.total) + 1j * rng.standard_normal(space.total)
    return PureState(space, v / np.linalg.norm(v))


def apply_local_unitary(p: PureState, party: int, u: np.ndarray) -> PureState:
    """Apply a single-party unitary in place of the identity elsewhere."""
    dims = p.space.dims
    if not 0 <= party < len(dims):
        raise ValueError(f"party {party} out of range")
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dims[party], dims[party]):
        raise ValueError(f"operator shape {u.shape} does not match dimension {dims[party]}")
    t = p.amps.reshape(dims)
    t = np.moveaxis(np.tensordot(u, t, axes=([1], [party])), 0, party)
    return PureState(p.space, t.reshape(-1))


def apply_local_unitaries(p: PureState, us: Sequence[np.ndarray]) -> PureState:
    """Apply one unitary per party."""
    if len(us) != p.space.parties:
        raise ValueError("need exactly one operator per party")
    out = p
    for party, u in enumerate(us):
        out = apply_local_unitary(out, party, u)
    return out
