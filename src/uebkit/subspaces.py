"""Subspace analysis: exact only-product certificates, randomized entanglement
searches, basis verification and completion.

The exact route rests on one lemma: a subspace holds only product vectors at
a cut exactly when all its vectors share one A-factor or one B-factor, that
is, when the rows or the columns of its basis reshapes span at most one
dimension. Proof: if a(x)b and c(x)d lie in the subspace with a, c and b, d
both independent, their sum has Schmidt rank 2, so independent members share
a factor, say a(x)b and a(x)d; a third member e(x)f with e independent of a
would need f parallel to both b and d, so every member carries the factor a.
The same argument shows that when all basis vectors are product but the span
is not, some sum of two basis vectors is entangled. The support ranks are
singular-value counts, checked against the tolerance as in the Schmidt rank.

Randomized searches share one optimizer: projected gradient ascent on the
complex unit sphere of coefficient vectors, with backtracking line search,
per-start sub-seeds derived from (seed, stream, start index), and a fixed
reduction order, so results are reproducible and independent of evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .cuts import (
    Bipartition,
    enumerate_cuts,
    is_maximally_entangled,
    reshape,
    reshape_rows,
    schmidt,
    schmidt_rank_table,
    single_cut,
)
from .states import (
    PureState,
    StateSet,
    Subspace,
    Tolerance,
    _eps,
    canonical_phase,
    orthogonal_complement,
    orthonormalize,
)


class SubspaceStatus(Enum):
    ONLY_PRODUCT = "ONLY_PRODUCT"
    CONTAINS_ENTANGLED = "CONTAINS_ENTANGLED"
    NO_PRODUCT_FOUND = "NO_PRODUCT_FOUND"
    PRODUCT_FOUND = "PRODUCT_FOUND"
    ME_FOUND = "ME_FOUND"
    NO_ME_FOUND = "NO_ME_FOUND"


class Grade(Enum):
    EXACT = "EXACT"
    NUMERICAL_EVIDENCE = "NUMERICAL_EVIDENCE"
    RULE_BASED_CITED = "RULE_BASED_CITED"


class BasisKind(Enum):
    UEB = "UEB"
    UEB_ALL_CUTS = "UEB_ALL_CUTS"
    UMEB = "UMEB"
    COMPLETE = "COMPLETE"


class Outcome(Enum):
    VERIFIED = "VERIFIED"
    REFUTED = "REFUTED"
    COMPLETE_BASIS = "COMPLETE_BASIS"
    INCONCLUSIVE = "INCONCLUSIVE"


class ProductCount(Enum):
    ZERO_IMPOSSIBLE = "ZERO_IMPOSSIBLE"
    ONE = "ONE"
    TWO = "TWO"
    INFINITE = "INFINITE"


class SetMode(Enum):
    ENTANGLED = "ENTANGLED"
    MAX_ENTANGLED = "MAX_ENTANGLED"


class Completable(Enum):
    YES = "YES"
    NO_EXACT = "NO_EXACT"
    NO_EVIDENCE = "NO_EVIDENCE"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the randomized searches; defaults favor reliability over speed.

    tol_me is the acceptance band for maximal entanglement, looser than the
    base tolerance because the smallest singular value is reached by
    optimization rather than construction. starts = 0 disables searching so
    only exact certificates remain.
    """

    starts: int = 64
    seed: int = 0
    samples: int = 64
    max_iter: int = 500
    min_improvement: float = 1e-12
    tol_me: float = 1e-7

    def __post_init__(self) -> None:
        if self.starts < 0 or self.samples < 1:
            raise ValueError("starts must be >= 0 and samples >= 1")


@dataclass(frozen=True, eq=False)
class SubspaceVerdict:
    """Outcome of one subspace query at one cut."""

    cut: Bipartition
    status: SubspaceStatus
    grade: Grade
    witness: PureState | None = None
    score: float | None = None
    reason: str | None = None


@dataclass(frozen=True, eq=False)
class BasisVerdict:
    kind: BasisKind
    outcome: Outcome
    per_cut: tuple[SubspaceVerdict, ...]
    complement_dim: int
    offending_state: int | None = None
    grade: Grade = Grade.EXACT


@dataclass(frozen=True, eq=False)
class DeflationResult:
    """Greedy deflation output; refusal_exact marks an exact terminating refusal."""

    states: StateSet
    refusal_exact: bool
    reason: str


@dataclass(frozen=True, eq=False)
class CompletionResult:
    found: StateSet
    completable: Completable
    complement_dim: int
    reason: str


_STREAM_PRODUCT = 1
_STREAM_ME = 2
_STREAM_ENTROPY = 3
_STREAM_RANK = 4
_STREAM_GUARD = 5
_STREAM_ORACLE = 6


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _random_unit(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return v / np.linalg.norm(v)


def _reshapes(s: Subspace, cut: Bipartition) -> np.ndarray:
    """(dim, dim_a, dim_b) stack of reshaped basis vectors."""
    return reshape_rows(s.matrix(), cut)


def _entangled_probe(r_stack: np.ndarray, eps: float) -> np.ndarray | None:
    """Coefficients of the first basis vector with sigma_2 > eps, else of the
    first normalized pair sum with sigma_2 > eps; None when neither exists.

    By the lemma above, when every basis vector is product some pair sum is
    entangled unless the span is only-product, so the pair scan runs to the
    end only on only-product spans.
    """
    k, da, db = r_stack.shape
    if da < 2 or db < 2:
        return None
    c = np.zeros(k, dtype=np.complex128)
    hit = np.flatnonzero(np.linalg.svd(r_stack, compute_uv=False)[:, 1] > eps)
    if hit.size:
        c[hit[0]] = 1.0
        return c
    for i in range(k - 1):
        sums = (r_stack[i] + r_stack[i + 1:]) / math.sqrt(2.0)
        hit = np.flatnonzero(np.linalg.svd(sums, compute_uv=False)[:, 1] > eps)
        if hit.size:
            c[i] = c[i + 1 + hit[0]] = 1.0 / math.sqrt(2.0)
            return c
    return None


def only_product_across_cut(s: Subspace, cut: Bipartition, tol: Tolerance | float | None = None) -> bool:
    """Exact decision: does the subspace contain only product vectors at the cut?

    By the lemma above this is a Schmidt-rank bound of at most 1.
    """
    return schmidt_rank_upper_bound(s, cut, tol) <= 1


def schmidt_rank_upper_bound(s: Subspace, cut: Bipartition, tol: Tolerance | float | None = None) -> int:
    """Exact upper bound on the Schmidt rank attainable inside the subspace.

    Rows of every M(c) live in the span of all basis-reshape rows, columns in
    the span of all columns, so the rank is capped by both support dimensions.
    """
    if s.dim == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    r = _reshapes(s, cut)
    rows = r.reshape(-1, r.shape[2])
    cols = r.transpose(0, 2, 1).reshape(-1, r.shape[1])
    r_rows = int((np.linalg.svd(rows, compute_uv=False) > eps).sum())
    r_cols = int((np.linalg.svd(cols, compute_uv=False) > eps).sum())
    return min(r_rows, r_cols)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def _sphere_ascent(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    c0: np.ndarray,
    max_iter: int,
    min_improvement: float,
) -> tuple[np.ndarray, float]:
    """Projected gradient ascent with backtracking on the complex unit sphere.

    fun returns (value, ascent direction); the direction is projected onto the
    sphere's tangent space before stepping, and each accepted step must clear
    an Armijo-style improvement.
    """
    c = np.asarray(c0, dtype=np.complex128)
    c = c / _norm(c)
    f, g = fun(c)
    step = 1.0
    for _ in range(max_iter):
        d = g - np.vdot(c, g) * c
        dn = _norm(d)
        if dn < 1e-15:
            break
        eta = step
        accepted = False
        for _ in range(50):
            trial = c + eta * d
            trial /= _norm(trial)
            ft, gt = fun(trial)
            if ft > f + 1e-4 * eta * dn * dn:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        gain = ft - f
        c, f, g = trial, ft, gt
        step = min(eta * 2.0, 1.0)
        if gain < min_improvement:
            break
    return c, f


def _impurity(r_stack: np.ndarray, c: np.ndarray) -> float:
    """Sum of squared 2x2 minors of M(c), summed term by term.

    The trace identity (tr H)^2 - ||H||^2 is cheaper but cancels catastrophically
    once the sum drops toward machine epsilon, and the accept gate compares
    against tol^2 = 1e-18; the direct sum keeps absolute error near f * 1e-16.
    """
    m = np.tensordot(c, r_stack, axes=1)
    rows, cols = m.shape
    total = 0.0
    iu = np.triu_indices(cols, 1)
    for i in range(rows - 1):
        for j in range(i + 1, rows):
            cross = np.outer(m[i], m[j]) - np.outer(m[j], m[i])
            total += float((np.abs(cross[iu]) ** 2).sum())
    return total


def _impurity_vag(r_stack: np.ndarray) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    rc = r_stack.conj()

    def vag(c: np.ndarray) -> tuple[float, np.ndarray]:
        m = np.tensordot(c, r_stack, axes=1)
        h = m @ m.conj().T
        trh = float(np.trace(h).real)
        f = (trh * trh - float((np.abs(h) ** 2).sum())) / 2.0
        grad = np.einsum("kab,ab->k", rc, trh * m - h @ m)
        return -f, -grad  # descent phrased as ascent

    return vag


def _sigma_vag(r_stack: np.ndarray, index: int) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Value/direction for ascending the singular value of M(c) at the given index."""

    k, da, db = r_stack.shape
    flat = r_stack.reshape(k, da * db)
    flat_c = flat.conj()

    def vag(c: np.ndarray) -> tuple[float, np.ndarray]:
        u_mat, sv, vh = np.linalg.svd((c @ flat).reshape(da, db), full_matrices=False)
        # d sigma_j / d conj(c_k) direction: conj(u_j^H R_k v_j) = <R_k, u_j v_j^H>
        return float(sv[index]), flat_c @ np.outer(u_mat[:, index], vh[index]).ravel()

    return vag


def _entropy_vag(r_stack: np.ndarray) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    k, da, db = r_stack.shape
    flat = r_stack.reshape(k, da * db)
    flat_c = flat.conj()

    def vag(c: np.ndarray) -> tuple[float, np.ndarray]:
        u_mat, sv, vh = np.linalg.svd((c @ flat).reshape(da, db), full_matrices=False)
        s2 = np.maximum(sv * sv, 1e-300)
        log_s2 = np.log(s2)
        val = float(-(s2 * log_s2).sum())
        w = -2.0 * sv * (log_s2 + 1.0)
        # sum_j w_j conj(u_j^H R_k v_j) = <R_k, U diag(w) V^H>
        return val, flat_c @ ((u_mat * w) @ vh).ravel()

    return vag


def _second_singular(r_stack: np.ndarray, c: np.ndarray) -> float:
    sv = np.linalg.svd(np.tensordot(c, r_stack, axes=1), compute_uv=False)
    return float(sv[1]) if sv.size > 1 else 0.0


def _coeff_state(s: Subspace, c: np.ndarray, tol) -> PureState:
    return canonical_phase(PureState(s.space, s.vector(c)), tol)


def find_product_state(
    s: Subspace,
    cut: Bipartition,
    cfg: SearchConfig | None = None,
    tol: Tolerance | float | None = None,
) -> SubspaceVerdict:
    """Multi-start descent of the summed squared minors; never an exact refusal.

    PRODUCT_FOUND requires the best objective to undercut tol^2, and the
    witness is polished by alternating rank-1 truncation with projection back
    into the subspace.
    """
    if s.dim == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    cfg = cfg or SearchConfig()
    if cfg.starts == 0:
        return SubspaceVerdict(cut, SubspaceStatus.NO_PRODUCT_FOUND, Grade.NUMERICAL_EVIDENCE,
                               score=None, reason="search disabled (0 starts)")
    r_stack = _reshapes(s, cut)
    vag = _impurity_vag(r_stack)
    best_c: np.ndarray | None = None
    best_f = math.inf
    for idx in range(cfg.starts):
        c0 = _random_unit(_rng(cfg.seed, _STREAM_PRODUCT, idx), s.dim)
        c, neg = _sphere_ascent(vag, c0, cfg.max_iter, cfg.min_improvement)
        f = -neg
        if f < best_f:
            best_c, best_f = c, f
    assert best_c is not None
    # the ascent objective is only trusted for ranking starts; re-measure the leader
    best_f = _impurity(r_stack, best_c)
    # alternating rank-1 truncation / projection polish
    c = best_c
    for _ in range(100):
        m = np.tensordot(c, r_stack, axes=1)
        u_mat, _, vh = np.linalg.svd(m, full_matrices=False)
        x = np.outer(u_mat[:, 0], vh[0])
        c_next = np.einsum("kab,ab->k", r_stack.conj(), x)
        n = float(np.linalg.norm(c_next))
        if n < 1e-14:
            break
        c_next /= n
        f_next = _impurity(r_stack, c_next)
        if f_next < best_f:
            best_c, best_f = c_next, f_next
        if f_next > best_f or f_next < 1e-30:
            break
        c = c_next
    if best_f < eps * eps:
        witness = _coeff_state(s, best_c, tol)
        return SubspaceVerdict(cut, SubspaceStatus.PRODUCT_FOUND, Grade.EXACT,
                               witness=witness, score=best_f)
    return SubspaceVerdict(cut, SubspaceStatus.NO_PRODUCT_FOUND, Grade.NUMERICAL_EVIDENCE, score=best_f)


def _lattice_snap(s: Subspace, cut: Bipartition, amps: np.ndarray) -> PureState | None:
    """Replace a converged witness by a nearby exact lattice vector, if one verifies.

    The smallest singular value is flat to second order around a maximally
    entangled vector, so a search witness can stall around sqrt(machine eps)
    off the true ray in directions tangent to the manifold. When the ray has
    amplitudes z/sqrt(N) for small complex integers z, rounding recovers it
    exactly. The snapped vector is kept only when it stays near the witness,
    lies in the subspace, and verifies as maximally entangled at 1e-12; on
    any miss the caller keeps the numerical witness.
    """
    k = int(np.argmax(np.abs(amps)))
    pivot = amps[k]
    if abs(pivot) < 1e-9:
        return None
    aligned = amps * (abs(pivot) / pivot)
    basis = s.matrix()
    strict = Tolerance(1e-12)
    for n in range(1, 65):
        z = np.round(aligned * math.sqrt(n))
        total = float(np.sum(np.abs(z) ** 2))
        if total < 0.5:
            continue
        cand = z / math.sqrt(total)
        if float(np.linalg.norm(cand - aligned)) > 1e-4:
            continue
        inside = (basis.conj() @ cand) @ basis
        if float(np.linalg.norm(cand - inside)) > 1e-12:
            continue
        state = PureState(s.space, cand)
        if is_maximally_entangled(state, cut, strict):
            return state
    return None


def find_maximally_entangled(
    s: Subspace,
    cut: Bipartition,
    cfg: SearchConfig | None = None,
    tol: Tolerance | float | None = None,
) -> SubspaceVerdict:
    """Search for a maximally entangled vector by ascending the smallest singular value.

    Exact refusals come first: an only-product subspace cannot contain one,
    and neither can a subspace whose Schmidt rank is capped below min(dA,dB).
    Acceptance uses cfg.tol_me on lambda_min; the witness is polished by
    alternating polar projection, and the claim is graded EXACT only when the
    witness itself verifies at the base tolerance.
    """
    if s.dim == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    cfg = cfg or SearchConfig()
    dmin = min(cut.dim_a, cut.dim_b)
    target = 1.0 / math.sqrt(dmin)
    bound = schmidt_rank_upper_bound(s, cut, tol)
    if bound <= 1:
        return SubspaceVerdict(cut, SubspaceStatus.NO_ME_FOUND, Grade.EXACT, score=0.0,
                               reason="only-product subspace")
    if bound < dmin:
        return SubspaceVerdict(cut, SubspaceStatus.NO_ME_FOUND, Grade.EXACT, score=None,
                               reason=f"schmidt rank capped at {bound} < {dmin}")
    if cfg.starts == 0:
        return SubspaceVerdict(cut, SubspaceStatus.NO_ME_FOUND, Grade.NUMERICAL_EVIDENCE, score=None,
                               reason="search disabled (0 starts)")
    r_stack = _reshapes(s, cut)
    vag = _sigma_vag(r_stack, dmin - 1)
    best_c: np.ndarray | None = None
    best_v = -math.inf
    for idx in range(cfg.starts):
        c0 = _random_unit(_rng(cfg.seed, _STREAM_ME, idx), s.dim)
        c, v = _sphere_ascent(vag, c0, cfg.max_iter, cfg.min_improvement)
        if v > best_v:
            best_c, best_v = c, v
    assert best_c is not None
    # Polar polish: snap to the nearest maximally entangled matrix, project
    # back, repeat. The smallest singular value is flat to second order at
    # its maximizer, so the loop runs on coefficient movement, not value;
    # otherwise the witness direction stalls around sqrt(value error).
    last = best_c
    for _ in range(500):
        m = np.tensordot(last, r_stack, axes=1)
        u_mat, _, vh = np.linalg.svd(m, full_matrices=False)
        x = (u_mat @ vh) / math.sqrt(dmin)
        nxt = np.einsum("kab,ab->k", r_stack.conj(), x)
        n = float(np.linalg.norm(nxt))
        if n < 1e-14:
            break
        nxt /= n
        ph = np.vdot(last, nxt)
        if abs(ph) > 0.0:
            nxt = nxt * (ph.conjugate() / abs(ph))  # align phase so movement is measurable
        delta = float(np.linalg.norm(nxt - last))
        last = nxt
        if delta < 1e-14:
            break
    v_last = float(np.linalg.svd(np.tensordot(last, r_stack, axes=1), compute_uv=False)[dmin - 1])
    if v_last >= best_v - 1e-10:  # a value tie goes to the fixed point; its direction is sharper
        best_c, best_v = last, v_last
    if best_v >= target - cfg.tol_me:
        witness = _coeff_state(s, best_c, tol)
        snapped = _lattice_snap(s, cut, witness.amps)
        if snapped is not None:
            witness = canonical_phase(snapped, tol)
            best_v = float(np.linalg.svd(reshape(witness, cut), compute_uv=False)[dmin - 1])
        grade = Grade.EXACT if is_maximally_entangled(witness, cut, tol) else Grade.NUMERICAL_EVIDENCE
        return SubspaceVerdict(cut, SubspaceStatus.ME_FOUND, grade, witness=witness, score=best_v)
    return SubspaceVerdict(cut, SubspaceStatus.NO_ME_FOUND, Grade.NUMERICAL_EVIDENCE, score=best_v)


def max_schmidt_rank_in_subspace(
    s: Subspace,
    cut: Bipartition,
    cfg: SearchConfig | None = None,
    tol: Tolerance | float | None = None,
) -> int:
    """Largest Schmidt rank seen over sampled vectors, refined by ascent.

    The sampled value is a lower bound reported as numerical evidence; it is
    additionally capped by the exact support bound, and refinement tries to
    lift the next singular value above the rank cutoff.
    """
    if s.dim == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    cfg = cfg or SearchConfig()
    upper = schmidt_rank_upper_bound(s, cut, tol)
    r_stack = _reshapes(s, cut)
    best = 0
    best_c: np.ndarray | None = None
    for idx in range(cfg.samples):
        c = _random_unit(_rng(cfg.seed, _STREAM_RANK, idx), s.dim)
        sv = np.linalg.svd(np.tensordot(c, r_stack, axes=1), compute_uv=False)
        rank = int((sv > eps).sum())
        if rank > best:
            best, best_c = rank, c
        if best == upper:
            return best
    while best < upper and best_c is not None:
        c, val = _sphere_ascent(_sigma_vag(r_stack, best), best_c, cfg.max_iter, cfg.min_improvement)
        if val > eps:
            best += 1
            best_c = c
        else:
            break
    return best


def entangled_vector_search(
    s: Subspace,
    cut: Bipartition,
    cfg: SearchConfig | None = None,
    tol: Tolerance | float | None = None,
) -> PureState | None:
    """Seeded search for any Schmidt-rank >= 2 vector; None when nothing clears tol.

    The basis and pair-sum probe is tried first (it also supplies the exact
    test's refutation witnesses), then entropy ascent from random starts with
    early exit, which never consults the probe or the exact test.
    """
    if s.dim == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    cfg = cfg or SearchConfig()
    r_stack = _reshapes(s, cut)
    probe = _entangled_probe(r_stack, eps)
    if probe is not None:
        return _coeff_state(s, probe, tol)
    vag = _entropy_vag(r_stack)
    for idx in range(cfg.starts):
        c0 = _random_unit(_rng(cfg.seed, _STREAM_ORACLE, idx), s.dim)
        if _second_singular(r_stack, c0) > eps:
            return _coeff_state(s, c0, tol)
        c, _ = _sphere_ascent(vag, c0, cfg.max_iter, cfg.min_improvement)
        if _second_singular(r_stack, c) > eps:
            return _coeff_state(s, c, tol)
    return None


def _entropy_best(
    s: Subspace,
    cut: Bipartition,
    cfg: SearchConfig,
    eps: float,
) -> np.ndarray | None:
    """Best entanglement-entropy local optimum with Schmidt rank >= 2."""
    r_stack = _reshapes(s, cut)
    vag = _entropy_vag(r_stack)
    best_c: np.ndarray | None = None
    best_val = -math.inf
    for idx in range(cfg.starts):
        c0 = _random_unit(_rng(cfg.seed, _STREAM_ENTROPY, idx), s.dim)
        c, val = _sphere_ascent(vag, c0, cfg.max_iter, cfg.min_improvement)
        if val > best_val and _second_singular(r_stack, c) > eps:
            best_c, best_val = c, val
    return best_c


def _deflate(s: Subspace, amps: np.ndarray, eps: float) -> Subspace:
    """Orthogonal complement of one vector within the subspace."""
    residue = [b.amps - np.vdot(amps, b.amps) * amps for b in s.basis]
    return orthonormalize(s.space, residue, eps)


def max_orthogonal_set(
    s: Subspace,
    cut: Bipartition,
    mode: SetMode,
    cfg: SearchConfig | None = None,
    tol: Tolerance | float | None = None,
) -> DeflationResult:
    """Greedy deflation: pick a vector of the requested kind, restrict to its
    orthocomplement, repeat. The result size is a lower bound in general;
    refusal_exact records whether the terminating refusal was exact.

    In ENTANGLED mode the entropy-best candidate gets a one-step lookahead:
    if removing it would strand a nonzero only-product remainder, seeded
    random entangled candidates are tried first, because a single dominant
    vector can otherwise absorb all entangled directions at once.
    """
    if s.dim == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    cfg = cfg or SearchConfig()
    guard = np.random.default_rng([cfg.seed, _STREAM_GUARD])
    current = s
    found: list[PureState] = []
    refusal_exact = False
    reason = "subspace exhausted"
    while current.dim >= 1:
        if mode is SetMode.MAX_ENTANGLED:
            v = find_maximally_entangled(current, cut, cfg, tol)
            if v.status is SubspaceStatus.ME_FOUND and v.grade is Grade.EXACT:
                assert v.witness is not None
                cand = v.witness.amps
            else:
                refusal_exact = v.status is SubspaceStatus.NO_ME_FOUND and v.grade is Grade.EXACT
                reason = v.reason or "no maximally entangled vector found"
                break
        else:
            if only_product_across_cut(current, cut, tol):
                refusal_exact = True
                reason = "remaining subspace holds only product vectors"
                break
            c = _entropy_best(current, cut, cfg, eps)
            if c is None:
                reason = "entropy search found no entangled vector"
                break
            cand = current.vector(c)
            rem = _deflate(current, cand, eps)
            if rem.dim >= 1 and only_product_across_cut(rem, cut, tol):
                r_stack = _reshapes(current, cut)
                for _ in range(64):
                    rc = guard.standard_normal(current.dim) + 1j * guard.standard_normal(current.dim)
                    rc /= np.linalg.norm(rc)
                    if _second_singular(r_stack, rc) <= eps:
                        continue
                    alt = current.vector(rc)
                    rem2 = _deflate(current, alt, eps)
                    if rem2.dim == 0 or not only_product_across_cut(rem2, cut, tol):
                        cand = alt
                        break
        st = canonical_phase(PureState(s.space, cand), tol)
        found.append(st)
        current = _deflate(current, st.amps, eps)
    return DeflationResult(StateSet(s.space, tuple(found)), refusal_exact, reason)


def count_product_states_2d_2x2(
    s: Subspace,
    tol_disc: float = 1e-9,
    tol: Tolerance | float | None = None,
) -> ProductCount:
    """Count product rays in a 2-dimensional subspace of a 2x2 space.

    det(a*M1 + b*M2) is a binary quadratic; identically zero means every ray
    is product, a vanishing discriminant (after scaling coefficients to unit
    max modulus) means a double root, anything else two distinct roots. Zero
    is impossible for this shape, so that value is never returned.
    """
    if s.space.dims != (2, 2):
        raise ValueError(f"space must be 2x2, got {s.space}")
    if s.dim != 2:
        raise ValueError(f"subspace must be 2-dimensional, got dim {s.dim}")
    eps = _eps(tol)
    cut = single_cut(s.space)
    m1, m2 = (reshape(b, cut) for b in s.basis)
    alpha = complex(np.linalg.det(m1))
    gamma = complex(np.linalg.det(m2))
    beta = complex(np.linalg.det(m1 + m2)) - alpha - gamma
    coeffs = np.array([alpha, beta, gamma])
    peak = float(np.abs(coeffs).max())
    if peak < eps:
        return ProductCount.INFINITE
    coeffs = coeffs / peak
    disc = coeffs[1] ** 2 - 4.0 * coeffs[0] * coeffs[2]
    return ProductCount.ONE if abs(disc) < tol_disc else ProductCount.TWO


def verify_basis(
    st: StateSet,
    kind: BasisKind,
    cfg: SearchConfig | None = None,
    tol: Tolerance | float | None = None,
    cut: Bipartition | None = None,
) -> BasisVerdict:
    """Check an unextendibility claim for an orthogonal set of states.

    Order of business: every member must meet the kind's entanglement
    requirement (REFUTED with the offending index otherwise); a complement of
    dimension zero short-circuits to COMPLETE_BASIS; then the complement is
    analyzed per cut. UEB kinds are decided exactly either way. UMEB verdicts
    are exact when an exact refusal route fires or the found witness verifies;
    otherwise the search's evidence is graded numerical, and INCONCLUSIVE is
    returned when no usable evidence exists at all. Kind COMPLETE is the
    cut-free spanning check: COMPLETE_BASIS when the orthonormal set fills the
    whole space, REFUTED otherwise, always exact.
    """
    if len(st) == 0:
        raise ValueError("empty state set")
    eps = _eps(tol)
    cfg = cfg or SearchConfig()
    space = st.space
    if kind is BasisKind.COMPLETE:
        comp = orthogonal_complement(st.subspace(), tol)
        outcome = Outcome.COMPLETE_BASIS if comp.dim == 0 else Outcome.REFUTED
        return BasisVerdict(kind, outcome, (), comp.dim)
    if kind in (BasisKind.UEB, BasisKind.UMEB):
        cuts = [cut if cut is not None else single_cut(space)]
    else:
        cuts = enumerate_cuts(space)
    comp = orthogonal_complement(st.subspace(), tol)
    if kind is BasisKind.UMEB:
        weak = [i for i, psi in enumerate(st.states) if not is_maximally_entangled(psi, cuts[0], tol)]
    else:
        weak = np.flatnonzero(schmidt_rank_table(st.matrix(), cuts, tol).min(axis=1) < 2).tolist()
    if weak:
        return BasisVerdict(kind, Outcome.REFUTED, (), comp.dim, offending_state=weak[0])
    if comp.dim == 0:
        return BasisVerdict(kind, Outcome.COMPLETE_BASIS, (), 0)
    if kind is BasisKind.UMEB:
        v = find_maximally_entangled(comp, cuts[0], cfg, tol)
        if v.status is SubspaceStatus.ME_FOUND:
            if v.grade is Grade.EXACT:
                return BasisVerdict(kind, Outcome.REFUTED, (v,), comp.dim)
            return BasisVerdict(kind, Outcome.INCONCLUSIVE, (v,), comp.dim, grade=Grade.NUMERICAL_EVIDENCE)
        if v.grade is Grade.EXACT:
            return BasisVerdict(kind, Outcome.VERIFIED, (v,), comp.dim)
        if v.score is None:
            return BasisVerdict(kind, Outcome.INCONCLUSIVE, (v,), comp.dim, grade=Grade.NUMERICAL_EVIDENCE)
        return BasisVerdict(kind, Outcome.VERIFIED, (v,), comp.dim, grade=Grade.NUMERICAL_EVIDENCE)
    per_cut: list[SubspaceVerdict] = []
    all_only = True
    for c in cuts:
        if only_product_across_cut(comp, c, tol):
            per_cut.append(SubspaceVerdict(c, SubspaceStatus.ONLY_PRODUCT, Grade.EXACT))
            continue
        all_only = False
        probe = _entangled_probe(_reshapes(comp, c), eps)
        witness = None if probe is None else _coeff_state(comp, probe, tol)
        if witness is not None and schmidt(witness, c, tol).rank < 2:
            witness = None  # borderline probe: keep the refutation, drop the witness
        per_cut.append(SubspaceVerdict(c, SubspaceStatus.CONTAINS_ENTANGLED, Grade.EXACT, witness=witness))
    outcome = Outcome.VERIFIED if all_only else Outcome.REFUTED
    return BasisVerdict(kind, outcome, tuple(per_cut), comp.dim)


def completion_search(
    st: StateSet,
    mode: SetMode,
    cfg: SearchConfig | None = None,
    tol: Tolerance | float | None = None,
    cut: Bipartition | None = None,
) -> CompletionResult:
    """Try to extend the set to a full orthogonal basis of the requested kind.

    completable is YES only when the greedy set fills the whole complement;
    otherwise refusal exactness decides between NO_EXACT and NO_EVIDENCE.
    """
    comp = orthogonal_complement(st.subspace(), tol)
    if comp.dim == 0:
        raise ValueError("input set already spans the space")
    if cut is None:
        cut = single_cut(st.space)
    res = max_orthogonal_set(comp, cut, mode, cfg, tol)
    if len(res.states) == comp.dim:
        completable = Completable.YES
    elif res.refusal_exact:
        completable = Completable.NO_EXACT
    else:
        completable = Completable.NO_EVIDENCE
    return CompletionResult(res.states, completable, comp.dim, res.reason)
