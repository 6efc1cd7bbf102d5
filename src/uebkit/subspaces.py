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
Schmidt ranks of the basis's purification (support_ranks), counted against
the tolerance by the same table as the members' ranks. Where they exceed 1,
one witness probe (_entangled_probe) serves every such cut: it tables the
basis vectors, then the pair sums, at all cuts still without a witness.

Randomized searches share two batched drivers. The first is projected
gradient ascent on the complex unit sphere of coefficient vectors, with
backtracking line search; a row stops once an accepted step gains less than
_STALL of its remaining gap to the objective's known peak on the sphere.
The second is Gauss-Newton on a residual that vanishes exactly at a wanted
vector, with minimum-norm steps. Both step all starts of a search
together as one stack, but rows never interact: each keeps its own step
size and stopping state, so a start follows the same trajectory alone or
stacked. Start i is the i-th block of draws from one generator seeded with
(seed, stream), so it does not depend on how many are drawn, and results are
reduced in a fixed order (the lowest start index wins ties), so they are
reproducible and independent of batching.

Both witness searches run one two-round driver, _two_rounds. Every start
first takes _SHORT_STEPS first-order steps on the linear entropy
e2 = ((tr h)^2 - ||h||^2) / 2, h = M M^H, the summed squared 2x2 minors of
M: descending it toward product vectors, where it is 0, or ascending it
toward maximally entangled ones, where it peaks on the unit sphere at
(1 - 1/d)/2 (tr h = 1, and h = I/d there). A row whose accepted step
closes less than _STALL of its gap to that value is taken to be parked at
a lower local optimum and stops, rather than crawling to the step cap.
Gauss-Newton then polishes the endpoints, on M(c) = a b^T over (c, a, b)
or on M M^H = I/d over c; it converges quadratically where the span meets
the wanted set transversally, also where first-order steps crawl. The lowest-index
polished endpoint that verifies at the base tolerance is the witness; the
first _FIRST_POLISH endpoints are polished and tested before the rest, which
are polished only when none of them verifies. Only when no endpoint
verifies do the same starts continue, to _MAX_ITER steps for a product
vector or _SMOOTH_STEPS for a maximally entangled one, and the endpoints
are polished again. That also covers a maximally entangled vector
that meets a product block tangentially (dM M^H = 0 along the block, as in
the Prop. 2a complement span{|phi+>} + {|x>|2>}): the entropy is flat to
fourth order there, yet once polished some endpoints verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .cuts import (
    Bipartition,
    _margin,
    enumerate_cuts,
    is_maximally_entangled,
    is_product,
    reshape,
    reshape_rows,
    schmidt,
    schmidt_rank_table,
    single_cut,
)
from .states import (
    DEFAULT_EPS,
    PureState,
    QuditDims,
    StateSet,
    _EXACT_SLACK,
    _eps,
    canonical_phase,
    haar_unitary,
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
    """Settings of the randomized searches: how many starts, and the seed
    they are drawn from.

    starts = 0 disables searching so only exact certificates remain. Step
    caps and the maximal entanglement band are module constants.
    """

    starts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 0:
            raise ValueError("starts must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    """Verdict of verify_basis.

    complement is the orthogonal complement of the set, and rank_table holds
    the (k, n_cuts) Schmidt ranks of the members over enumerate_cuts(space)
    when the UEB gate computed them for every cut (kind UEB_ALL_CUTS, or UEB
    on two parties), else None; reports reuse both.
    """

    kind: BasisKind
    outcome: Outcome
    per_cut: tuple[SubspaceVerdict, ...]
    complement: StateSet
    offending_state: int | None = None
    grade: Grade = Grade.EXACT
    rank_table: np.ndarray | None = None

    @property
    def complement_dim(self) -> int:
        return len(self.complement)


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Answer of completion_search: the orthonormal states of the requested
    kind found inside complement, the complement of the set to extend,
    whether they complete it, and why the search ended."""

    found: StateSet
    completable: Completable
    complement: StateSet
    reason: str

    @property
    def complement_dim(self) -> int:
        return len(self.complement)


_STREAM_PRODUCT = 1
_STREAM_ME = 2
_STREAM_ROTATION = 3
_STREAM_RANK = 4
# Haar draws tried before ENTANGLED completion gives up; each draw misses
# only when some rotated vector has sigma_2 <= eps.
_ROTATION_DRAWS = 4
# Linear-entropy steps every start of both searches takes before the first polish.
_SHORT_STEPS = 30
# Linear-entropy steps every start of the maximally entangled search takes
# before its second polish, when no endpoint of the first verified.
_SMOOTH_STEPS = 200
# Step cap of the product search's second round.
_MAX_ITER = 500
# Gain below which an accepted ascent step stops its row, whatever its gap to the peak.
_MIN_IMPROVEMENT = 1e-12
# Fraction of its remaining gap to a known peak that an accepted step must
# gain, else its row stops: a row still closing the gap geometrically runs
# on, one parked at a lower local optimum stops instead of crawling to the cap.
_STALL = 1e-2
# Coefficient vectors max_schmidt_rank_in_subspace samples.
_SAMPLES = 64
# Acceptance band for maximal entanglement: every Schmidt coefficient must lie
# within it of 1/sqrt(d). It is looser than the base tolerance because the
# coefficients are reached by optimization rather than construction.
_TOL_ME = 1e-7
# Cap on the Gauss-Newton steps of one row: quadratic convergence takes a few
# where the solution set is met transversally.
_NEWTON_STEPS = 20
# Endpoints polished before the others, which are polished only when none of these verifies.
_FIRST_POLISH = 8
_OUTSIDE_BAND = "witness near maximal entanglement but outside the tol_me band"
_NO_WITNESS = "support ranks exceed 1, but no vector with sigma_2 > eps was found"
# Discriminant modulus below which count_product_states_2d_2x2 reports a double root.
_TOL_DISC = 1e-9


def _random_starts(seed: int, stream: int, count: int, k: int) -> np.ndarray:
    """(count, k) stack of unit starts: row i is the i-th block of 2k normal
    draws from one generator seeded with (seed, stream), whatever the count."""
    z = np.random.default_rng([seed, stream]).standard_normal((count, 2, k))
    v = z[:, 0] + 1j * z[:, 1]
    return v / _norms(v)[:, None]


def _reshapes(s: StateSet, cut: Bipartition) -> np.ndarray:
    """(dim, dim_a, dim_b) stack of reshaped basis vectors."""
    return reshape_rows(s.matrix(), cut)


def _entangled_probe(s: StateSet, cuts: Sequence[Bipartition], tol: float) -> list[PureState | None]:
    """Per cut, the phase-fixed first basis vector with Schmidt rank >= 2 at
    that cut, else the first normalized pair sum (b_i + b_j) / sqrt(2),
    i < j in lexicographic order, with rank >= 2 there; None when neither
    exists. With no cut it takes no table.

    The basis is tabled once at every cut, then the pair sums of each i at
    the cuts still open, so every cut gets the vector a scan of that cut
    alone gives. By the lemma above, when every basis vector is product
    some pair sum is entangled unless the span is only-product, so a cut
    stays open to the end only where the span is within tolerance of
    only-product.
    """
    m, eye, root2 = s.matrix(), np.eye(len(s), dtype=np.complex128), math.sqrt(2.0)
    pairs = (((m[i] + m[i + 1:]) / root2, (eye[i] + eye[i + 1:]) / root2) for i in range(len(s) - 1))
    picked: list[np.ndarray | None] = [None] * len(cuts)
    for rows, coeffs in chain([(m, eye)], pairs):
        todo = [j for j, c in enumerate(picked) if c is None]
        if not todo:
            break
        hit = schmidt_rank_table(rows, [cuts[j] for j in todo], tol) >= 2
        for j, col in zip(todo, hit.T):
            if col.any():
                picked[j] = coeffs[col.argmax()]
    return [None if c is None else _coeff_state(s, c, tol) for c in picked]


def support_ranks(s: StateSet, cuts: Sequence[Bipartition], tol: float = DEFAULT_EPS) -> np.ndarray:
    """Support ranks of the subspace at each cut: the smaller of the counts of
    singular values above eps of its k basis reshapes stacked by rows
    (k dA x dB) and by columns (k dB x dA). Every M(c) has its rows and
    columns in those spans, so this caps the Schmidt rank in the subspace, and
    by the lemma above it is at most 1 exactly when the subspace is only-product.

    Both stacks are reshapes of the purification Psi = sum_i |i>_R (x) b_i,
    with a new first party R of dimension k, at the cuts R+A | B and R+B | A,
    so one single-member schmidt_rank_table call counts every cut, under the
    certificate of the member ranks. A ray is its own Psi (QuditDims has no
    party of dimension 1).

    First a dimension lemma settles a cut at min(dA, dB) = r + 1, with no
    count. For the row stack X, X^H X = tr_A P^T <= dA lam I, P the span's
    projector and lam = 1 + k DEFAULT_EPS a bound on the Gram matrix that
    StateSet checks, and |X|_F^2 >= k (1 - _EXACT_SLACK)^2, the bound on
    member norms. At most r counted values, each within the table's rounding
    margin delta of the exact one, give |X|_F^2 <= r dA lam + (dB - r)
    (eps + delta)^2. So when k (1 - _EXACT_SLACK)^2 exceeds this bound and
    its mirror with dA and dB swapped, both counts exceed r. For
    min(dA, dB) = 2 this settles the cut as not only-product; the eps^2 term
    stays, since the tolerance is the caller's.
    """
    if len(s) == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    k, m = len(s), s.matrix()
    da = np.array([c.dim_a for c in cuts], dtype=int)
    db = np.array([c.dim_b for c in cuts], dtype=int)
    ranks = np.minimum(da, db)
    r = ranks - 1
    lam = 1.0 + k * DEFAULT_EPS
    slack = (eps + _margin(eps, k * s.space.total, math.sqrt(k))) ** 2
    wide = k * (1.0 - _EXACT_SLACK) ** 2
    counted = np.flatnonzero((wide <= r * da * lam + (db - r) * slack) | (wide <= r * db * lam + (da - r) * slack))
    if not counted.size:
        return ranks
    if k == 1:
        ranks[counted] = schmidt_rank_table(m, [cuts[j] for j in counted], eps)[0]
        return ranks
    space = QuditDims((k,) + s.space.dims)
    full = (1 << s.space.parties) - 1
    purified = [Bipartition(space, a << 1 | 1) for j in counted for a in (cuts[j].mask, full ^ cuts[j].mask)]
    table = schmidt_rank_table(m.reshape(1, -1), purified, eps)[0]
    ranks[counted] = np.minimum(table[0::2], table[1::2])
    return ranks


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products <a_s, b_s> of two (S, k) stacks."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(v, v).real)


def _ascend(
    fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    c0: np.ndarray,
    max_iter: int,
    peak: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent with backtracking on the complex unit sphere,
    run independently for every row of an (S, k) stack of starts.

    fun maps a stack of points to their values and ascent directions; each
    direction is projected onto the sphere's tangent space before stepping,
    and each accepted step must clear an Armijo-style improvement. peak is
    the objective's largest value on the sphere. A row stops after max_iter
    accepted steps, after 50 straight backtracks, or at an accepted step that
    gains less than _MIN_IMPROVEMENT or less than _STALL times the row's gap
    peak - f before the step. Every row keeps its own step size, backtrack
    count and step count, and only live rows are evaluated, so a row follows
    the same trajectory alone or stacked. Live rows are kept packed; a row
    that stops is written back and dropped.
    """
    c = c0 / _norms(c0)[:, None]
    f, g = fun(c)
    rows = np.arange(len(c))
    cl, fl, gl = c, f, g
    eta = np.ones(len(c))
    tries = np.zeros(len(c), dtype=int)
    taken = np.zeros(len(c), dtype=int)
    stop = np.full(len(c), max_iter <= 0)
    while True:
        if stop.any():
            c[rows[stop]], f[rows[stop]] = cl[stop], fl[stop]
            keep = ~stop
            rows, cl, fl, gl, eta, tries, taken = (x[keep] for x in (rows, cl, fl, gl, eta, tries, taken))
        if not rows.size:
            return c, f
        d = gl - _dots(cl, gl)[:, None] * cl
        dn = _norms(d)
        stop = dn < 1e-15
        if stop.any():
            continue
        trial = cl + eta[:, None] * d
        trial /= _norms(trial)[:, None]
        ft, gt = fun(trial)
        ok = ft > fl + 1e-4 * eta * dn * dn
        gain = ft - fl
        floor = np.maximum(_MIN_IMPROVEMENT, _STALL * (peak - fl))
        if ok.all():  # the common case needs no masking
            cl, fl, gl, tries = trial, ft, gt, np.zeros_like(tries)
        else:
            cl, fl, gl = np.where(ok[:, None], trial, cl), np.where(ok, ft, fl), np.where(ok[:, None], gt, gl)
            tries = np.where(ok, 0, tries + 1)
        eta = np.where(ok, np.minimum(eta * 2.0, 1.0), eta * 0.5)
        taken += ok
        stop = np.where(ok, (gain < floor) | (taken == max_iter), tries == 50)


def _m_stack(r_stack: np.ndarray, c: np.ndarray) -> np.ndarray:
    """M(c) for every row of an (S, k) coefficient stack."""
    k, da, db = r_stack.shape
    return (c[:, None, :] @ r_stack.reshape(k, da * db)).reshape(-1, da, db)


def _impurity_vag(r_stack: np.ndarray, sign: float = -1.0) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Value/direction of sign * e2, where e2 = ((tr h)^2 - ||h||^2) / 2 with
    h = M M^H is the linear entropy (the summed squared 2x2 minors of M).

    The default sign descends e2 toward product vectors; sign = +1 ascends it
    toward maximally entangled ones, where it peaks on the unit sphere.
    M is oriented dmin x dmax, which leaves e2 and its direction unchanged.
    The table P[m, l] = R_m R_l^H is built once: with w = c (x) conj(c),
    h = w . P and the direction is sum_m c_m tr((tr h - h) P[m, l]), so an
    evaluation is two per-row products with P and one with the k x k result.
    """
    k, da, db = r_stack.shape
    r = r_stack if da <= db else r_stack.transpose(0, 2, 1)
    d = r.shape[1]
    table = (r[:, None] @ r.conj().transpose(0, 2, 1)[None]).reshape(k * k, d * d)
    back = table.reshape(k * k, d, d).transpose(2, 1, 0).reshape(d * d, k * k)  # h @ back = tr(h P[m, l])
    traces = table[:, ::d + 1].sum(axis=1)

    def vag(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = (c[:, :, None] * c.conj()[:, None, :]).reshape(len(c), 1, k * k) @ table
        trh = h[:, 0, ::d + 1].sum(axis=1).real
        f = (trh * trh - _dots(h[:, 0], h[:, 0]).real) / 2.0
        y = trh[:, None, None] * traces - h @ back
        return sign * f, sign * (c[:, None, :] @ y.reshape(len(c), k, k))[:, 0]

    return vag


def _gauss_newton(
    lin: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    retract: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> np.ndarray:
    """Gauss-Newton steps on a residual, run independently for every row of an (S, n) stack.

    lin maps a stack of points to their residuals F (S, m) and Jacobians
    J (S, m, p). A step is the minimum-norm solution of J dx = -F, with
    singular values below 1e-14 of the largest dropped, and retract(x, dx)
    maps it back onto the unknowns' manifold. The solve goes through the
    complex SVD the searches already run: np.linalg.lstsq maps in another
    LAPACK driver, about 0.4 MB of peak memory. Every row keeps the iterate
    of least residual max|F| and stops at the first step that does not halve
    it, or after _NEWTON_STEPS steps: past convergence a step divides
    rounding error by a near-zero singular value. Only live rows are
    evaluated, so a row follows the same iterates alone or stacked. Returns
    the best iterate of every row.
    """
    x = x0.copy()
    best = x0.copy()
    best_res = np.full(len(x), np.inf)
    live = np.arange(len(x))
    for step in range(_NEWTON_STEPS + 1):
        f, jac = lin(x[live])
        res = np.abs(f).max(axis=1)
        better = res < best_res[live]
        halved = res < 0.5 * best_res[live]
        best[live[better]] = x[live[better]]
        best_res[live[better]] = res[better]
        live, f, jac = live[halved], f[halved], jac[halved]
        if not live.size or step == _NEWTON_STEPS:
            break
        u_mat, sv, vh = np.linalg.svd(jac, full_matrices=False)
        inv = np.zeros_like(sv)
        np.divide(1.0, sv, out=inv, where=sv > sv[:, :1] * 1e-14)
        coef = inv * (u_mat.conj().transpose(0, 2, 1) @ -f[:, :, None])[:, :, 0]
        x[live] = retract(x[live], (vh.conj().transpose(0, 2, 1) @ coef[:, :, None])[:, :, 0])
    return best


def _rank_one_newton(r_stack: np.ndarray) -> tuple[Callable, Callable]:
    """lin and retract for M(c) - a b^T = 0 over x = (c, a, b), an (S, k + dA + dB) stack.

    The residual is complex-analytic in x, so the complex Jacobian serves.
    Its c-block is taken on the tangent space of the unit sphere, R (I - c c^H):
    otherwise the minimum-norm step shrinks c and a toward zero together.
    After a step c is renormalized and a divided by the same factor.
    """
    k, da, db = r_stack.shape
    flat = r_stack.reshape(k, da * db).T

    def lin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, a, b = x[:, :k], x[:, k:k + da], x[:, k + da:]
        m = _m_stack(r_stack, c).reshape(len(x), -1)
        f = m - (a[:, :, None] * b[:, None, :]).reshape(len(x), -1)
        jc = flat - m[:, :, None] * c.conj()[:, None, :]
        ja = -(np.eye(da)[None, :, None, :] * b[:, None, :, None]).reshape(len(x), da * db, da)
        jb = -(a[:, :, None, None] * np.eye(db)[None, None]).reshape(len(x), da * db, db)
        return f, np.concatenate([jc, ja, jb], axis=2)

    def retract(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        x = x + dx
        n = _norms(x[:, :k])[:, None]
        x[:, :k + da] /= n
        return x

    return lin, retract


def _rank_one_start(r_stack: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(c, a, b) with a b^T the best rank-1 approximation of M(c), for every row of c."""
    u_mat, sv, vh = np.linalg.svd(_m_stack(r_stack, c), full_matrices=False)
    return np.concatenate([c, sv[:, :1] * u_mat[:, :, 0], vh[:, 0]], axis=1)


def _me_newton(r_stack: np.ndarray, dmin: int) -> tuple[Callable, Callable]:
    """lin and retract for M M^H - I/dmin = 0 over the unit coefficients c, an (S, k) stack.

    M is oriented dmin x dmax, so M M^H is the dmin x dmin Gram. The residual
    is not complex-analytic in c, so the Jacobian is that of the real pair
    (Re c, Im c) on the real and imaginary parts of the residual, stored
    complex so that the solve runs the complex SVD. After a step c returns
    to the unit sphere.
    """
    k = len(r_stack)
    r = r_stack if r_stack.shape[1] <= r_stack.shape[2] else r_stack.transpose(0, 2, 1)
    target = np.eye(dmin) / dmin

    def lin(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = _m_stack(r, c)
        mh = m.conj().transpose(0, 2, 1)
        f = (m @ mh - target).reshape(len(c), -1)
        dh = r[None] @ mh[:, None]  # R_k M^H
        dhh = dh.conj().transpose(0, 1, 3, 2)
        cols = np.concatenate([dh + dhh, 1j * (dh - dhh)], axis=1).reshape(len(c), 2 * k, -1)
        jac = cols.transpose(0, 2, 1)
        return (np.concatenate([f.real, f.imag], axis=1).astype(np.complex128),
                np.concatenate([jac.real, jac.imag], axis=1).astype(np.complex128))

    def retract(c: np.ndarray, dx: np.ndarray) -> np.ndarray:
        c = c + dx[:, :k].real + 1j * dx[:, k:].real
        return c / _norms(c)[:, None]

    return lin, retract


def _minor_sum(sv: np.ndarray) -> float:
    """Sum over i < j of sv_i^2 sv_j^2, the summed squared 2x2 minors, without cancellation."""
    s2 = sv * sv
    return float(np.dot(s2[1:], np.cumsum(s2)[:-1]))


def _coeff_state(s: StateSet, c: np.ndarray, tol: float) -> PureState:
    return canonical_phase(PureState(s.space, s.vector(c)), tol)


def _two_rounds(
    s: StateSet,
    cut: Bipartition,
    r_stack: np.ndarray,
    vag: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    peak: float,
    polish: Callable[[np.ndarray], np.ndarray],
    accept: Callable[[np.ndarray], np.ndarray],
    check: Callable[[PureState, Bipartition, float], bool],
    starts: np.ndarray,
    long_steps: int,
    tol: float,
) -> tuple[PureState | None, np.ndarray | None, np.ndarray | None]:
    """The multi-start driver of both witness searches.

    Every start takes _SHORT_STEPS ascent steps on vag, whose largest value
    on the unit sphere is peak, so that a row stops early once a step gains
    under _STALL of its gap to it; polish maps endpoints to coefficients.
    The witness is the phase-fixed state of the lowest-index polished row
    that accept admits, given the (S, dmin) singular values of its M, and
    that passes check at tol. The first _FIRST_POLISH endpoints are polished
    and tested before the rest, which are polished only when none of them
    verifies; rows are polished independently, so the witness is the one a
    polish of every endpoint gives. When no row verifies, the same starts
    continue, each to long_steps steps or until it stalls, and are polished
    and tested again. Returns (witness, None, None), or on a miss None with
    the polished coefficients of the second round and their singular values.
    """
    cs, done = starts, 0
    for steps in (_SHORT_STEPS, long_steps):
        cs, _ = _ascend(vag, cs, steps - done, peak)
        done = steps
        polished, sv = [], []
        for chunk in (cs[:_FIRST_POLISH], cs[_FIRST_POLISH:]):
            if not len(chunk):
                break
            polished.append(polish(chunk))
            sv.append(np.linalg.svd(_m_stack(r_stack, polished[-1]), compute_uv=False))
            for i in np.flatnonzero(accept(sv[-1])):
                witness = _coeff_state(s, polished[-1][i], tol)
                if check(witness, cut, tol):
                    return witness, None, None
    return None, np.concatenate(polished), np.concatenate(sv)


def find_product_state(
    s: StateSet,
    cut: Bipartition,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
) -> SubspaceVerdict:
    """Multi-start search for a product vector of the subspace; never an exact refusal.

    _two_rounds runs the search: every start descends the summed squared 2x2
    minors of M(c) (the linear entropy e2), for _SHORT_STEPS steps and, when
    no polished endpoint verifies, on to _MAX_ITER steps; after each round
    Gauss-Newton steps on M(c) = a b^T over (c, a, b) polish the endpoints.

    PRODUCT_FOUND (EXACT) goes to the lowest-index start, first round before
    second, whose witness passes is_product at tol: that Schmidt rank 1 at
    the cut is the certificate. score is then the witness's sum over i < j
    of sigma_i^2 sigma_j^2 (its summed squared 2x2 minors). A miss is
    NO_PRODUCT_FOUND (NUMERICAL_EVIDENCE) with the smallest such sum over
    the polished endpoints of the second round; above the dimension
    (dA-1)(dB-1), where every subspace holds a product vector
    (Parthasarathy 2004), its reason names that bound.
    """
    if len(s) == 0:
        raise ValueError("empty subspace")
    eps = _eps(tol)
    if cfg.starts == 0:
        return SubspaceVerdict(cut, SubspaceStatus.NO_PRODUCT_FOUND, Grade.NUMERICAL_EVIDENCE,
                               score=None, reason="search disabled (0 starts)")
    r_stack = _reshapes(s, cut)
    lin, retract = _rank_one_newton(r_stack)
    witness, _, sv = _two_rounds(
        s, cut, r_stack, _impurity_vag(r_stack), 0.0,
        lambda cs: _gauss_newton(lin, retract, _rank_one_start(r_stack, cs))[:, :len(s)],
        lambda sv: sv[:, 1] <= 2.0 * eps, is_product,
        _random_starts(cfg.seed, _STREAM_PRODUCT, cfg.starts, len(s)), _MAX_ITER, tol)
    if witness is not None:
        return SubspaceVerdict(cut, SubspaceStatus.PRODUCT_FOUND, Grade.EXACT, witness=witness,
                               score=_minor_sum(schmidt(witness, cut, tol).coefficients))
    bound = (cut.dim_a - 1) * (cut.dim_b - 1)
    reason = (f"no product vector found, though every subspace of dimension > (dA-1)(dB-1) = {bound}"
              " holds one") if len(s) > bound else None
    return SubspaceVerdict(cut, SubspaceStatus.NO_PRODUCT_FOUND, Grade.NUMERICAL_EVIDENCE,
                           score=min(_minor_sum(row) for row in sv), reason=reason)


def _in_me_band(sv: np.ndarray, tol_me: float) -> bool:
    """Whether every Schmidt coefficient in sv lies within tol_me of 1/sqrt(len(sv))."""
    return bool(np.all(np.abs(sv - 1.0 / math.sqrt(len(sv))) <= tol_me))


def _lattice_snap(s: StateSet, cut: Bipartition, amps: np.ndarray) -> PureState | None:
    """Replace a converged witness by a nearby exact lattice vector, if one verifies.

    The smallest singular value is flat to second order around a maximally
    entangled vector, so a search witness can stall around sqrt(machine eps)
    off the true ray in directions tangent to the manifold. When the ray has
    amplitudes z/sqrt(N) for small complex integers z, rounding recovers it
    exactly. The snapped vector is kept only when it stays near the witness,
    lies in the subspace, and verifies as maximally entangled at 1e-12; on
    any miss the caller keeps the numerical witness. One array step screens
    the 64 scales N for a rounded candidate near the witness, and only those
    N take the checks, in order.
    """
    k = int(np.argmax(np.abs(amps)))
    pivot = amps[k]
    if abs(pivot) < 1e-9:
        return None
    aligned = amps * (abs(pivot) / pivot)
    zs = np.round(aligned * np.sqrt(np.arange(1, 65))[:, None])
    totals = np.sum(np.abs(zs) ** 2, axis=1)
    near = np.linalg.norm(zs / np.sqrt(np.maximum(totals, 0.5))[:, None] - aligned, axis=1) <= 1e-4
    for n in np.flatnonzero(near & (totals >= 0.5)) + 1:
        z = np.round(aligned * math.sqrt(n))
        cand = z / math.sqrt(float(np.sum(np.abs(z) ** 2)))
        if float(np.linalg.norm(cand - aligned)) > 1e-4:
            continue
        inside = (s.matrix().conj() @ cand) @ s.matrix()
        if float(np.linalg.norm(cand - inside)) > 1e-12:
            continue
        state = PureState(s.space, cand)
        if is_maximally_entangled(state, cut, 1e-12):
            return state
    return None


def find_maximally_entangled(
    s: StateSet,
    cut: Bipartition,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
) -> SubspaceVerdict:
    """Search for a maximally entangled vector of the subspace.

    Exact refusals come first, each NO_ME_FOUND graded EXACT on the support
    rank (support_ranks: the dimension lemma, else the purification's
    schmidt_rank_table): at most 1 certifies an only-product subspace, which
    cannot contain one, and a cap below min(dA,dB) rules out full Schmidt
    rank.
    Otherwise _two_rounds runs the search: every start climbs the linear
    entropy, for _SHORT_STEPS steps and, when no polished endpoint verifies,
    on to _SMOOTH_STEPS steps; after each round Gauss-Newton steps on
    M M^H = I/d polish the endpoints. The witness is the lowest-index
    polished endpoint that passes is_maximally_entangled at tol; on a miss
    it is the polished endpoint of the second round with the largest
    smallest singular value, the lowest index winning ties. Either witness
    is then graded, and snapped to a nearby lattice vector when one
    verifies.

    ME_FOUND requires every Schmidt coefficient of the witness to lie within
    _TOL_ME of 1/sqrt(min(dA,dB)); score is the smallest one. The grade
    is EXACT only when the witness itself passes is_maximally_entangled at
    the base tolerance, that is, full Schmidt rank with largest minus
    smallest coefficient below eps: that check of the returned vector,
    snapped or not, is the certificate. Otherwise it is NUMERICAL_EVIDENCE.
    A witness outside the band gives NO_ME_FOUND; its reason is
    _OUTSIDE_BAND when the smallest coefficient is within _TOL_ME of
    1/sqrt(d), so the miss is near rather than far.
    """
    if len(s) == 0:
        raise ValueError("empty subspace")
    dmin = min(cut.dim_a, cut.dim_b)
    bound = support_ranks(s, [cut], tol)[0]
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
    eps = _eps(tol)
    lin, retract = _me_newton(r_stack, dmin)
    witness, polished, sv = _two_rounds(
        s, cut, r_stack, _impurity_vag(r_stack, 1.0), (1.0 - 1.0 / dmin) / 2.0,
        lambda cs: _gauss_newton(lin, retract, cs),
        lambda sv: np.ptp(sv, axis=1) < 2.0 * eps, is_maximally_entangled,
        _random_starts(cfg.seed, _STREAM_ME, cfg.starts, len(s)), _SMOOTH_STEPS, tol)
    if witness is None:
        witness = _coeff_state(s, polished[np.argmax(sv[:, dmin - 1])], tol)
    sv = np.linalg.svd(reshape(witness, cut), compute_uv=False)
    best_v = float(sv[dmin - 1])
    if not _in_me_band(sv, _TOL_ME):
        near = best_v >= 1.0 / math.sqrt(dmin) - _TOL_ME
        return SubspaceVerdict(cut, SubspaceStatus.NO_ME_FOUND, Grade.NUMERICAL_EVIDENCE, score=best_v,
                               reason=_OUTSIDE_BAND if near else None)
    snapped = _lattice_snap(s, cut, witness.amps)
    if snapped is not None:
        # exact zeros of the lattice vector print without a path-dependent sign
        witness = PureState(s.space, canonical_phase(snapped, tol).amps + 0.0)
        best_v = float(np.linalg.svd(reshape(witness, cut), compute_uv=False)[dmin - 1])
    grade = Grade.EXACT if is_maximally_entangled(witness, cut, tol) else Grade.NUMERICAL_EVIDENCE
    return SubspaceVerdict(cut, SubspaceStatus.ME_FOUND, grade, witness=witness, score=best_v)


def max_schmidt_rank_in_subspace(
    s: StateSet,
    cut: Bipartition,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
) -> int:
    """Largest Schmidt rank over _SAMPLES seeded coefficient vectors: the
    span's generic rank, as numerical evidence.

    The rank of M(c) = sum c_i R_i is below its largest value r only where
    every r x r minor vanishes, a proper algebraic subset of coefficient
    space, so a random c reaches r with probability 1 (the argument of the
    rotated-basis ENTANGLED route). The value is a lower bound on r, and
    the support rank (support_ranks) an exact upper bound.
    """
    if len(s) == 0:
        raise ValueError("empty subspace")
    cs = _random_starts(cfg.seed, _STREAM_RANK, _SAMPLES, len(s))
    sv = np.linalg.svd(_m_stack(_reshapes(s, cut), cs), compute_uv=False)
    return int((sv > _eps(tol)).sum(axis=1).max())


def _deflate(s: StateSet, amps: np.ndarray, eps: float) -> StateSet:
    """Orthogonal complement of one vector within the subspace."""
    m = s.matrix()
    return orthonormalize(s.space, m - np.outer(m @ np.conj(amps), amps), eps)


def _rotated_basis(s: StateSet, cut: Bipartition, seed: int, tol: float) -> StateSet | None:
    """A Haar-rotated orthonormal basis of s whose every member has Schmidt
    rank >= 2 at the cut; None when all _ROTATION_DRAWS draws miss.

    Draw i rotates s.matrix() by a Haar unitary from the sub-seed
    (seed, _STREAM_ROTATION, i) and keeps the phase-fixed rows only when one
    schmidt_rank_table call grades every one of them entangled.
    """
    for i in range(_ROTATION_DRAWS):
        u = haar_unitary(len(s), np.random.default_rng([seed, _STREAM_ROTATION, i]))
        found = StateSet(s.space, tuple(canonical_phase(PureState(s.space, row), tol) for row in u @ s.matrix()))
        if schmidt_rank_table(found.matrix(), [cut], tol).min() >= 2:
            return found
    return None


def count_product_states_2d_2x2(s: StateSet, tol: float = DEFAULT_EPS) -> ProductCount:
    """Count product rays in a 2-dimensional subspace of a 2x2 space.

    det(a*M1 + b*M2) is a binary quadratic; identically zero means every ray
    is product, a discriminant below _TOL_DISC (after scaling coefficients to
    unit max modulus) means a double root, anything else two distinct roots.
    Zero is impossible for this shape, so that value is never returned.
    """
    if s.space.dims != (2, 2):
        raise ValueError(f"space must be 2x2, got {s.space}")
    if len(s) != 2:
        raise ValueError(f"subspace must be 2-dimensional, got dim {len(s)}")
    eps = _eps(tol)
    cut = single_cut(s.space)
    m1, m2 = _reshapes(s, cut)
    alpha = complex(np.linalg.det(m1))
    gamma = complex(np.linalg.det(m2))
    beta = complex(np.linalg.det(m1 + m2)) - alpha - gamma
    coeffs = np.array([alpha, beta, gamma])
    peak = float(np.abs(coeffs).max())
    if peak < eps:
        return ProductCount.INFINITE
    coeffs = coeffs / peak
    disc = coeffs[1] ** 2 - 4.0 * coeffs[0] * coeffs[2]
    return ProductCount.ONE if abs(disc) < _TOL_DISC else ProductCount.TWO


def verify_basis(
    st: StateSet,
    kind: BasisKind,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
    cut: Bipartition | None = None,
) -> BasisVerdict:
    """Check an unextendibility claim for an orthogonal set of states.

    Order of business: every member must meet the kind's entanglement
    requirement (REFUTED with the offending index otherwise); a complement
    of dimension zero short-circuits to COMPLETE_BASIS; then the complement
    is analyzed per cut. Kind COMPLETE is the cut-free spanning check:
    COMPLETE_BASIS when the orthonormal set fills the whole space, REFUTED
    otherwise.

    Every EXACT verdict rests on a named certificate:
    - an offending member: its Schmidt rank below 2 at some cut in
      schmidt_rank_table, counted exactly as the SVD counts it (UEB kinds),
      or its failed is_maximally_entangled check (UMEB);
    - COMPLETE_BASIS, and kind COMPLETE either way: the complement's
      dimension, the number of the set's singular values at most eps
      (orthogonal_complement);
    - ONLY_PRODUCT at a cut: support rank at most 1, by the lemma above,
      counted for every cut at once by support_ranks in one schmidt_rank_table
      of the complement's purification; a cut where the dimension lemma
      settles the support rank at min(dA, dB) >= 2 takes no count. VERIFIED
      for the UEB kinds needs ONLY_PRODUCT at every cut;
    - CONTAINS_ENTANGLED at a cut: a witness in the complement whose own
      Schmidt rank is at least 2; REFUTED for the UEB kinds needs one. One
      _entangled_probe call finds the witnesses of every cut whose support
      rank exceeds 1, and each is re-checked by schmidt at its cut;
    - UMEB: an EXACT verdict of find_maximally_entangled on the complement,
      a verified witness (REFUTED) or an exact refusal (VERIFIED).

    A cut whose support ranks exceed 1 while the probe finds no witness has
    no certificate either way, since the span lies within tolerance of
    only-product there: it is CONTAINS_ENTANGLED graded NUMERICAL_EVIDENCE,
    and the outcome is INCONCLUSIVE unless another cut has a witness. UMEB
    evidence from a search that did not verify is graded numerical, and
    INCONCLUSIVE is returned when no usable evidence exists at all or when
    the search came within _TOL_ME of maximal entanglement without a
    witness in the band.
    """
    if len(st) == 0:
        raise ValueError("empty state set")
    space = st.space
    if kind is BasisKind.COMPLETE:
        comp = orthogonal_complement(st, tol)
        outcome = Outcome.COMPLETE_BASIS if len(comp) == 0 else Outcome.REFUTED
        return BasisVerdict(kind, outcome, (), comp)
    if kind in (BasisKind.UEB, BasisKind.UMEB):
        cuts = [cut if cut is not None else single_cut(space)]
    else:
        cuts = enumerate_cuts(space)
    comp = orthogonal_complement(st, tol)
    table = None
    if kind is BasisKind.UMEB:
        weak = [i for i, psi in enumerate(st.states) if not is_maximally_entangled(psi, cuts[0], tol)]
    else:
        ranks = schmidt_rank_table(st.matrix(), cuts, tol)
        weak = np.flatnonzero(ranks.min(axis=1) < 2).tolist()
        if kind is BasisKind.UEB_ALL_CUTS or space.parties == 2:
            ranks.setflags(write=False)
            table = ranks
    if weak:
        return BasisVerdict(kind, Outcome.REFUTED, (), comp, offending_state=weak[0], rank_table=table)
    if len(comp) == 0:
        return BasisVerdict(kind, Outcome.COMPLETE_BASIS, (), comp, rank_table=table)
    if kind is BasisKind.UMEB:
        v = find_maximally_entangled(comp, cuts[0], cfg, tol)
        if v.status is SubspaceStatus.ME_FOUND:
            if v.grade is Grade.EXACT:
                return BasisVerdict(kind, Outcome.REFUTED, (v,), comp)
            return BasisVerdict(kind, Outcome.INCONCLUSIVE, (v,), comp, grade=Grade.NUMERICAL_EVIDENCE)
        if v.grade is Grade.EXACT:
            return BasisVerdict(kind, Outcome.VERIFIED, (v,), comp)
        # a search that came within _TOL_ME of maximal entanglement is no evidence of unextendibility
        if v.score is None or v.reason == _OUTSIDE_BAND:
            return BasisVerdict(kind, Outcome.INCONCLUSIVE, (v,), comp, grade=Grade.NUMERICAL_EVIDENCE)
        return BasisVerdict(kind, Outcome.VERIFIED, (v,), comp, grade=Grade.NUMERICAL_EVIDENCE)
    bounds = support_ranks(comp, cuts, tol)
    witnesses = iter(_entangled_probe(comp, [c for c, bound in zip(cuts, bounds) if bound > 1], tol))
    per_cut: list[SubspaceVerdict] = []
    for c, bound in zip(cuts, bounds):
        if bound <= 1:
            per_cut.append(SubspaceVerdict(c, SubspaceStatus.ONLY_PRODUCT, Grade.EXACT))
            continue
        witness = next(witnesses)
        if witness is not None and schmidt(witness, c, tol).rank >= 2:
            per_cut.append(SubspaceVerdict(c, SubspaceStatus.CONTAINS_ENTANGLED, Grade.EXACT, witness=witness))
        else:
            per_cut.append(SubspaceVerdict(c, SubspaceStatus.CONTAINS_ENTANGLED, Grade.NUMERICAL_EVIDENCE,
                                           reason=_NO_WITNESS))
    if any(v.witness is not None for v in per_cut):
        outcome, grade = Outcome.REFUTED, Grade.EXACT
    elif all(v.status is SubspaceStatus.ONLY_PRODUCT for v in per_cut):
        outcome, grade = Outcome.VERIFIED, Grade.EXACT
    else:
        outcome, grade = Outcome.INCONCLUSIVE, Grade.NUMERICAL_EVIDENCE
    return BasisVerdict(kind, outcome, tuple(per_cut), comp, grade=grade, rank_table=table)


def completion_search(
    comp: StateSet,
    mode: SetMode,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
    cut: Bipartition | None = None,
) -> CompletionResult:
    """Try to extend a set to a full orthogonal basis of the requested kind:
    the largest orthonormal set of that kind found inside comp, the set's
    orthogonal complement (orthogonal_complement), across cut. cut defaults
    to the one cut of two parties and must be given for more parties.

    A set that already spans the space, an empty comp, is complete: YES
    with nothing found, whatever the cut.

    ENTANGLED is decided exactly. An only-product comp, support rank at
    most 1, holds no entangled vector (exact refusal, nothing found).
    Otherwise its product vectors form a proper real-algebraic subset of its
    unit sphere, so each member of a Haar-rotated orthonormal basis is
    entangled with probability 1, and the whole rotated basis is returned.
    Its certificate is the one the UEB gate grades EXACT: every member's
    Schmidt rank, from schmidt_rank_table, is at least 2. A draw with a
    member at sigma_2 <= eps is redrawn from the next seeded rotation; only
    a comp within tolerance of only-product misses on every draw, and then
    nothing is found and the refusal is not exact. cfg.starts plays no part
    here.

    MAX_ENTANGLED is greedy deflation: take an EXACT maximally entangled
    witness, restrict to its orthocomplement, repeat. The result size is a
    lower bound.

    completable is YES when the found set fills comp (each deflation step
    removes one dimension), else NO_EXACT when the search ended on an exact
    refusal, else NO_EVIDENCE; complement is comp.
    """
    empty = StateSet(comp.space, ())
    if len(comp) == 0:
        return CompletionResult(empty, Completable.YES, comp, "input already spans the space")
    if cut is None:
        if comp.space.parties > 2:
            raise ValueError("completion on more than two parties needs --cut <mask>")
        cut = single_cut(comp.space)
    eps = _eps(tol)
    if mode is SetMode.ENTANGLED:
        if support_ranks(comp, [cut], tol)[0] <= 1:
            return CompletionResult(empty, Completable.NO_EXACT, comp, "remaining subspace holds only product vectors")
        rotated = _rotated_basis(comp, cut, cfg.seed, tol)
        if rotated is None:
            return CompletionResult(empty, Completable.NO_EVIDENCE, comp,
                                    f"each of {_ROTATION_DRAWS} rotated bases had a member with Schmidt rank < 2:"
                                    " the subspace is within tolerance of only-product")
        return CompletionResult(rotated, Completable.YES, comp, "subspace exhausted")
    current = comp
    found: list[PureState] = []
    while len(current) >= 1:
        v = find_maximally_entangled(current, cut, cfg, tol)
        if v.status is not SubspaceStatus.ME_FOUND or v.grade is not Grade.EXACT:
            exact = v.status is SubspaceStatus.NO_ME_FOUND and v.grade is Grade.EXACT
            return CompletionResult(StateSet(comp.space, tuple(found)),
                                    Completable.NO_EXACT if exact else Completable.NO_EVIDENCE, comp,
                                    v.reason or "no maximally entangled vector found")
        found.append(v.witness)  # phase-fixed by the search
        current = _deflate(current, v.witness.amps, eps)
    return CompletionResult(StateSet(comp.space, tuple(found)), Completable.YES, comp, "subspace exhausted")
