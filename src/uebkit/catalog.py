"""Families of entangled bases: fixed catalog entries and parameterized generators.

Catalog ids and tags are opaque registry strings. Builders are named by what
they construct. Every family with a declared kind passes one claim gate, once,
before it is handed out: verify_basis at the default cut (for UMEB also the
per-member check) must return the registered outcome. Generator parameters
over states.MAX_COMPLEMENT_BYTES are refused before anything is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .cuts import is_maximally_entangled, single_cut
from .states import (
    DEFAULT_EPS,
    PureState,
    QuditDims,
    StateSet,
    basis_state,
    check_complement_size,
    haar_unitary,
    kron_amplitudes,
    span_equal,
    state_from_combination,
)
from .subspaces import BasisKind, BasisVerdict, Outcome, SearchConfig, verify_basis


class ConstructionError(RuntimeError):
    """A constructed family failed its verification gate."""


def _gate(
    st: StateSet,
    label: str,
    claim: CatalogEntry | GeneratorEntry,
    cfg: SearchConfig,
    tol: float,
) -> BasisVerdict:
    """The claim gate: verify_basis(st, claim.kind, cfg, tol) at the default cut
    must return claim.expected; ConstructionError naming the family otherwise."""
    verdict = verify_basis(st, claim.kind, cfg, tol)
    if verdict.outcome is not claim.expected:
        raise ConstructionError(f"{label} failed its gate: verifier returned {verdict.outcome.value},"
                                f" registered claim is {claim.expected.value}")
    return verdict


class CoeffVariant(Enum):
    """Coefficient scheme for the superposition blocks of the n-qubit family."""

    DFT = "DFT"
    HADAMARD_IF_POWER_OF_TWO = "HADAMARD_IF_POWER_OF_TWO"


def dft_superposition(space: QuditDims, kets: Sequence[int | str | Sequence[int]]) -> list[PureState]:
    """The k discrete-Fourier superpositions of k distinct basis kets.

    Row r gets coefficients w^(r*c) / sqrt(k) over the kets in the given
    order; the rows are orthonormal exactly when the kets are distinct.
    """
    k = len(kets)
    if k < 1:
        raise ValueError("need at least one ket")
    columns = [basis_state(space, ket).amps for ket in kets]
    flat = [int(np.argmax(np.abs(col))) for col in columns]
    if len(set(flat)) != k:
        raise ValueError("kets must be distinct")
    w = np.exp(2j * np.pi / k)
    out: list[PureState] = []
    for r in range(k):
        amps = np.zeros(space.total, dtype=np.complex128)
        for c, col in enumerate(columns):
            amps += (w ** (r * c)) * col
        out.append(PureState(space, amps / math.sqrt(k)))
    return out


def _hadamard_rows(k: int) -> np.ndarray:
    """Rows of the k x k Sylvester matrix in bit-reversed order; k must be 2^b."""
    b = int(k).bit_length() - 1
    if k < 1 or (1 << b) != k:
        raise ValueError(f"Hadamard coefficients need a power-of-two block, got {k}")
    h = np.ones((1, 1))
    for _ in range(b):
        h = np.block([[h, h], [h, -h]])
    if b == 0:
        return h
    order = [int(format(i, f"0{b}b")[::-1], 2) for i in range(k)]
    return h[order]


def two_qubit_ueb_real() -> StateSet:
    """Three real-coefficient entangled states of two qubits; complement ray |11>."""
    space = QuditDims((2, 2))
    states = (
        state_from_combination(space, {"00": 1, "01": 1, "10": 1}),
        state_from_combination(space, {"01": 1, "10": -1}),
        state_from_combination(space, {"00": 2, "01": -1, "10": -1}),
    )
    return StateSet(space, states)


def two_qubit_ueb_fourier() -> StateSet:
    """Three Fourier-coefficient entangled states of two qubits; complement ray |11>."""
    space = QuditDims((2, 2))
    return StateSet(space, tuple(dft_superposition(space, ["00", "01", "10"])))


def two_qubit_ueb_general(
    basis_a: np.ndarray | None = None,
    vec_b: np.ndarray | None = None,
    seed: int = 0,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
) -> tuple[StateSet, BasisVerdict]:
    """General-position variant of the two-qubit family, verdict attached.

    The three members are Fourier superpositions of the orthonormal pillars
    |a,0>, |a,1>, |b,v> with {a, b} a basis of the first qubit and v any unit
    vector of the second, so the complement is the product ray |b, v_perp>.
    Unset parameters are drawn Haar-randomly from the seed. The returned
    verdict is the unextendibility check at the single cut; degenerate
    parameter choices (v aligned with a member's second-qubit factor) show up
    there as REFUTED rather than raising.
    """
    rng = np.random.default_rng(seed)
    if basis_a is None:
        basis_a = haar_unitary(2, rng)
    else:
        basis_a = np.asarray(basis_a, dtype=np.complex128)
        if basis_a.shape != (2, 2) or np.abs(basis_a.conj().T @ basis_a - np.eye(2)).max() > 1e-9:
            raise ValueError("basis_a must be a 2x2 unitary")
    if vec_b is None:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec_b = v / np.linalg.norm(v)
    else:
        vec_b = np.asarray(vec_b, dtype=np.complex128).reshape(-1)
        if vec_b.shape != (2,) or abs(np.linalg.norm(vec_b) - 1.0) > 1e-9:
            raise ValueError("vec_b must be a unit vector of length 2")
    space = QuditDims((2, 2))
    e0, e1 = np.eye(2, dtype=np.complex128)
    pillars = (
        kron_amplitudes(basis_a[:, 0], e0),
        kron_amplitudes(basis_a[:, 0], e1),
        kron_amplitudes(basis_a[:, 1], vec_b),
    )
    w = np.exp(2j * np.pi / 3)
    rows = [(pillars[0] + w**r * pillars[1] + w ** (2 * r) * pillars[2]) / math.sqrt(3) for r in range(3)]
    st = StateSet(space, np.array(rows))
    return st, verify_basis(st, BasisKind.UEB, cfg, tol)


def _fourier_pair_block(d: int, dim_b: int, offset: int) -> np.ndarray:
    """Rows of the maximally entangled states (1/sqrt d) sum_j w^(jk) |j>|offset+(j+t) mod d> of
    d x dim_b, ordered by (t, k)."""
    w = np.exp(2j * np.pi / d)
    out = np.zeros((d * d, d * dim_b), dtype=np.complex128)
    for t in range(d):
        for k in range(d):
            for j in range(d):
                out[t * d + k, j * dim_b + offset + (j + t) % d] = w ** (j * k) / math.sqrt(d)
    return out


def bell_meb(d: int) -> StateSet:
    """Complete maximally entangled basis of d x d, ordered by (shift, phase)."""
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    return StateSet(QuditDims((d, d)), _fourier_pair_block(d, d, 0))


def embed_meb(d: int, n: int) -> StateSet:
    """The d x d basis zero-padded into d x (d+n); unextendible there for 1 <= n < d.

    The complement is the span of the last n columns, whose Schmidt rank is
    capped at n, so no maximally entangled vector survives outside the set.
    """
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    if not 1 <= n < d:
        raise ValueError(f"padding must satisfy 1 <= n < d, got n={n}, d={d}")
    return StateSet(QuditDims((d, d + n)), _fourier_pair_block(d, d + n, 0))


def meb_extension_completion(
    x: np.ndarray | None = None,
    x_prime: np.ndarray | None = None,
    dim_b: int = 4,
) -> StateSet:
    """Four maximally entangled states of 2 x dim_b supported on two fresh columns.

    Defaults put the support on the third and fourth columns, which completes
    the zero-padded 2 x 2 basis to a full maximally entangled basis of 2 x 4.
    """
    space = QuditDims((2, dim_b))
    if x is None:
        x = np.eye(dim_b, dtype=np.complex128)[2]
    if x_prime is None:
        x_prime = np.eye(dim_b, dtype=np.complex128)[3]
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    x_prime = np.asarray(x_prime, dtype=np.complex128).reshape(-1)
    if x.size != dim_b or x_prime.size != dim_b:
        raise ValueError("support vectors must live on the second party")
    if abs(np.linalg.norm(x) - 1) > 1e-9 or abs(np.linalg.norm(x_prime) - 1) > 1e-9 or abs(np.vdot(x, x_prime)) > 1e-9:
        raise ValueError("support vectors must be orthonormal")
    e0, e1 = np.eye(2, dtype=np.complex128)
    pair = (x, x_prime)
    rows = [(kron_amplitudes(e0, pair[t]) + (-1) ** k * kron_amplitudes(e1, pair[1 - t])) / math.sqrt(2)
            for t in range(2) for k in range(2)]
    return StateSet(space, np.array(rows))


def padded_meb_with_extension() -> StateSet:
    """Complete maximally entangled basis of 2 x 4: padded 2 x 2 block plus extension."""
    rows = np.concatenate([_fourier_pair_block(2, 4, 0), meb_extension_completion().matrix()])
    return StateSet(QuditDims((2, 4)), rows)


def me_triple_2x3() -> StateSet:
    """Three maximally entangled states of 2 x 3 extendible by exactly one more.

    The complement holds a single maximally entangled direction plus an
    only-product plane, which makes it the canonical small case separating
    the two completion modes.
    """
    space = QuditDims((2, 3))
    states = (
        state_from_combination(space, {"00": 1, "11": -1}),
        state_from_combination(space, {"01": 1, "10": 1}),
        state_from_combination(space, {"01": 1, "10": -1}),
    )
    return StateSet(space, states)


def three_qubit_w_ueb() -> StateSet:
    """Six genuinely entangled three-qubit states, all in the W class.

    Two Fourier triples, one over the weight-1 kets and one over their
    bit-flipped images {000, 101, 110}; the complement is the only-product
    plane spanned by |011> and |111>.
    """
    space = QuditDims((2, 2, 2))
    flipped = dft_superposition(space, ["000", "101", "110"])
    return StateSet(space, dft_superposition(space, ["001", "010", "100"]) + flipped)


def three_qubit_mixed_ueb() -> StateSet:
    """Seven genuinely entangled three-qubit states with complement ray |111>.

    Four even-weight superpositions with sign rows (+++ , +-- , -+- , --+)
    over {000, 011, 101, 110}, then the Fourier triple over the weight-1
    kets. The sign block and the triple sit in different entanglement
    classes, which is the point of the family.
    """
    space = QuditDims((2, 2, 2))
    rows = _hadamard_rows(4)
    kets = ["000", "011", "101", "110"]
    ghz_block = tuple(
        state_from_combination(space, {ket: rows[r, c] for c, ket in enumerate(kets)}) for r in range(4)
    )
    w_block = tuple(dft_superposition(space, ["001", "010", "100"]))
    return StateSet(space, ghz_block + w_block)


def _n_qubit_family(n: int, coeff_variant: CoeffVariant) -> StateSet:
    """n_qubit_ueb without its gate: the caller gates it."""
    if n < 4:
        raise ValueError("the family needs at least four qubits")
    check_complement_size(repeat(2, n))
    if coeff_variant is CoeffVariant.DFT:
        w = np.exp(2j * np.pi / n)
        coeff = np.array([[w ** (r * c) for c in range(n)] for r in range(n)]) / math.sqrt(n)
    else:
        coeff = _hadamard_rows(n) / math.sqrt(n)
    full = (1 << n) - 1
    weight1 = [1 << i for i in range(n)]  # ascending as bit strings and as integers
    rows = np.zeros((full, full + 1), dtype=np.complex128)
    for b, block in enumerate((weight1, [full ^ s for s in weight1])):
        rows[b * n:(b + 1) * n, block] = coeff
    reps = sorted(x for x in range(1, full) if 2 <= bin(x).count("1") <= n - 2 and x < full ^ x)
    x0 = reps[0]
    root2 = math.sqrt(2.0)
    for r, signs in enumerate(((1, 1, 0), (1, -1, root2), (1, -1, -root2)), 2 * n):
        rows[r, [x0, full ^ x0, 0]] = np.divide(signs, np.linalg.norm(signs))
    for i, x in enumerate(reps[1:]):  # the plus row, then the minus row
        r = 2 * n + 3 + 2 * i
        rows[r:r + 2, [x, full ^ x]] = np.array([[1.0, 1.0], [1.0, -1.0]]) / root2
    return StateSet(QuditDims((2,) * n), rows)


def n_qubit_ueb(
    n: int,
    coeff_variant: CoeffVariant = CoeffVariant.DFT,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
) -> StateSet:
    """2^n - 1 genuinely entangled n-qubit states whose complement is the ray |1...1>.

    Declared order: the weight-1 superposition block, the weight-(n-1) block
    over the complements in matching order, the triple consuming the
    all-zeros ket on the smallest complement pair, then the remaining
    complement pairs ascending, plus sign before minus. Every instance is
    verified unextendible across all cuts before it is returned. An n whose
    space is over states.MAX_COMPLEMENT_BYTES is refused before anything is built.
    """
    st = _n_qubit_family(n, coeff_variant)
    _gate(st, f"nqubit-ueb(n={n})", GENERATORS["nqubit-ueb"], cfg, tol)
    return st


def recognize_padded_square_meb(st: StateSet, tol: float = DEFAULT_EPS) -> int | None:
    """d when the set is a complete maximally entangled d x d basis zero-padded
    into d x (d+n) with 1 <= n <= d; None otherwise.

    Recognition checks the shape, per-member maximal entanglement, and that
    the span is exactly the block of the first d columns.
    """
    dims = st.space.dims
    if len(dims) != 2:
        return None
    d = dims[0]
    if not d < dims[1] <= 2 * d or len(st) != d * d:
        return None
    cut = single_cut(st.space)
    if not all(is_maximally_entangled(s, cut, tol) for s in st.states):
        return None
    block = StateSet(st.space, tuple(basis_state(st.space, (j, c)) for j in range(d) for c in range(d)))
    return d if span_equal(st, block, tol) else None


def extend_padded_square_meb(st: StateSet, d: int) -> StateSet:
    """Complete maximally entangled basis of d x 2d containing the given set.

    The input states are re-padded to 2d columns and joined with a shifted
    copy of the canonical block supported on the fresh columns.
    """
    old_b = st.space.dims[1]
    if st.space.dims[0] != d or old_b > 2 * d:
        raise ValueError(f"set on {st.space} does not fit the d x 2d extension for d={d}")
    padded = np.zeros((len(st), d, 2 * d), dtype=np.complex128)
    padded[:, :, :old_b] = st.matrix().reshape(len(st), d, old_b)
    rows = np.concatenate([padded.reshape(len(st), -1), _fourier_pair_block(d, 2 * d, d)])
    return StateSet(QuditDims((d, 2 * d)), rows)


@dataclass(frozen=True)
class CatalogEntry:
    """A fixed registered family with its claim and verification gate data."""

    entry_id: str
    tag: str
    title: str
    dims: tuple[int, ...]
    kind: BasisKind | None
    expected: Outcome | None
    build: Callable[[], StateSet]


CATALOG: dict[str, CatalogEntry] = {
    e.entry_id: e
    for e in (
        CatalogEntry(
            "eq1-ueb", "eq1", "real-coefficient unextendible entangled basis of two qubits",
            (2, 2), BasisKind.UEB, Outcome.VERIFIED, two_qubit_ueb_real,
        ),
        CatalogEntry(
            "eq2-ueb", "eq2", "Fourier-coefficient unextendible entangled basis of two qubits",
            (2, 2), BasisKind.UEB, Outcome.VERIFIED, two_qubit_ueb_fourier,
        ),
        CatalogEntry(
            "eq3-meb", "eq3", "complete maximally entangled basis of two qubits",
            (2, 2), BasisKind.UMEB, Outcome.COMPLETE_BASIS, lambda: bell_meb(2),
        ),
        CatalogEntry(
            "eq3-in-2x3", "eq3", "zero-padded unextendible maximally entangled basis of 2x3",
            (2, 3), BasisKind.UMEB, Outcome.VERIFIED, lambda: embed_meb(2, 1),
        ),
        CatalogEntry(
            "eq3-eq4-meb", "eq4", "complete maximally entangled basis of 2x4, padded block plus extension",
            (2, 4), BasisKind.UMEB, Outcome.COMPLETE_BASIS, padded_meb_with_extension,
        ),
        CatalogEntry(
            "eq5-w-ueb", "eq5", "six-state unextendible entangled basis of three qubits, all W class",
            (2, 2, 2), BasisKind.UEB_ALL_CUTS, Outcome.VERIFIED, three_qubit_w_ueb,
        ),
        CatalogEntry(
            "eq6-mixed-ueb", "eq6", "seven-state unextendible entangled basis of three qubits mixing classes",
            (2, 2, 2), BasisKind.UEB_ALL_CUTS, Outcome.VERIFIED, three_qubit_mixed_ueb,
        ),
        CatalogEntry(
            "appendix-4qubit", "appendix", "fifteen-state unextendible entangled basis of four qubits",
            (2, 2, 2, 2), BasisKind.UEB_ALL_CUTS, Outcome.VERIFIED,
            lambda: _n_qubit_family(4, CoeffVariant.HADAMARD_IF_POWER_OF_TWO),
        ),
    )
}


def build_entry(
    entry_id: str,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
) -> StateSet:
    """Build a registered family and run its verification gate."""
    return build_entry_with_verdict(entry_id, cfg, tol)[0]


def build_entry_with_verdict(
    entry_id: str,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
    gate: bool = True,
) -> tuple[StateSet, BasisVerdict | None]:
    """build_entry, also returning the gate's verdict (None for entries without a kind).

    The verdict is verify_basis(set, entry.kind, cfg, tol) at the default cut;
    for the UMEB kind it is also the per-member check. With gate False the
    dims check still runs but the verifier does not, and the verdict is None:
    for a caller about to run another check.
    """
    if entry_id not in CATALOG:
        raise KeyError(f"unknown catalog entry {entry_id!r}")
    entry = CATALOG[entry_id]
    st = entry.build()
    if st.space.dims != entry.dims:
        raise ConstructionError(f"{entry_id}: built dims {st.space.dims} differ from registered {entry.dims}")
    if entry.kind is None or not gate:
        return st, None
    return st, _gate(st, entry_id, entry, cfg, tol)


@dataclass(frozen=True)
class GeneratorEntry:
    """A parameterized family with its claim; the CLI resolves parameters and calls build_generator."""

    name: str
    title: str
    params: str
    kind: BasisKind | None = None
    expected: Outcome | None = None


GENERATORS: dict[str, GeneratorEntry] = {
    g.name: g
    for g in (
        GeneratorEntry("bell-meb", "complete maximally entangled basis of d x d", "d >= 2",
                       BasisKind.UMEB, Outcome.COMPLETE_BASIS),
        GeneratorEntry("embed-meb", "unextendible maximally entangled basis of d x (d+n)", "d >= 2, 1 <= n < d",
                       BasisKind.UMEB, Outcome.VERIFIED),
        GeneratorEntry("nqubit-ueb", "unextendible entangled basis of n qubits, all cuts", "n >= 4, coeff variant",
                       BasisKind.UEB_ALL_CUTS, Outcome.VERIFIED),
        GeneratorEntry("dft-superposition", "Fourier superpositions of chosen basis kets", "dims, kets"),
        GeneratorEntry("prop2a-set", "three maximally entangled states of 2x3 extendible by exactly one more", "none"),
    )
}


def build_generator(
    name: str,
    cfg: SearchConfig = SearchConfig(),
    tol: float = DEFAULT_EPS,
    *,
    d: int | None = None,
    n: int | None = None,
    variant: CoeffVariant = CoeffVariant.DFT,
    dims: tuple[int, ...] | None = None,
    kets: Sequence[str] | None = None,
) -> StateSet:
    """Build a parameterized family and run the gate matching its claim.

    Parameters whose space is over states.MAX_COMPLEMENT_BYTES raise
    ValueError before anything is built.
    """
    if name == "nqubit-ueb":
        if n is None:
            raise ValueError("nqubit-ueb needs n")
        return n_qubit_ueb(n, variant, cfg, tol)  # size-checked and gated there
    if name == "dft-superposition":
        if dims is None or kets is None:
            raise ValueError("dft-superposition needs dims and kets")
        check_complement_size(dims)
        space = QuditDims(tuple(dims))
        return StateSet(space, tuple(dft_superposition(space, list(kets))))
    if name == "prop2a-set":
        st = me_triple_2x3()
        cut = single_cut(st.space)
        for i, psi in enumerate(st.states):
            if not is_maximally_entangled(psi, cut, tol):
                raise ConstructionError(f"{name}: member {i} is not maximally entangled")
        return st
    if name == "bell-meb":
        if d is None:
            raise ValueError("bell-meb needs d")
        check_complement_size((d, d))
        st, label = bell_meb(d), f"bell-meb(d={d})"
    elif name == "embed-meb":
        if d is None or n is None:
            raise ValueError("embed-meb needs d and n")
        check_complement_size((d, d + n))
        st, label = embed_meb(d, n), f"embed-meb(d={d}, n={n})"
    else:
        raise KeyError(f"unknown generator {name!r}")
    _gate(st, label, GENERATORS[name], cfg, tol)
    return st
