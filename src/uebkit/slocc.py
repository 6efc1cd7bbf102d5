"""Entanglement-class tools for three-qubit states and class-separating witnesses.

Classification follows the standard pure-state hierarchy: fully separable,
biseparable across a named cut, and the two genuinely entangled classes told
apart by the residual tangle. The tangle here is the modulus form, so it is
invariant under local unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .cuts import Bipartition, enumerate_cuts, schmidt_rank_table
from .states import (
    PureState,
    QuditDims,
    StateSet,
    Tolerance,
    _eps,
    orthogonal_complement,
    orthonormalize,
    state_from_combination,
)
from .subspaces import ProductCount, count_product_states_2d_2x2

# Residual tangle above which a genuinely entangled state is GHZ class rather than W.
DEFAULT_TANGLE_EPS = 1e-8


class SloccClass(Enum):
    FULLY_SEPARABLE = "SEP"
    BISEPARABLE = "BISEP"
    W_CLASS = "W"
    GHZ_CLASS = "GHZ"


@dataclass(frozen=True, eq=False)
class SloccVerdict:
    """Class assignment with the tangle value and, for biseparable states, the cut."""

    category: SloccClass
    label: str
    tangle: float
    cut: Bipartition | None = None


def three_tangle(p: PureState) -> float:
    """Residual tangle of a three-qubit pure state, 4 |d1 - 2 d2 + 4 d3|.

    d1 collects the squared diagonal amplitude pairs, d2 the six mixed
    products against them, d3 the two odd permanent-like terms. Vanishes on
    the W class, reaches 1 on the GHZ state.
    """
    if p.space.dims != (2, 2, 2):
        raise ValueError(f"tangle is defined for three qubits, got {p.space}")
    a = p.amps.reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1] + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def classify_three_qubit(p: PureState, tol: Tolerance | float | None = None) -> SloccVerdict:
    """SEP / BISEP(cut) / GHZ / W assignment for a three-qubit pure state."""
    if p.space.dims != (2, 2, 2):
        raise ValueError(f"classification is defined for three qubits, got {p.space}")
    return classify_from_ranks(p, schmidt_rank_table(p.amps[None], enumerate_cuts(p.space), tol)[0])


def classify_from_ranks(p: PureState, ranks: Sequence[int]) -> SloccVerdict:
    """classify_three_qubit for a state whose Schmidt ranks over
    enumerate_cuts(p.space) are given, such as its row of a set's shared
    schmidt_rank_table: rank 1 at a cut means product there."""
    tau = three_tangle(p)
    product_cuts = [cut for cut, rank in zip(enumerate_cuts(p.space), ranks) if rank == 1]
    if len(product_cuts) == 3:
        return SloccVerdict(SloccClass.FULLY_SEPARABLE, "SEP", tau)
    if product_cuts:
        cut = product_cuts[0]
        return SloccVerdict(SloccClass.BISEPARABLE, f"BISEP({cut.label})", tau, cut)
    if tau > DEFAULT_TANGLE_EPS:
        return SloccVerdict(SloccClass.GHZ_CLASS, "GHZ", tau)
    return SloccVerdict(SloccClass.W_CLASS, "W", tau)


def partial_trace(p: PureState, keep: Sequence[int]) -> np.ndarray:
    """Density matrix of the kept parties, indices in the order given."""
    dims = p.space.dims
    keep = tuple(int(i) for i in keep)
    if not keep or len(set(keep)) != len(keep) or any(not 0 <= i < len(dims) for i in keep):
        raise ValueError(f"keep list {keep} does not address distinct parties of {p.space}")
    t = p.amps.reshape(dims)
    t = np.moveaxis(t, keep, range(len(keep)))
    dk = math.prod(dims[i] for i in keep)
    m = t.reshape(dk, -1)
    return m @ m.conj().T


def w_state(n: int) -> PureState:
    """Uniform superposition of the weight-1 kets of n qubits."""
    if n < 2:
        raise ValueError("need at least two qubits")
    space = QuditDims((2,) * n)
    return state_from_combination(space, {"0" * i + "1" + "0" * (n - 1 - i): 1 for i in range(n)})


def ghz_state(n: int) -> PureState:
    """Even superposition of the all-zeros and all-ones kets of n qubits."""
    if n < 2:
        raise ValueError("need at least two qubits")
    space = QuditDims((2,) * n)
    return state_from_combination(space, {"0" * n: 1, "1" * n: 1})


def ghz_w_range_witness(
    n: int,
    tol: Tolerance | float | None = None,
) -> tuple[ProductCount, ProductCount]:
    """Product-ray counts in the two-party reduced ranges of the n-qubit W and GHZ states.

    The W reduction's range is spanned by the symmetric entangled vector and
    |00>, holding exactly one product ray; the GHZ reduction's range is
    spanned by |00> and |11>, holding two. The pair (ONE, TWO) therefore
    separates the classes for every n >= 3, independent of the class
    representative's local form.
    """
    if n < 3:
        raise ValueError("the witness needs at least three parties")
    eps = _eps(tol)
    two = QuditDims((2, 2))
    counts: list[ProductCount] = []
    for source in (w_state(n), ghz_state(n)):
        rho = partial_trace(source, (0, 1))
        vals, vecs = np.linalg.eigh(rho)
        cols = [vecs[:, i] for i in range(vals.size) if vals[i] > eps]
        sub = orthonormalize(two, cols, tol)
        counts.append(count_product_states_2d_2x2(sub, tol=tol))
    return counts[0], counts[1]


def spans_ghz_and_w(labels: Iterable[str], complement: StateSet, tol: Tolerance | float | None = None) -> bool:
    """The resource dimension rule: whether a three-qubit set whose members
    carry the given class labels, and whose orthogonal complement at tol is
    complement, spans both genuinely entangled classes.

    A one-dimensional complement ray is classified as well, since a basis
    argument covers the full space. True means at least one GHZ-class and
    at least one W-class vector appear.
    """
    seen = set(labels)
    if len(complement) == 1:
        seen.add(classify_three_qubit(complement.states[0], tol).label)
    return {SloccClass.GHZ_CLASS.value, SloccClass.W_CLASS.value} <= seen


def resource_dimension_flag(st: StateSet, tol: Tolerance | float | None = None) -> bool:
    """Whether the set spans both genuinely entangled classes of three qubits
    (spans_ghz_and_w on its members' labels and its complement)."""
    if st.space.dims != (2, 2, 2):
        raise ValueError(f"the flag is defined for three qubits, got {st.space}")
    ranks = schmidt_rank_table(st.matrix(), enumerate_cuts(st.space), tol)
    labels = [classify_from_ranks(m, r).label for m, r in zip(st.states, ranks)]
    return spans_ghz_and_w(labels, orthogonal_complement(st, tol), tol)
