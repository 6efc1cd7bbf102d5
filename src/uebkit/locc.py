"""Projection reductions that turn multiparty discrimination questions into
two-qubit ones.

One party keeps its qubit while the remaining parties are projected onto a
two-dimensional plane of their joint space. If every selected state survives
with nonzero probability and the survivors stay mutually orthogonal, a local
discrimination protocol for the originals would induce one for the
projections, so two-qubit indistinguishability rules lift back to the full
set. The flags below only ever cite that rule; they do not re-derive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import three_qubit_mixed_ueb
from .cuts import Bipartition, is_product, single_cut
from .states import DEFAULT_EPS, PureState, QuditDims, StateSet, _eps, inner
from .subspaces import Grade


class VanishingProjectionError(RuntimeError):
    """The chosen plane annihilates one of the selected states."""


class ProjectionOrthogonalityError(RuntimeError):
    """The normalized projections are no longer mutually orthogonal."""


def symmetric_bell_plane() -> np.ndarray:
    """Rows spanning the plane of the two symmetric maximally entangled two-qubit states."""
    s = 1.0 / math.sqrt(2.0)
    return np.array([[s, 0.0, 0.0, s], [0.0, s, s, 0.0]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Projected two-qubit states (lone party first, plane index second)."""

    states: StateSet
    probabilities: tuple[float, ...]
    lone_party: int
    cut: Bipartition
    plane: np.ndarray


def project_two_qubit(
    states: Sequence[PureState],
    lone_party: int,
    plane: np.ndarray | None = None,
    tol: float = DEFAULT_EPS,
) -> ProjectionResult:
    """Project every state's non-lone parties onto a two-dimensional plane.

    The lone party must be a qubit; the plane is given as two orthonormal
    rows over the joint space of the remaining parties (defaulting to the
    symmetric maximally entangled plane when that space has dimension four).
    Raises VanishingProjectionError when a state's survival probability falls
    below tolerance and ProjectionOrthogonalityError when the normalized
    survivors lose pairwise orthogonality.
    """
    eps = _eps(tol)
    if not states:
        raise ValueError("need at least one state")
    space = states[0].space
    dims = space.dims
    if any(st.space != space for st in states):
        raise ValueError("states live on different spaces")
    if space.parties < 3:
        raise ValueError("the reduction needs at least three parties")
    if not 0 <= lone_party < space.parties:
        raise ValueError(f"party {lone_party} out of range")
    if dims[lone_party] != 2:
        raise ValueError("the lone party must be a qubit")
    drest = space.total // dims[lone_party]
    if plane is None:
        if drest != 4:
            raise ValueError("the default plane needs a four-dimensional remainder")
        plane = symmetric_bell_plane()
    w = np.asarray(plane, dtype=np.complex128)
    if w.shape != (2, drest):
        raise ValueError(f"plane shape {w.shape} does not match (2, {drest})")
    if float(np.abs(np.conj(w) @ w.T - np.eye(2)).max()) > 1e-9:
        raise ValueError("plane rows must be orthonormal")
    raw: list[np.ndarray] = []
    probs: list[float] = []
    for i, st in enumerate(states):
        t = st.amps.reshape(dims)
        s = np.moveaxis(t, lone_party, 0).reshape(2, drest)
        t_eff = s @ w.conj().T
        p = float(np.linalg.norm(t_eff) ** 2)
        if p < eps:
            raise VanishingProjectionError(f"state {i}: survival probability {p:.3e} below tolerance")
        probs.append(p)
        raw.append(t_eff.reshape(-1) / math.sqrt(p))
    m = np.array(raw)
    gram = np.conj(m) @ m.T
    off = float(np.abs(gram - np.eye(len(raw))).max())
    if off > eps:
        raise ProjectionOrthogonalityError(f"normalized projections deviate from orthogonality by {off:.3e}")
    two = QuditDims((2, 2))
    out = StateSet(two, m)
    cut = Bipartition(space, 1 << lone_party)
    return ProjectionResult(out, tuple(probs), lone_party, cut, w)


@dataclass(frozen=True, eq=False)
class RuleFlag:
    """A cited-rule conclusion: the value, its grade, and the reason it holds."""

    value: bool
    grade: Grade
    reason: str


def walgate_flag(states: StateSet, tol: float = DEFAULT_EPS) -> RuleFlag:
    """Local-indistinguishability flag for orthogonal two-qubit states.

    Cites the rule that three or more mutually orthogonal entangled two-qubit
    states admit no perfect local discrimination (two orthogonal pure states
    always do). True means the threshold is met; the grade records that the
    rule is cited, not re-proved here.
    """
    if states.space.dims != (2, 2):
        raise ValueError(f"the rule applies to two-qubit states, got {states.space}")
    if len(states) < 3:
        raise ValueError("the rule needs at least three states")
    cut = single_cut(states.space)
    entangled = sum(1 for s in states.states if not is_product(s, cut, tol))
    value = entangled >= 3
    detail = "meets" if value else "is below"
    reason = f"{entangled} of {len(states)} orthogonal projections entangled, which {detail} the rule threshold of 3"
    return RuleFlag(value, Grade.RULE_BASED_CITED, reason)


def mask_isolating(lone: int) -> int:
    """Canonical three-party cut mask whose singleton block is the given party."""
    return Bipartition(QuditDims((2, 2, 2)), 1 << lone).mask


@dataclass(frozen=True, eq=False)
class CutProjectionFlag:
    """Per-cut certificate: the flag plus the projection data behind it."""

    flag: RuleFlag
    selection: tuple[int, ...]
    probabilities: tuple[float, ...]
    lone_party: int


def all_cut_indistinguishability_flag(
    st: StateSet,
    tol: float = DEFAULT_EPS,
    planes: dict[int, np.ndarray] | None = None,
) -> dict[int, CutProjectionFlag]:
    """Per-cut projection certificates for a three-qubit set, keyed by cut mask.

    Each party in turn keeps its qubit while the other two are projected onto
    the symmetric maximally entangled plane, or onto a caller-supplied plane
    keyed by the cut's mask. When the input extends the mixed-class
    seven-state family (first five members match), the selection per lone
    party drops the two sign states the default plane annihilates; otherwise
    all states are selected. A true flag means that cut's projection leaves
    at least three orthogonal entangled survivors; projection failures
    (vanishing or orthogonality-breaking) propagate to the caller, since they
    mean the reduction does not apply as configured.
    """
    if st.space.dims != (2, 2, 2):
        raise ValueError(f"the flag is defined for three qubits, got {st.space}")
    ref = three_qubit_mixed_ueb()
    if len(st) >= 5 and all(abs(inner(st.states[i], ref.states[i])) ** 2 > 1.0 - 1e-9 for i in range(5)):
        selections = {0: (0, 1, 4), 1: (0, 2, 4), 2: (0, 3, 4)}
    else:
        selections = {lone: tuple(range(len(st))) for lone in range(3)}
    out: dict[int, CutProjectionFlag] = {}
    for lone in range(3):
        idxs = selections[lone]
        mask = mask_isolating(lone)
        plane = planes.get(mask) if planes else None
        proj = project_two_qubit([st.states[i] for i in idxs], lone, plane, tol)
        sub = walgate_flag(proj.states, tol)
        out[mask] = CutProjectionFlag(sub, idxs, proj.probabilities, lone)
    return out
