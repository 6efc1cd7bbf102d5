"""Independent checks of uebkit's outputs, written in plain numpy.

Nothing here imports uebkit. Schmidt ranks, orthogonality, maximal
entanglement and three-tangles are recomputed from the amplitudes a report
or a state file carries, so that a wrong verdict cannot vouch for itself.
Every check appends a readable message to a Problems list; an operation
with any message printed a wrong answer. A search result that falls short
of what the benchmark expects but holds what the search claims is a near
miss, kept apart in Problems.misses: the operation failed, but its output
is not wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.linalg import svd as _svd  # bound at import: the traced run later patches numpy.linalg.svd

EPS = 1e-9  # uebkit's default tolerance
TOL_ME = 1e-7  # SearchConfig.tol_me: acceptance band of a numerical maximally entangled witness


class Problems(list):
    """Failure messages of one operation: wrong answers in the list, search misses in .misses."""

    def __init__(self) -> None:
        super().__init__()
        self.misses: list[str] = []

    def miss(self, msg: str) -> None:
        self.misses.append(msg)

    def expect(self, cond: bool, msg: str) -> bool:
        if not cond:
            self.append(msg)
        return bool(cond)

    def equal(self, what: str, got, want) -> bool:
        return self.expect(got == want, f"{what}: got {got!r}, expected {want!r}")


def vectors(payload) -> np.ndarray:
    """(count, D) complex array from a list of [re, im] pair lists."""
    arr = np.asarray(payload, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    return arr[..., 0] + 1j * arr[..., 1]


def cut_masks(parties: int) -> list[int]:
    """Canonical masks: bit i set when party i is on the A side, party 0 always there."""
    return list(range(1, (1 << parties) - 1, 2))


def cut_label(parties: int, mask: int) -> str:
    a = [str(i + 1) for i in range(parties) if mask >> i & 1]
    b = [str(i + 1) for i in range(parties) if not mask >> i & 1]
    sep = "" if parties <= 9 else ","
    return f"{sep.join(a)}|{sep.join(b)}"


def schmidt_values(vecs: np.ndarray, dims, mask: int) -> np.ndarray:
    """Singular values of each row of vecs reshaped across the cut, shape (count, min(dA, dB))."""
    vecs = np.atleast_2d(vecs)
    parties = len(dims)
    a = [i for i in range(parties) if mask >> i & 1]
    b = [i for i in range(parties) if not mask >> i & 1]
    da = math.prod(dims[i] for i in a)
    t = vecs.reshape((len(vecs), *dims)).transpose([0] + [i + 1 for i in a + b])
    return _svd(t.reshape(len(vecs), da, -1), compute_uv=False)


def ranks(vecs: np.ndarray, dims, mask: int, eps: float = EPS) -> np.ndarray:
    return (schmidt_values(vecs, dims, mask) > eps).sum(axis=1)


def rank_table(vecs: np.ndarray, dims) -> dict[str, np.ndarray]:
    """Schmidt rank of every row at every cut, keyed by cut label."""
    p = len(dims)
    return {cut_label(p, m): ranks(vecs, dims, m) for m in cut_masks(p)}


def three_tangle(v: np.ndarray) -> float:
    """4 |Det| of the 2x2x2 hypermatrix, as the discriminant of det(x A0 + y A1)."""
    a0, a1 = v.reshape(2, 2, 2)
    p, r = np.linalg.det(a0), np.linalg.det(a1)
    q = np.linalg.det(a0 + a1) - p - r
    return float(4.0 * abs(q * q - 4.0 * p * r))


def check_orthonormal(pr: Problems, vecs: np.ndarray, what: str) -> None:
    if len(vecs):
        dev = float(np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs))).max())
        pr.expect(dev <= EPS, f"{what}: not orthonormal (deviation {dev:.2e})")


def check_orthogonal_to(pr: Problems, vecs: np.ndarray, others: np.ndarray, what: str) -> None:
    if len(vecs) and len(others):
        dev = float(np.abs(others.conj() @ vecs.T).max())
        pr.expect(dev <= EPS, f"{what}: not orthogonal to the input states (overlap {dev:.2e})")


def check_in_span(pr: Problems, vec: np.ndarray, basis: np.ndarray, what: str) -> None:
    """basis holds orthonormal rows."""
    resid = float(np.linalg.norm(vec - (basis.conj() @ vec) @ basis))
    pr.expect(resid <= EPS, f"{what}: witness lies outside the subspace (residual {resid:.2e})")


def check_entangled(pr: Problems, vec: np.ndarray, dims, mask: int, what: str) -> None:
    r = int(ranks(vec, dims, mask)[0])
    pr.expect(r >= 2, f"{what}: Schmidt rank {r} at cut {cut_label(len(dims), mask)}, expected >= 2")


def check_product(pr: Problems, vec: np.ndarray, dims, mask: int, what: str) -> None:
    sv = schmidt_values(vec, dims, mask)[0]
    pr.expect(sv[1] <= EPS, f"{what}: not a product vector at cut {cut_label(len(dims), mask)} (sigma2 {sv[1]:.2e})")


def check_max_entangled(pr: Problems, vec: np.ndarray, dims, mask: int, tol: float, what: str) -> None:
    sv = schmidt_values(vec, dims, mask)[0]
    dev = float(np.abs(sv - 1.0 / math.sqrt(sv.size)).max())
    pr.expect(dev <= tol, f"{what}: Schmidt coefficients off 1/sqrt({sv.size}) by {dev:.2e} > {tol:.0e}")


def check_me_band(pr: Problems, vec: np.ndarray, dims, mask: int, tol: float, what: str) -> None:
    """A numerically found maximally entangled witness, graded against the search's band.

    The search accepts once the smallest Schmidt coefficient is within tol of
    1/sqrt(d); below that the witness is wrong. Normalization then lets the
    other coefficients sit up to (d-1) tol above 1/sqrt(d), so for d > 2 a
    coefficient off by more than tol is a near miss: the operation fails,
    but the witness holds what the search claims.
    """
    sv = schmidt_values(vec, dims, mask)[0]
    target = 1.0 / math.sqrt(sv.size)
    low = target - float(sv[-1])
    if pr.expect(low <= tol, f"{what}: smallest Schmidt coefficient {low:.2e} below 1/sqrt({sv.size}), "
                             f"beyond the band {tol:.0e}"):
        dev = float(np.abs(sv - target).max())
        if dev > tol:
            pr.miss(f"{what}: Schmidt coefficients off 1/sqrt({sv.size}) by {dev:.2e} > {tol:.0e}, "
                    f"the smallest within it, a near miss")


def check_product_everywhere(pr: Problems, vecs: np.ndarray, dims, what: str) -> None:
    for m in cut_masks(len(dims)):
        for j, v in enumerate(vecs):
            check_product(pr, v, dims, m, f"{what}[{j}]")


def check_per_cut(pr: Problems, per_cut: list, dims, want: list[tuple[int, str, str]], inputs: np.ndarray | None) -> None:
    """Per-cut verdict rows: (mask, status, grade) in order, plus the witness each status implies."""
    pr.equal("per_cut", [(c["mask"], c["status"], c["grade"]) for c in per_cut], want)
    for c in per_cut:
        if c["witness"] is None:
            continue
        w = vectors(c["witness"])[0]
        what = f"per_cut {c['mask']} witness"
        if c["status"] == "CONTAINS_ENTANGLED":
            check_entangled(pr, w, dims, c["mask"], what)
        elif c["status"] == "ME_FOUND":
            check_max_entangled(pr, w, dims, c["mask"], EPS if c["grade"] == "EXACT" else TOL_ME, what)
        elif c["status"] == "PRODUCT_FOUND":
            check_product(pr, w, dims, c["mask"], what)
        if inputs is not None:
            check_orthogonal_to(pr, w[None], inputs, what)


def check_diagnostics(pr: Problems, states: list, table: dict[str, np.ndarray]) -> None:
    """The report's per-state block against an independently computed rank table."""
    pr.equal("states count", len(states), len(next(iter(table.values()))))
    for i, entry in enumerate(states):
        want = {label: int(r[i]) for label, r in table.items()}
        got = entry["schmidt_ranks"]
        if got != want:
            wrong = [label for label in want if got.get(label) != want[label]] or sorted(set(got) - set(want))
            label = wrong[0]
            pr.append(f"states[{i}].schmidt_ranks at {label}: got {got.get(label)}, expected {want.get(label)} "
                      f"({len(wrong)} cuts differ)")
            return
        pr.equal(f"states[{i}].genuinely_entangled", entry["genuinely_entangled"], min(want.values()) >= 2)


def check_complement(pr: Problems, comp: dict, dim: int, dims, inputs: np.ndarray | None, product: bool) -> np.ndarray:
    pr.equal("complement.dim", comp["dim"], dim)
    basis = vectors(comp["basis"]) if comp["basis"] else np.zeros((0, math.prod(dims)), complex)
    pr.equal("complement basis size", len(basis), dim)
    check_orthonormal(pr, basis, "complement basis")
    if inputs is not None:
        check_orthogonal_to(pr, basis, inputs, "complement basis")
    if product:
        check_product_everywhere(pr, basis, dims, "complement basis")
    return basis


def load_json(pr: Problems, text: str) -> dict | None:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        pr.append(f"stdout is not JSON: {exc}")
        return None
    if not isinstance(doc, dict):
        pr.append("stdout is not a JSON object")
        return None
    return doc


def parse_text_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out
