#!/usr/bin/env python3
"""Mutation check of the certificates behind uebkit's EXACT grades.

Each mutant below is one textual replacement in one source file, a wrong
version of a certificate or of the check guarding it, together with the
tests that must fail once it is applied. For every mutant the runner copies
src/, tests/ and pyproject.toml into a fresh temporary directory, applies
the replacement there (its old text must occur exactly once in the file),
and runs the named tests against the copy. The mutant is killed when they
fail; it survives when they all pass. Before any mutant, the union of the
named tests must pass on an unmutated copy, so that a kill shows the
mutation and not a test that fails anyway. The working tree is never touched.

    python tools/mutants.py

Exit status 0 when every mutant is killed, 1 when the named tests fail
unmutated or any mutant survives or cannot be run (old text missing or
repeated, unknown test id, timeout). Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "M3", "src/uebkit/subspaces.py",  # a snapped vector off the subspace becomes the witness
        "if float(np.linalg.norm(cand - inside)) > 1e-12:",
        "if float(np.linalg.norm(cand - inside)) > 1e9:",
        ("tests/test_subspaces.py::test_snapped_witness_lies_in_the_subspace",),
    ),
    Mutant(
        "M11", "src/uebkit/subspaces.py",  # completion keeps ME witnesses graded NUMERICAL_EVIDENCE
        "if v.status is not SubspaceStatus.ME_FOUND or v.grade is not Grade.EXACT:",
        "if v.status is not SubspaceStatus.ME_FOUND:",
        ("tests/test_subspaces.py::test_max_entangled_completion_keeps_only_exact_witnesses",),
    ),
    Mutant(
        "M12", "src/uebkit/cuts.py",  # the triangle bound counts although delta >= eps
        "rows = np.flatnonzero((delta >= eps) |",
        "rows = np.flatnonzero((delta >= 10 * eps) |",
        ("tests/test_cuts.py::test_rank_table_below_the_rounding_margin",),
    ),
    Mutant(
        "qr-fallback", "src/uebkit/cuts.py",  # a member the bound cannot certify counted as h
        "rows = np.flatnonzero((delta >= eps) | (factors.prod(axis=1) <= eps + delta))",
        "rows = np.flatnonzero(delta >= eps)",
        ("tests/test_cuts.py::test_rank_table_near_the_tolerance",),
    ),
    Mutant(
        "triangle-margin", "src/uebkit/cuts.py",  # the bound need only exceed eps, not eps + delta
        "(factors.prod(axis=1) <= eps + delta)",
        "(factors.prod(axis=1) <= eps)",
        ("tests/test_cuts.py::test_rank_table_bound_inside_the_margin_falls_back",),
    ),
    Mutant(
        "sparse-near-eps", "src/uebkit/cuts.py",  # closed-form values near eps no longer go dense
        "dense = (delta >= eps) | shared.any(axis=1) & near(norm) | ~shared.all(axis=1) & (near(a) | near(b))",
        "dense = delta >= eps",
        ("tests/test_cuts.py::test_sparse_route_near_the_tolerance",),
    ),
    Mutant(
        "root-copy", "src/uebkit/cuts.py",  # an identity reshape is a view, so a root factors the read-only members
        'return np.array(t.transpose(perm), order="C").reshape(shape)',
        "return np.ascontiguousarray(t.transpose(perm)).reshape(shape)",
        ("tests/test_cuts.py::test_rank_table_leaves_a_read_only_input_unchanged",),
    ),
    Mutant(
        "tree-height", "src/uebkit/cuts.py",  # a node's children take one row fewer than its kept height
        "kept = r[:, : max(heights.max(), 1)]",
        "kept = r[:, : max(heights.max() - 1, 1)]",
        ("tests/test_cuts.py::test_cut_tree_walk_matches_the_svd_loop",),
    ),
    Mutant(
        "tree-digit", "src/uebkit/cuts.py",  # the moved party's digit stays in the columns
        "rows, cols = (j, 1), tuple(i for i in range(2, t.ndim) if i != j)",
        "rows, cols = (1,), tuple(i for i in range(2, t.ndim) if i != j) + (j,)",
        ("tests/test_cuts.py::test_cut_tree_walk_matches_the_svd_loop",),
    ),
    Mutant(
        "me-grade", "src/uebkit/subspaces.py",  # every ME witness in the band graded EXACT
        "grade = Grade.EXACT if is_maximally_entangled(witness, cut, tol) else Grade.NUMERICAL_EVIDENCE",
        "grade = Grade.EXACT",
        ("tests/test_subspaces.py::test_me_search_decision_flips_only_across_the_band_edge",),
    ),
    Mutant(
        "two-rounds-check", "src/uebkit/subspaces.py",  # the first accepted endpoint is the witness unchecked
        "if check(witness, cut, tol):",
        "if True:",
        ("tests/test_subspaces.py::test_product_search_decision_flips_only_across_the_accept_gate",),
    ),
    Mutant(
        "rank-cap", "src/uebkit/subspaces.py",  # a support cap equal to min(dA, dB) refuses too
        "if bound < dmin:",
        "if bound <= dmin:",
        ("tests/test_subspaces.py::test_find_maximally_entangled_in_full_space",),
    ),
    Mutant(
        "me-band", "src/uebkit/subspaces.py",  # a wider band takes misses for ME_FOUND
        "if not _in_me_band(sv, _TOL_ME):",
        "if not _in_me_band(sv, 1e-3):",
        ("tests/test_subspaces.py::test_me_search_decision_flips_only_across_the_band_edge",),
    ),
    Mutant(
        "no-exact-rule", "src/uebkit/subspaces.py",  # a numerical refusal ends completion as NO_EXACT
        "exact = v.status is SubspaceStatus.NO_ME_FOUND and v.grade is Grade.EXACT",
        "exact = v.status is SubspaceStatus.NO_ME_FOUND",
        ("tests/test_subspaces.py::test_umeb_witness_outside_the_band_is_inconclusive",),
    ),
    Mutant(
        "rotated-table", "src/uebkit/subspaces.py",  # a rotated basis is returned without its rank table
        "if schmidt_rank_table(found.matrix(), [cut], tol).min() >= 2:",
        "if True:",
        ("tests/test_subspaces.py::test_entangled_completion_near_the_tolerance",),
    ),
    Mutant(
        "umeb-members", "src/uebkit/subspaces.py",  # UMEB members are not checked maximally entangled
        "weak = [i for i, psi in enumerate(st.states) if not is_maximally_entangled(psi, cuts[0], tol)]",
        "weak = []",
        ("tests/test_subspaces.py::test_verify_basis_flags_product_member_first",),
    ),
    Mutant(
        "support-one-column", "src/uebkit/subspaces.py",  # support ranks read only the R+A|B column
        "ranks[counted] = np.minimum(table[0::2], table[1::2])",
        "ranks[counted] = table[0::2]",
        ("tests/test_subspaces.py::test_dimension_lemma_boundary",),
    ),
    Mutant(
        "lemma-min-dim", "src/uebkit/subspaces.py",  # the dimension lemma bounds by min(dA, dB) on both sides
        "(wide <= r * da * lam + (db - r) * slack) | (wide <= r * db * lam + (da - r) * slack)",
        "(wide <= r * ranks * lam + (db - r) * slack) | (wide <= r * ranks * lam + (da - r) * slack)",
        ("tests/test_subspaces.py::test_dimension_lemma_boundary",),
    ),
    Mutant(
        "probe-one-column", "src/uebkit/subspaces.py",  # every open cut takes the first open cut's hit
        "for j, col in zip(todo, hit.T):",
        "for j, col in zip(todo, hit.T[[0] * len(todo)]):",
        ("tests/test_subspaces.py::test_entangled_probe_matches_the_svd_reference",),
    ),
    Mutant(
        "unit-rule", "src/uebkit/states.py",  # the amplitude check of states and sets keeps drifted norms
        "return amps / norm if abs(norm - 1.0) > _EXACT_SLACK else amps",
        "return amps",
        ("tests/test_states.py::test_small_norm_drift_is_renormalized",),
    ),
    Mutant(
        "gram-check", "src/uebkit/states.py",  # a set of non-orthogonal rows is accepted
        "if worst > DEFAULT_EPS:",
        "if worst > 1.0:",
        ("tests/test_states.py::test_state_set_requires_orthonormal_members",),
    ),
]


def run_tests(m: Mutant | None, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """(pytest exit status, last output line) of tests run on a fresh copy with mutant m
    applied, or on an unmutated copy when m is None. The status is None when the
    mutant cannot be applied or the tests time out, with the reason as the line."""
    with tempfile.TemporaryDirectory(prefix="uebkit-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if m is not None:
            target = work / m.file
            text = target.read_text()
            if text.count(m.old) != 1:
                return None, f"old text occurs {text.count(m.old)} times in {m.file}"
            target.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"tests ran over {TIMEOUT_S} s"
    return done.returncode, (done.stdout.strip().splitlines()[-1:] or [""])[0]


def run_mutant(m: Mutant) -> tuple[str, str]:
    """('killed' | 'survived' | 'error', detail) for one mutant."""
    status, tail = run_tests(m, m.tests)
    if status == 1:  # pytest: some test failed
        return "killed", tail
    if status == 0:
        return "survived", tail
    return "error", tail if status is None else f"pytest exit {status}: {tail}"


def main() -> int:
    # a kill only shows the mutation when the named tests pass without it
    named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    status, tail = run_tests(None, named)
    print(f"{'unmutated':18} {'passed' if status == 0 else 'failed':8} {tail}", flush=True)
    if status != 0:
        print("the named tests must pass on an unmutated copy before any mutant counts")
        return 1
    survived = 0
    for m in MUTANTS:
        start = time.perf_counter()
        verdict, detail = run_mutant(m)
        survived += verdict != "killed"
        print(f"{m.id:18} {verdict:8} {time.perf_counter() - start:6.1f} s  {detail}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
