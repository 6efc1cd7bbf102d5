"""The benchmark's workloads: seeded inputs, the operations of one pass, and what each must output.

A workload's set-up generates its inputs from the workload seed and writes
them into the pass's work directory; it returns the list of operations one
pass runs, in order. An operation is one uebkit CLI command or one call to a
public library function. Each carries its expected exit code and verdict
fields (from the paper's claims and the catalog's registered outcomes) and
a check that re-derives every reported witness in plain numpy (oracle.py).

allcuts-verify   verify and analyze on seeded nqubit-ueb state files, n = 6, 7, 8.
                 The read path on large inputs: statefile parsing, states
                 validation, cuts.schmidt, the exact per-cut test in
                 subspaces.verify_basis and report. The complement is one ray,
                 so the multi-start searches do no work here.
complement-search  the completion and witness searches on 2x3, 3x3 and 2x4.
                 subspaces search self time and svd call overhead dominate;
                 state files and reports are tiny.
cli-sweep        many small commands, each its own `python -m uebkit.cli`
                 process: start-up, cli glue, the catalog gates, slocc and
                 locc, and statefile's write side.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from oracle import (
    EPS,
    TOL_ME,
    Problems,
    check_complement,
    check_diagnostics,
    check_entangled,
    check_in_span,
    check_max_entangled,
    check_me_band,
    check_orthogonal_to,
    check_orthonormal,
    check_per_cut,
    check_product,
    cut_masks,
    load_json,
    parse_text_report,
    rank_table,
    ranks,
    three_tangle,
    vectors,
)


@dataclass
class Op:
    """One timed operation: run() is timed, render() and check() are not.

    repeated: the operation has the same inputs in every pass of a run, so
    its repeats must print identical bytes.
    """

    id: str
    run: Callable[[], tuple[int, object]]
    check: Callable[[int, str], Problems]
    render: Callable[[object], str] = str
    repeated: bool = True


@dataclass
class Pass:
    """What a workload's set-up needs to know about the pass it runs in."""

    root: Path
    work: Path
    seed: int
    index: int
    trace: bool
    spans_prefix: Path  # traced cli-sweep operations write their spans to <prefix>-op<i>.npz
    input_bytes: dict[str, int] = field(default_factory=dict)


def _ueb():
    # looked up at call time, so the traced run's wrappers are the ones called
    return importlib.import_module("uebkit")


# ---------------------------------------------------------------- inputs


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_basis(total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """(k, total) orthonormal rows spanning a Haar-random k-dimensional subspace."""
    z = rng.standard_normal((total, k)) + 1j * rng.standard_normal((total, k))
    return np.linalg.qr(z)[0].T.copy()


def rotate(m: np.ndarray, us: list[np.ndarray]) -> np.ndarray:
    """Apply one local unitary per party to every row of m."""
    dims = [len(u) for u in us]
    t = m.reshape(len(m), *dims)
    for party, u in enumerate(us):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [party + 1])), 0, party + 1)
    return t.reshape(len(m), -1)


def pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def write_state_file(p: Pass, name: str, doc: dict) -> str:
    """Write a state-file document the way uebkit formats one; record its size."""
    text = json.dumps(doc, indent=2) + "\n"
    (p.work / name).write_text(text)
    p.input_bytes[name] = len(text.encode())
    return name


def state_doc(m: np.ndarray, dims, kind: str | None, name: str) -> dict:
    return {"name": name, "dims": list(dims), "kind": kind, "states": pairs(m)}


# ---------------------------------------------------------------- running


def cli_inprocess(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = _ueb().cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    return run


def cli_process(p: Pass, index: int, argv: list[str]) -> Callable[[], tuple[int, str]]:
    """`python -m uebkit.cli argv` in the work directory; traced through tracecli.py."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(x for x in (str(p.root / "src"), env.get("PYTHONPATH")) if x)
    if p.trace:
        spans = f"{p.spans_prefix}-op{index}.npz"
        cmd = [sys.executable, str(p.root / "perfbench" / "tracecli.py"), spans, str(index), *argv]
    else:
        cmd = [sys.executable, "-m", "uebkit.cli", *argv]

    def run() -> tuple[int, str]:
        proc = subprocess.run(cmd, cwd=p.work, env=env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    return run


def library(call: Callable[[], object]) -> Callable[[], tuple[int, object]]:
    return lambda: (0, call())


def verdict_text(v) -> str:
    """Canonical serialization of a SubspaceVerdict: a library operation's 'stdout'."""
    return json.dumps(
        {
            "status": v.status.value,
            "grade": v.grade.value,
            "score": v.score,
            "reason": v.reason,
            "witness": None if v.witness is None else pairs(v.witness.amps),
        }
    )


def _report(code: int, text: str, want_code: int) -> tuple[Problems, dict | None]:
    pr = Problems()
    pr.equal("exit code", code, want_code)
    return pr, load_json(pr, text)


# ---------------------------------------------------------------- allcuts-verify


class NQubitInput:
    """A seeded nqubit-ueb file: the family under Haar local unitaries, rows shuffled.

    Local unitaries keep every verdict, so the expected answer is fixed: all
    cuts ONLY_PRODUCT, complement the rotated ray |1...1>.
    """

    def __init__(self, p: Pass, n: int) -> None:
        rng = np.random.default_rng([p.seed, n])
        us = [haar_unitary(2, rng) for _ in range(n)]
        m = rotate(_ueb().n_qubit_ueb(n).matrix(), us)  # the gated construction
        self.n, self.dims, self.states = n, (2,) * n, m[rng.permutation(len(m))]
        self.ray = us[0][:, 1]
        for u in us[1:]:
            self.ray = np.kron(self.ray, u[:, 1])
        self.file = write_state_file(p, f"ueb{n}.json", state_doc(self.states, self.dims, "UEB_ALL_CUTS", f"nqubit-ueb-{n}"))
        self._table = None

    @property
    def table(self) -> dict[str, np.ndarray]:
        if self._table is None:
            self._table = rank_table(self.states, self.dims)
        return self._table

    def check(self, code: int, text: str, command: str) -> Problems:
        pr, doc = _report(code, text, 0)
        if doc is None:
            return pr
        pr.equal("command", doc.get("command"), command)
        pr.equal("input.count", doc["input"]["count"], len(self.states))
        if command == "verify":
            pr.equal("outcome", doc["outcome"], "VERIFIED")
            pr.equal("grade", doc["grade"], "EXACT")
            pr.equal("complement_dim", doc["complement_dim"], 1)
            pr.equal("offending_state", doc["offending_state"], None)
            check_per_cut(pr, doc["per_cut"], self.dims, [(m, "ONLY_PRODUCT", "EXACT") for m in cut_masks(self.n)], self.states)
        check_diagnostics(pr, doc["states"], self.table)
        basis = check_complement(pr, doc["complement"], 1, self.dims, self.states, product=False)
        if len(basis) == 1:
            overlap = abs(np.vdot(self.ray, basis[0]))
            pr.expect(overlap >= 1 - EPS, f"complement ray differs from the rotated |1...1> (overlap {overlap:.12f})")
        return pr


def setup_allcuts(p: Pass) -> list[Op]:
    ops = []
    for n in (6, 7, 8):
        inp = NQubitInput(p, n)
        for command in ("verify", "analyze"):
            ops.append(Op(f"{command} ueb{n}", cli_inprocess([command, inp.file]),
                          lambda code, text, inp=inp, command=command: inp.check(code, text, command)))
    return ops


# ---------------------------------------------------------------- complement-search

# Prop. 2a: three maximally entangled states of 2x3 whose complement holds one
# maximally entangled direction, |phi+>, next to an only-product plane.
_R2 = 1 / math.sqrt(2)
PROP2A = np.zeros((3, 6), complex)
PROP2A[0, [0, 4]] = _R2, -_R2
PROP2A[1, [1, 3]] = _R2, _R2
PROP2A[2, [1, 3]] = _R2, -_R2
PHI_PLUS = np.zeros(6, complex)
PHI_PLUS[[0, 4]] = _R2

# (dims, subspace dimension): each shape on both sides of (dA-1)(dB-1).
# Above it a product vector must exist; at it a Haar subspace holds none.
SEARCH_CASES = (((3, 3), 4), ((3, 3), 5), ((2, 4), 3), ((2, 4), 4))
# A NO_PRODUCT_FOUND above the bound is a failed operation. It is a wrong
# answer unless it is a near miss: graded NUMERICAL_EVIDENCE (the search
# never claims that no product vector exists), with a best impurity (sum of
# squared 2x2 minors, about sigma2^2) between uebkit's accept gate eps^2 and
# NEAR_MISS, that is sigma2 within 1e-6. uebkit misses so on about 2 % of
# above-bound Haar subspaces, at impurities 1.4e-18 to 1.7e-15 (30 misses):
# its polish reaches a product vector but stops short of eps^2. Searches that
# end at a non-product minimum, as on every below-bound subspace, score 8e-4
# and up (50 subspaces). No best impurity, or one above NEAR_MISS, is wrong.
NEAR_MISS = 1e-12
# Haar subspaces per case and pass. Search time varies a lot from one
# subspace to the next, so every pass draws fresh ones: a run then averages
# over passes x SEARCH_INSTANCES subspaces per case instead of repeating one.
SEARCH_INSTANCES = 3


def _check_phi_plus(pr: Problems, w: np.ndarray, what: str) -> None:
    fid = abs(np.vdot(PHI_PLUS, w)) ** 2
    pr.expect(fid > 1 - EPS, f"{what}: fidelity with |phi+> is {fid:.12f}")


def _check_prop2a(pr: Problems, doc: dict) -> None:
    check_diagnostics(pr, doc["states"], rank_table(PROP2A, (2, 3)))
    check_complement(pr, doc["complement"], 3, (2, 3), PROP2A, product=False)


def check_prop2a_completion(code: int, text: str, mode: str) -> Problems:
    pr, doc = _report(code, text, 0)
    if doc is None:
        return pr
    _check_prop2a(pr, doc)
    c = doc["completion"]
    found = 3 if mode == "ENTANGLED" else 1
    pr.equal("completion", (c["mode"], c["complement_dim"], c["found"], c["completable"]),
             (mode, 3, found, "YES" if mode == "ENTANGLED" else "NO_EXACT"))
    pr.equal("extended_space", doc["extended_space"], {"status": "OUT_OF_SCOPE"})
    added = vectors(c["added_states"]) if c["added_states"] else np.zeros((0, 6), complex)
    pr.equal("added states", len(added), found)
    check_orthonormal(pr, added, "added states")
    check_orthogonal_to(pr, added, PROP2A, "added states")
    for j, w in enumerate(added):
        if mode == "ENTANGLED":
            check_entangled(pr, w, (2, 3), 1, f"added state {j}")
        else:
            check_max_entangled(pr, w, (2, 3), 1, EPS, f"added state {j}")
            _check_phi_plus(pr, w, f"added state {j}")
    return pr


def check_prop2a_umeb(code: int, text: str) -> Problems:
    pr, doc = _report(code, text, 1)
    if doc is None:
        return pr
    _check_prop2a(pr, doc)
    pr.equal("verdict", (doc["outcome"], doc["grade"], doc["complement_dim"]), ("REFUTED", "EXACT", 3))
    check_per_cut(pr, doc["per_cut"], (2, 3), [(1, "ME_FOUND", "EXACT")], PROP2A)
    if doc["per_cut"] and doc["per_cut"][0]["witness"] is not None:
        _check_phi_plus(pr, vectors(doc["per_cut"][0]["witness"])[0], "witness")
    else:
        pr.append("REFUTED without a witness")
    return pr


def check_meb_refusal(code: int, text: str, m: np.ndarray, d: int, n: int) -> Problems:
    pr, doc = _report(code, text, 0)
    if doc is None:
        return pr
    c = doc["completion"]
    pr.equal("completion", (c["mode"], c["complement_dim"], c["found"], c["completable"]),
             ("MAX_ENTANGLED", d * n, 0, "NO_EXACT"))
    pr.equal("extended_space", doc["extended_space"], {
        "status": "COMPLETABLE_IN_EXTENDED_SPACE",
        "extended_dims": [d, 2 * d],
        "extension_count": 2 * d * d,
        "extension_outcome": "COMPLETE_BASIS",
    })
    basis = check_complement(pr, doc["complement"], d * n, (d, d + n), m, product=False)
    if len(basis):
        spill = float(np.abs(basis.reshape(len(basis), d, d + n)[:, :, :d]).max())
        pr.expect(spill <= EPS, f"complement leaks into the first {d} columns ({spill:.2e})")
    return pr


class SearchInput:
    """A Haar-random subspace for the library searches, drawn afresh in every pass."""

    def __init__(self, p: Pass, case: int, instance: int) -> None:
        (self.dims, self.k) = SEARCH_CASES[case]
        rng = np.random.default_rng([p.seed, 1, p.index, case, instance])
        self.rows = haar_basis(math.prod(self.dims), self.k, rng)
        self.above = self.k > (self.dims[0] - 1) * (self.dims[1] - 1)
        coeffs = rng.standard_normal(self.k) + 1j * rng.standard_normal(self.k)
        self.generic_rank = int(ranks(coeffs @ self.rows, self.dims, 1)[0])
        ueb = _ueb()
        space = ueb.QuditDims(self.dims)
        self.subspace = ueb.Subspace(space, tuple(ueb.PureState(space, r) for r in self.rows))
        self.cut = ueb.single_cut(space)
        self.cfg = ueb.SearchConfig(seed=p.seed)
        self.tag = f"{self.dims[0]}x{self.dims[1]}k{self.k}#{instance}"

    def check_product(self, code: int, text: str) -> Problems:
        pr, v = Problems(), json.loads(text)
        if v["status"] == "PRODUCT_FOUND":
            pr.equal("grade", v["grade"], "EXACT")
            w = vectors(v["witness"])[0]
            check_product(pr, w, self.dims, 1, "product witness")
            check_in_span(pr, w, self.rows, "product witness")
        elif pr.equal("status", v["status"], "NO_PRODUCT_FOUND") and self.above:
            bound = (self.dims[0] - 1) * (self.dims[1] - 1)
            msg = (f"dimension {self.k} > {bound} = (dA-1)(dB-1) holds a product vector, "
                   f"search returned NO_PRODUCT_FOUND (grade {v['grade']}, score {v['score']})")
            score = v["score"]
            if v["grade"] == "NUMERICAL_EVIDENCE" and v["witness"] is None and score is not None \
                    and EPS * EPS <= score <= NEAR_MISS:
                pr.miss(msg + ", a near miss")
            else:
                pr.append(msg)
        return pr

    def check_me(self, code: int, text: str) -> Problems:
        pr, v = Problems(), json.loads(text)
        if v["status"] == "ME_FOUND":
            w = vectors(v["witness"])[0]
            if v["grade"] == "EXACT":
                check_max_entangled(pr, w, self.dims, 1, EPS, "ME witness")
            else:
                check_me_band(pr, w, self.dims, 1, TOL_ME, "ME witness")
            check_in_span(pr, w, self.rows, "ME witness")
        else:
            pr.equal("status", v["status"], "NO_ME_FOUND")
            pr.equal("witness", v["witness"], None)
        return pr

    def check_rank(self, code: int, text: str) -> Problems:
        pr = Problems()
        pr.equal("max Schmidt rank", json.loads(text)["rank"], self.generic_rank)
        return pr


def setup_complement(p: Pass) -> list[Op]:
    ueb = _ueb()
    rng = np.random.default_rng([p.seed, 0])
    d = int(rng.integers(3, 5))
    n = int(rng.integers(1, d))
    meb = ueb.embed_meb(d, n).matrix()
    meb_file = write_state_file(p, "meb.json", state_doc(meb, (d, d + n), "UMEB", f"embed-meb-{d}-{n}"))
    seed = ["--seed", str(p.seed)]
    ops = [
        Op("analyze prop2a entangled", cli_inprocess(["analyze", "prop2a-set", "--completion", "entangled", *seed]),
           lambda c, t: check_prop2a_completion(c, t, "ENTANGLED")),
        Op("analyze prop2a max-entangled", cli_inprocess(["analyze", "prop2a-set", "--completion", "max-entangled", *seed]),
           lambda c, t: check_prop2a_completion(c, t, "MAX_ENTANGLED")),
        Op("verify prop2a umeb", cli_inprocess(["verify", "prop2a-set", "--kind", "umeb", *seed]), check_prop2a_umeb),
        Op("analyze meb max-entangled", cli_inprocess(["analyze", meb_file, "--completion", "max-entangled", *seed]),
           lambda c, t: check_meb_refusal(c, t, meb, d, n)),
    ]
    for case in range(len(SEARCH_CASES)):
        for instance in range(SEARCH_INSTANCES):
            s = SearchInput(p, case, instance)
            ops += [
                Op(f"find_product_state {s.tag}",
                   library(lambda s=s: _ueb().find_product_state(s.subspace, s.cut, s.cfg)),
                   s.check_product, verdict_text, repeated=False),
                Op(f"find_maximally_entangled {s.tag}",
                   library(lambda s=s: _ueb().find_maximally_entangled(s.subspace, s.cut, s.cfg)),
                   s.check_me, verdict_text, repeated=False),
                Op(f"max_schmidt_rank_in_subspace {s.tag}",
                   library(lambda s=s: _ueb().max_schmidt_rank_in_subspace(s.subspace, s.cut, s.cfg)),
                   s.check_rank, lambda r: json.dumps({"rank": r}), repeated=False),
            ]
    return ops


# ---------------------------------------------------------------- cli-sweep

# Registered outcome of every catalog entry: dims, members, kind, outcome, complement dimension.
CATALOG = {
    "eq1-ueb": ((2, 2), 3, "UEB", "VERIFIED", 1),
    "eq2-ueb": ((2, 2), 3, "UEB", "VERIFIED", 1),
    "eq3-meb": ((2, 2), 4, "UMEB", "COMPLETE_BASIS", 0),
    "eq3-in-2x3": ((2, 3), 4, "UMEB", "VERIFIED", 2),
    "eq3-eq4-meb": ((2, 4), 8, "UMEB", "COMPLETE_BASIS", 0),
    "eq5-w-ueb": ((2, 2, 2), 6, "UEB_ALL_CUTS", "VERIFIED", 2),
    "eq6-mixed-ueb": ((2, 2, 2), 7, "UEB_ALL_CUTS", "VERIFIED", 1),
    "appendix-4qubit": ((2, 2, 2, 2), 15, "UEB_ALL_CUTS", "VERIFIED", 1),
}
GENERATORS = ["bell-meb", "embed-meb", "nqubit-ueb", "dft-superposition", "prop2a-set"]
# SLOCC labels the paper gives the three-qubit families: eq5 is all W class;
# eq6 has four GHZ-class members (tangle 1) and three W-class ones.
SLOCC = {"eq5-w-ueb": ["W"] * 6, "eq6-mixed-ueb": ["GHZ"] * 4 + ["W"] * 3}


def _check_members(pr: Problems, m: np.ndarray, dims, kind: str) -> None:
    check_orthonormal(pr, m, "states")
    for j, v in enumerate(m):
        if kind == "UMEB":
            check_max_entangled(pr, v, dims, 1, EPS, f"state {j}")
        else:
            for mask in cut_masks(len(dims)) if kind == "UEB_ALL_CUTS" else [1]:
                check_entangled(pr, v, dims, mask, f"state {j}")


def check_catalog_list(code: int, text: str) -> Problems:
    pr, doc = _report(code, text, 0)
    if doc is not None:
        pr.equal("entries", [(e["id"], tuple(e["dims"]), e["kind"], e["expected"]) for e in doc["entries"]],
                 [(k, v[0], v[2], v[3]) for k, v in CATALOG.items()])
        pr.equal("generators", [g["name"] for g in doc["generators"]], GENERATORS)
    return pr


def _check_tangles(pr: Problems, tangles, entry: str) -> None:
    for j, (label, tau) in enumerate(zip(SLOCC[entry], tangles)):
        if label == "W":
            pr.expect(tau < 1e-8, f"tangle of W-class state {j} is {tau}")
        else:
            pr.expect(abs(tau - 1.0) <= 1e-8, f"tangle of GHZ-class state {j} is {tau}, expected 1")


def check_construct_entry(code: int, text: str, entry: str) -> Problems:
    dims, count, kind, outcome, _ = CATALOG[entry]
    pr, doc = _report(code, text, 0)
    if doc is not None:
        pr.equal("construct", (doc["dims"], doc["count"], doc["kind"], doc["gate"]), (list(dims), count, kind, outcome))
        m = vectors(doc["states"])
        _check_members(pr, m, dims, kind)
        if entry in SLOCC:
            _check_tangles(pr, [three_tangle(v) for v in m], entry)
    return pr


def check_verify_entry(code: int, text: str, entry: str) -> Problems:
    dims, count, kind, outcome, comp_dim = CATALOG[entry]
    pr, doc = _report(code, text, 0)
    if doc is None:
        return pr
    pr.equal("verdict", (doc["kind"], doc["outcome"], doc["grade"], doc["complement_dim"]), (kind, outcome, "EXACT", comp_dim))
    if outcome == "COMPLETE_BASIS":
        want = []
    elif kind == "UMEB":
        want = [(1, "NO_ME_FOUND", "EXACT")]
    else:
        want = [(m, "ONLY_PRODUCT", "EXACT") for m in (cut_masks(len(dims)) if kind == "UEB_ALL_CUTS" else [1])]
    check_per_cut(pr, doc["per_cut"], dims, want, None)
    pr.expect(all(s["genuinely_entangled"] for s in doc["states"]), "a member is not entangled at every cut")
    check_complement(pr, doc["complement"], comp_dim, dims, None, product=outcome == "VERIFIED")
    return pr


def _check_slocc(pr: Problems, slocc: dict, entry: str) -> None:
    pr.equal("slocc.labels", slocc["labels"], SLOCC[entry])
    _check_tangles(pr, slocc["tangles"], entry)


def check_analyze_entry(code: int, text: str, entry: str, fmt: str) -> Problems:
    dims, count, kind, outcome, comp_dim = CATALOG[entry]
    if fmt == "text":
        pr = Problems()
        pr.equal("exit code", code, 0)
        flat = parse_text_report(text)
        pr.equal("text report", (flat.get("command"), flat.get("input.name"), flat.get("complement.dim"), flat.get("slocc.labels")),
                 ("analyze", entry, str(comp_dim), json.dumps(SLOCC[entry])))
        return pr
    pr, doc = _report(code, text, 0)
    if doc is None:
        return pr
    _check_slocc(pr, doc["slocc"], entry)
    check_complement(pr, doc["complement"], comp_dim, dims, None, product=True)
    if entry == "eq6-mixed-ueb":
        # the mixed family is flagged locally indistinguishable across every cut,
        # with projection probabilities 1, 1 and 5/6
        pr.equal("slocc.resource_dimension_flag", doc["slocc"]["resource_dimension_flag"], True)
        ind = doc["local_indistinguishability"]
        pr.equal("indistinguishability cuts", sorted(ind.get("per_cut", {})), ["1", "3", "5"])
        pr.equal("all_cuts", ind.get("all_cuts"), True)
        for mask, rec in ind.get("per_cut", {}).items():
            pr.equal(f"flag {mask}", (rec["value"], rec["grade"]), (True, "RULE_BASED_CITED"))
            probs = np.array(rec["probabilities"])
            pr.expect(probs.shape == (3,) and np.abs(probs - [1, 1, 5 / 6]).max() < EPS,
                      f"flag {mask}: probabilities {rec['probabilities']}")
    return pr


def check_written_family(code: int, text: str, work: Path, file: str, kind: str, dims, count: int,
                         extra: Callable[[Problems, np.ndarray], None]) -> Problems:
    pr, doc = _report(code, text, 0)
    if doc is None:
        return pr
    pr.equal("construct", (doc["gate"], doc["count"], doc["output"]), ("VERIFIED", count, file))
    saved = json.loads((work / file).read_text())
    pr.equal("file", (saved["dims"], saved["kind"], len(saved["states"])), (list(dims), kind, count))
    if pr:
        return pr
    m = vectors(saved["states"])
    check_orthonormal(pr, m, file)
    extra(pr, m)
    return pr


def _nqubit7_members(pr: Problems, m: np.ndarray) -> None:
    pr.expect(float(np.abs(m[:, -1]).max()) <= EPS, "a member overlaps the complement ray |1111111>")
    worst = min(int(r.min()) for r in rank_table(m, (2,) * 7).values())
    pr.expect(worst >= 2, f"a member has Schmidt rank {worst} at some cut")


def _meb_members(d: int, n: int) -> Callable[[Problems, np.ndarray], None]:
    def extra(pr: Problems, m: np.ndarray) -> None:
        _check_members(pr, m, (d, d + n), "UMEB")
        spill = float(np.abs(m.reshape(len(m), d, d + n)[:, :, d:]).max())
        pr.expect(spill <= EPS, f"members leak into the padding columns ({spill:.2e})")

    return extra


def check_gram_fix(code: int, text: str, original: np.ndarray) -> Problems:
    pr, doc = _report(code, text, 0)
    if doc is None:
        return pr
    pr.equal("verdict", (doc["outcome"], doc["grade"], doc["complement_dim"]), ("VERIFIED", "EXACT", 2))
    check_per_cut(pr, doc["per_cut"], (2, 2, 2), [(m, "ONLY_PRODUCT", "EXACT") for m in cut_masks(3)], None)
    check_complement(pr, doc["complement"], 2, (2, 2, 2), original, product=True)
    return pr


def check_malformed(code: int, text: str) -> Problems:
    pr = Problems()
    pr.equal("exit code", code, 3)
    pr.equal("stdout", text, "")
    return pr


def setup_cli(p: Pass) -> list[Op]:
    ueb = _ueb()
    rng = np.random.default_rng([p.seed, 2])
    # The W-class family under local unitaries, then drifted inside its own span:
    # the rows stop being orthonormal (so --gram-fix is needed) but the span,
    # and with it the verdict, is unchanged.
    original = rotate(ueb.three_qubit_w_ueb().matrix(), [haar_unitary(2, rng) for _ in range(3)])
    mix = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    drifted = (np.eye(6) + 1e-7 * mix) @ original
    drift_file = write_state_file(p, "drift.json", state_doc(drifted, (2, 2, 2), "UEB_ALL_CUTS", "w-drifted"))
    bad = state_doc(original, (2, 2, 2), "UEB_ALL_CUTS", "w-truncated")
    bad["states"][int(rng.integers(6))].pop()
    bad_file = write_state_file(p, "bad.json", bad)
    d = int(rng.integers(3, 5))
    n = int(rng.integers(1, d))

    specs: list[tuple[str, list[str], Callable[[int, str], Problems]]] = [
        ("catalog list", ["catalog", "list"], check_catalog_list),
    ]
    for entry in CATALOG:
        specs.append((f"construct {entry}", ["construct", entry], lambda c, t, e=entry: check_construct_entry(c, t, e)))
    for entry in CATALOG:
        specs.append((f"verify {entry}", ["verify", entry], lambda c, t, e=entry: check_verify_entry(c, t, e)))
    for entry in SLOCC:
        for fmt in ("json", "text"):
            specs.append((f"analyze {entry} {fmt}", ["analyze", entry, "--format", fmt],
                          lambda c, t, e=entry, f=fmt: check_analyze_entry(c, t, e, f)))
    specs += [
        ("construct nqubit-ueb 7", ["construct", "nqubit-ueb", "--n", "7", "-o", "ueb7.json"],
         lambda c, t: check_written_family(c, t, p.work, "ueb7.json", "UEB_ALL_CUTS", (2,) * 7, 127, _nqubit7_members)),
        (f"construct embed-meb {d} {n}", ["construct", "embed-meb", "--d", str(d), "--n", str(n), "-o", "meb.json"],
         lambda c, t: check_written_family(c, t, p.work, "meb.json", "UMEB", (d, d + n), d * d, _meb_members(d, n))),
        ("verify drift gram-fix", ["verify", drift_file, "--gram-fix"], lambda c, t: check_gram_fix(c, t, original)),
        ("verify malformed", ["verify", bad_file], check_malformed),
    ]
    return [Op(name, cli_process(p, i, argv), check) for i, (name, argv, check) in enumerate(specs)]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Pass], list[Op]]
    pass_s: float  # about the wall time of one pass on 2 cores; sizes the schedule


WORKLOADS = {
    "allcuts-verify": Workload(setup_allcuts, 14.0),
    "complement-search": Workload(setup_complement, 16.0),
    "cli-sweep": Workload(setup_cli, 6.5),
}
