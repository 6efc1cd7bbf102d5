"""Report payloads for the command-line front end.

Reports are plain dicts with a fixed key order, built from verdict objects
and rendered either as JSON or as flat "key: value" text. Nothing here reads
clocks or environment, so identical inputs and options produce byte-identical
output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .cuts import enumerate_cuts, schmidt_rank_table
from .slocc import classify_from_ranks, spans_ghz_and_w
from .statefile import LoadedStateFile, complex_vector, state_file_chunks
from .states import DEFAULT_EPS, PureState, StateSet, canonical_phase
from .subspaces import (
    BasisKind,
    BasisVerdict,
    CompletionResult,
    SearchConfig,
    SetMode,
    SubspaceVerdict,
)


def states_payload(st: StateSet) -> list[list[list[float]]]:
    return [complex_vector(row) for row in st.matrix()]


def input_payload(path: str | Path, loaded: LoadedStateFile) -> dict:
    """Input block for a loaded state file; digest of the bytes that were parsed."""
    return {
        "path": str(path),
        "sha256": loaded.sha256,
        "name": loaded.states.name,
        "dims": list(loaded.states.space.dims),
        "count": len(loaded.states),
    }


def catalog_input_payload(entry_id: str, st: StateSet, kind: BasisKind | None) -> dict:
    """Input block for a set resolved from the registry; digest of its canonical serialization."""
    digest = hashlib.sha256()
    for chunk in state_file_chunks(st, kind=kind, name=entry_id):
        digest.update(chunk.encode())
    return {
        "path": None,
        "sha256": digest.hexdigest(),
        "name": entry_id,
        "dims": list(st.space.dims),
        "count": len(st),
    }


def state_diagnostics(
    st: StateSet,
    tol: float = DEFAULT_EPS,
    rank_table: np.ndarray | None = None,
) -> list[dict]:
    """Per-state Schmidt ranks across every cut, genuine-entanglement flag, class label.

    rank_table, when given, is the set's schmidt_rank_table over
    enumerate_cuts at the same tolerance (BasisVerdict.rank_table) and is
    used instead of computing it again.
    """
    cuts = enumerate_cuts(st.space)
    labels = [c.label for c in cuts]
    if rank_table is None:
        rank_table = schmidt_rank_table(st.matrix(), cuts, tol)
    ranks = rank_table.tolist()
    three_qubit = st.space.dims == (2, 2, 2)
    out: list[dict] = []
    for i, row in enumerate(st.matrix()):
        entry: dict = {
            "index": i,
            "schmidt_ranks": dict(zip(labels, ranks[i])),
            "genuinely_entangled": min(ranks[i]) >= 2,
        }
        if three_qubit:
            v = classify_from_ranks(PureState(st.space, row), ranks[i])
            entry["slocc"] = v.label
            entry["tangle"] = v.tangle
        out.append(entry)
    return out


def complement_payload(comp: StateSet, tol: float = DEFAULT_EPS) -> dict:
    """Dimension and phase-fixed basis of a set's orthogonal complement comp."""
    return {
        "dim": len(comp),
        "basis": [complex_vector(canonical_phase(b, tol).amps) for b in comp.states],
    }


def cut_verdict_payload(v: SubspaceVerdict) -> dict:
    return {
        "cut": v.cut.label,
        "mask": v.cut.mask,
        "status": v.status.value,
        "grade": v.grade.value,
        "score": v.score,
        "reason": v.reason,
        "witness": complex_vector(v.witness.amps) if v.witness is not None else None,
    }


def verify_report(
    input_info: dict,
    kind: BasisKind,
    cfg: SearchConfig,
    eps: float,
    verdict: BasisVerdict,
    st: StateSet,
) -> dict:
    return {
        "command": "verify",
        "input": input_info,
        "kind": kind.value,
        "tolerance": eps,
        "seed": cfg.seed,
        "starts": cfg.starts,
        "outcome": verdict.outcome.value,
        "grade": verdict.grade.value,
        "complement_dim": verdict.complement_dim,
        "offending_state": verdict.offending_state,
        "per_cut": [cut_verdict_payload(v) for v in verdict.per_cut],
        "states": state_diagnostics(st, eps, verdict.rank_table),
        "complement": complement_payload(verdict.complement, eps),
    }


def completion_payload(mode: SetMode, res: CompletionResult) -> dict:
    """Completion block of an analyze report."""
    return {
        "mode": mode.value,
        "complement_dim": res.complement_dim,
        "found": len(res.found),
        "completable": res.completable.value,
        "reason": res.reason,
        "added_states": states_payload(res.found),
    }


def analyze_report(
    input_info: dict,
    cfg: SearchConfig,
    eps: float,
    st: StateSet,
    complement: StateSet,
    completion: dict | None = None,
    extended_space: dict | None = None,
    local_indistinguishability: dict | None = None,
    rank_table: np.ndarray | None = None,
) -> dict:
    """Report of analyze; complement is the orthogonal complement of st at eps.

    For three-qubit sets the slocc block joins the class labels and tangles
    of the states block to the resource dimension flag, which reads those
    labels and classifies only a one-dimensional complement ray.
    """
    states = state_diagnostics(st, eps, rank_table)
    report = {
        "command": "analyze",
        "input": input_info,
        "tolerance": eps,
        "seed": cfg.seed,
        "starts": cfg.starts,
        "states": states,
        "complement": complement_payload(complement, eps),
    }
    if completion is not None:
        report["completion"] = completion
        report["extended_space"] = extended_space or {"status": "OUT_OF_SCOPE"}
    if st.space.dims == (2, 2, 2):
        labels = [s["slocc"] for s in states]
        report["slocc"] = {
            "labels": labels,
            "tangles": [s["tangle"] for s in states],
            "resource_dimension_flag": spans_ghz_and_w(labels, complement, eps),
        }
    if local_indistinguishability is not None:
        report["local_indistinguishability"] = local_indistinguishability
    return report


def construct_report(
    name: str,
    title: str,
    st: StateSet,
    kind: BasisKind | None,
    gate: str,
    output: str | None,
    include_states: bool,
) -> dict:
    report: dict = {
        "command": "construct",
        "name": name,
        "title": title,
        "dims": list(st.space.dims),
        "count": len(st),
        "kind": kind.value if kind is not None else None,
        "gate": gate,
        "output": output,
    }
    if include_states:
        report["states"] = states_payload(st)
    return report


def catalog_report(entries: list[dict], generators: list[dict]) -> dict:
    return {"command": "catalog", "entries": entries, "generators": generators}


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _leaf(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return repr(value)
    return json.dumps(value)


def _flatten(value: object, key: str, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        if not value:
            out.append((key, "{}"))
        for k, v in value.items():
            _flatten(v, f"{key}.{k}" if key else str(k), out)
    elif isinstance(value, list) and any(isinstance(x, dict) for x in value):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[{i}]", out)
    else:
        out.append((key, _leaf(value)))


def render_text(report: dict) -> str:
    """Flat deterministic text: one 'key: value' line per leaf, insertion order."""
    out: list[tuple[str, str]] = []
    _flatten(report, "", out)
    return "".join(f"{k}: {v}\n" for k, v in out)
