"""Span tracing of uebkit's public functions, installed from outside the package.

install() wraps every public module-level function of the layer modules,
the construction of PureState, StateSet and Subspace, and numpy.linalg.svd.
Each wrapped name is rebound in every uebkit module that imported it by
name (schmidt, for example, is bound in cuts, subspaces and report), so the
program's source stays untouched. Private helpers are not wrapped: their
time counts as self time of the public function that called them.

A span is (name, start, end, parent span, operation id); operation id -1 is
set-up. Spans and counters live in memory and are written out once, when
the process ends its work. summarize() turns a span file into additive
per-layer metrics; ratios are formed only after summing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "statefile", "states", "cuts", "subspaces", "catalog", "report", "slocc", "locc")
VALIDATED = ("PureState", "StateSet", "Subspace")
SEARCHES = (
    "find_product_state",
    "find_maximally_entangled",
    "max_schmidt_rank_in_subspace",
    "entangled_vector_search",
    "max_orthogonal_set",
    "completion_search",
)
WITNESS_SEARCHES = ("find_product_state", "find_maximally_entangled", "entangled_vector_search")
EXACT_TESTS = ("only_product_across_cut", "schmidt_rank_upper_bound")

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open(self.name_id("op"))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op_id = -1

    def save(self, path: Path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(dict(self.counters))),
        )


def _text_bytes(text: str) -> int:
    return len(text.encode())


def _count_parse(c: Counter, args, kwargs, result) -> None:
    c["statefile.bytes_in"] += _text_bytes(args[0] if args else kwargs["text"])


def _count_dumps(c: Counter, args, kwargs, result) -> None:
    c["statefile.bytes_out"] += _text_bytes(result)


def _count_render(c: Counter, args, kwargs, result) -> None:
    c["report.bytes_out"] += _text_bytes(result)


def _count_witness(c: Counter, args, kwargs, result) -> None:
    c["subspaces.search.witness_calls"] += 1
    witness = getattr(result, "witness", result)
    c["subspaces.search.hits"] += witness is not None


def _count_completion(c: Counter, args, kwargs, result) -> None:
    c["subspaces.completion.found"] += len(result.found)
    c["subspaces.completion.complement_dim"] += result.complement_dim


def _count_svd(c: Counter, args, kwargs, result) -> None:
    a = args[0] if args else kwargs["a"]
    c["linalg.svd.elems"] += int(np.size(a))


COUNTS = {
    "statefile.parse_state_file": _count_parse,
    "statefile.dumps_state_file": _count_dumps,
    "report.render_json": _count_render,
    "report.render_text": _count_render,
    "subspaces.completion_search": _count_completion,
    "linalg.svd": _count_svd,
    **{f"subspaces.{n}": _count_witness for n in WITNESS_SEARCHES},
}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    count = COUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counters, args, kwargs, result)
        return result

    return traced


def install() -> Tracer:
    """Wrap uebkit's public functions and numpy.linalg.svd; return the recording tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"uebkit.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    for cls_name in VALIDATED:
        cls = getattr(modules["states"], cls_name)
        cls.__post_init__ = _wrap(tracer, f"states.{cls_name}", cls.__post_init__)
    for name, mod in list(sys.modules.items()):
        if name == "uebkit" or name.startswith("uebkit."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
    np.linalg.svd = _wrap(tracer, "linalg.svd", np.linalg.svd)
    return tracer


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(path: Path) -> dict[str, float]:
    """Additive per-layer metrics of one span file: counts, self seconds, byte and element counts."""
    with np.load(path) as z:
        names = json.loads(str(z["names"]))
        counters = json.loads(str(z["counters"]))
        name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
    n = len(name)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child
    layer_of = np.array([LAYERS.index(_layer(s)) if _layer(s) in LAYERS else -1 for s in names], dtype=int)
    layer = layer_of[name]
    safe_parent = np.where(has_parent, parent, 0)
    entry = layer != np.where(has_parent, layer[safe_parent], -2)

    def ids(*fns: str) -> np.ndarray:
        return np.isin(name, [names.index(f) for f in fns if f in names])

    def of_layer(lay: str) -> np.ndarray:
        return layer == LAYERS.index(lay)

    def calls(mask: np.ndarray) -> int:
        return int(mask.sum())

    def secs(mask: np.ndarray) -> float:
        return float(self_s[mask].sum())

    validate = ids(*(f"states.{c}" for c in VALIDATED))
    search = ids(*(f"subspaces.{f}" for f in SEARCHES))
    exact = ids(*(f"subspaces.{f}" for f in EXACT_TESTS))
    verify = ids("subspaces.verify_basis")
    complement = ids("states.orthogonal_complement")
    svd = ids("linalg.svd")
    catalog = of_layer("catalog")
    gate = verify & np.where(has_parent, catalog[safe_parent], False)
    out = {
        "cli.self_s": secs(of_layer("cli")),
        "statefile.calls": calls(of_layer("statefile") & entry),
        "statefile.self_s": secs(of_layer("statefile")),
        "states.validate.calls": calls(validate),
        "states.validate.self_s": secs(validate),
        "states.complement.calls": calls(complement),
        "states.complement.self_s": secs(complement),
        "cuts.schmidt.calls": calls(ids("cuts.schmidt")),
        "cuts.self_s": secs(of_layer("cuts")),
        "subspaces.verify.calls": calls(verify),
        "subspaces.verify.self_s": secs(verify),
        "subspaces.exact.calls": calls(exact),
        "subspaces.exact.self_s": secs(exact),
        "subspaces.search.calls": calls(search),
        "subspaces.search.self_s": secs(search),
        "catalog.build.calls": calls(catalog & entry),
        "catalog.build.self_s": secs(catalog),
        "catalog.gate.calls": calls(gate),
        "report.diagnostics.self_s": secs(ids("report.state_diagnostics")),
        "report.render.self_s": secs(ids("report.render_json", "report.render_text")),
        "slocc.calls": calls(of_layer("slocc") & entry),
        "slocc.self_s": secs(of_layer("slocc")),
        "locc.calls": calls(of_layer("locc") & entry),
        "locc.self_s": secs(of_layer("locc")),
        "linalg.svd.calls": calls(svd),
        "linalg.svd.self_s": secs(svd),
        "trace.spans": n,
    }
    for key in (
        "statefile.bytes_in",
        "statefile.bytes_out",
        "report.bytes_out",
        "linalg.svd.elems",
        "subspaces.search.hits",
        "subspaces.search.witness_calls",
        "subspaces.completion.found",
        "subspaces.completion.complement_dim",
    ):
        out[key] = counters.get(key, 0)
    return out
