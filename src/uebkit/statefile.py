"""JSON state files: a named set of amplitude vectors with optional metadata.

Schema (one object per file):

    {
      "name":   string or null,
      "dims":   [d1, d2, ...],
      "kind":   "UEB" | "UEB_ALL_CUTS" | "UMEB" | null,
      "states": [ [[re, im], [re, im], ...], ... ],
      "planes": { "<cut mask>": [row, row] }          optional
    }

A plane is read under its cut's canonical mask (Bipartition.mask), and a
second key naming the same cut is refused. Amplitudes are [re, im] pairs.
Floats pass through Python's shortest round-trip repr, so a save/load cycle
reproduces the stored amplitudes bit-exactly. States whose norm drifts from 1 by more than 1e-6 are rejected;
smaller drift is renormalized on load. A space over the complement cap
(states.MAX_COMPLEMENT_BYTES, dimension above 8192) is refused before any
amplitude is read. A file is read once, as UTF-8 bytes, and carries the
sha256 of those bytes.

Writes stream the text of json.dumps(doc, indent=2) plus a newline row by
row (state_file_chunks), so a file is never held whole in memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .cuts import Bipartition
from .states import DEFAULT_EPS, QuditDims, StateSet, _unit_rows, check_complement_size, orthonormalize
from .subspaces import BasisKind


class StateFileError(ValueError):
    """Malformed or inconsistent state file content."""


@dataclass(frozen=True, eq=False)
class LoadedStateFile:
    states: StateSet
    kind: BasisKind | None
    planes: dict[int, np.ndarray]
    sha256: str | None = None  # of the bytes load_state_file read


def _pair_vector(raw: object, length: int, what: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != length:
        raise StateFileError(f"{what} must be a list of {length} [re, im] pairs")
    # one component at a time, to name the first bad one
    out = np.empty(length, dtype=np.complex128)
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise StateFileError(f"{what}, component {i}: expected an [re, im] number pair")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError:
            out[i] = np.inf
        if not np.isfinite(out[i]):
            raise StateFileError(f"{what}, component {i}: amplitude is not a finite number")
    return out


def complex_vector(amps: np.ndarray) -> list[list[float]]:
    """Amplitudes as [re, im] float pairs, the encoding of state files and reports."""
    return [[float(z.real), float(z.imag)] for z in amps]


def load_state_file(
    path: str | Path,
    tol: float = DEFAULT_EPS,
    gram_fix: bool = False,
) -> LoadedStateFile:
    """Parse and validate a state file; gram_fix re-orthonormalizes drifted sets."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    import hashlib  # loads OpenSSL, about 3 MB resident, which importing uebkit need not pay

    digest = hashlib.sha256(data).hexdigest()
    text = data.decode("utf-8")
    del data  # the parse's peak holds the text alone
    return replace(parse_state_file(text, tol=tol, gram_fix=gram_fix), sha256=digest)


def parse_state_file(
    text: str,
    tol: float = DEFAULT_EPS,
    gram_fix: bool = False,
) -> LoadedStateFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("top level must be an object")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise StateFileError("name must be a string or null")
    dims_raw = doc.get("dims")
    if not isinstance(dims_raw, list) or not dims_raw or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims_raw):
        raise StateFileError("dims must be a nonempty list of integers")
    try:
        space = QuditDims(tuple(dims_raw))
        check_complement_size(space.dims)
    except ValueError as exc:
        raise StateFileError(str(exc)) from exc
    kind_raw = doc.get("kind")
    kind: BasisKind | None = None
    if kind_raw is not None:
        try:
            kind = BasisKind(kind_raw)
        except ValueError:
            raise StateFileError(f"kind must be one of {[k.value for k in BasisKind]} or null, got {kind_raw!r}")
    states_raw = doc.get("states")
    if not isinstance(states_raw, list) or not states_raw:
        raise StateFileError("states must be a nonempty list")
    if len(states_raw) > space.total:  # no repair can help, so refused before any row is read
        raise StateFileError(f"{len(states_raw)} states cannot be orthogonal in dimension {space.total}")
    try:  # one conversion; it would take bool and numeric str leaves too, so their types are checked
        pairs = np.array(states_raw, dtype=np.float64)
        whole = pairs.shape == (len(states_raw), space.total, 2) and np.isfinite(pairs).all() and set(
            map(type, chain.from_iterable(chain.from_iterable(states_raw)))) <= {int, float}
    except (TypeError, ValueError, OverflowError):
        whole = False
    rows = pairs.view(np.complex128).reshape(len(pairs), -1) if whole else np.array(  # else row by row, naming
        [_pair_vector(raw, space.total, f"state {i}") for i, raw in enumerate(states_raw)])  # the bad one
    try:
        state_set = StateSet(space, rows, name=name)
    except ValueError as exc:
        try:
            _unit_rows(rows)  # a state the amplitude rule refuses is refused as it is, gram fix or not
        except ValueError:
            raise StateFileError(str(exc)) from exc
        if not gram_fix:
            raise StateFileError(f"{exc} (pass the gram-fix option to re-orthonormalize)") from exc
        repaired = orthonormalize(space, rows, tol)
        if len(repaired) != len(rows):
            raise StateFileError(
                f"gram fix failed: {len(rows)} states span only {len(repaired)} dimensions"
            ) from exc
        state_set = replace(repaired, name=name)
    planes_raw = doc.get("planes")
    planes: dict[int, np.ndarray] = {}
    if planes_raw is not None:
        if not isinstance(planes_raw, dict):
            raise StateFileError("planes must be an object keyed by cut mask")
        for key, rows in planes_raw.items():
            try:
                mask = int(key)
            except ValueError:
                raise StateFileError(f"plane key {key!r} is not an integer cut mask")
            try:
                cut = Bipartition(space, mask)
            except ValueError as exc:
                raise StateFileError(f"plane key {key}: {exc}") from exc
            singles = [b for b in (cut.block_a, cut.block_b) if len(b) == 1]
            if not singles:
                raise StateFileError(f"plane key {key}: the cut must isolate a single party")
            if not isinstance(rows, list) or len(rows) != 2:
                raise StateFileError(f"plane {key}: expected exactly two rows")
            if cut.mask in planes:
                raise StateFileError(f"plane key {key}: the cut {cut.label} already has a plane")
            width = space.total // space.dims[singles[0][0]]
            planes[cut.mask] = np.stack([_pair_vector(r, width, f"plane {key} row {j}") for j, r in enumerate(rows)])
    return LoadedStateFile(states=state_set, kind=kind, planes=planes)


def save_state_file(
    path: str | Path,
    states: StateSet,
    kind: BasisKind | None = None,
    planes: dict[int, np.ndarray] | None = None,
    name: str | None = None,
) -> None:
    with open(path, "w") as f:
        f.writelines(state_file_chunks(states, kind=kind, planes=planes, name=name))


def _rows(rows: Iterable[np.ndarray], depth: int) -> Iterator[str]:
    """One chunk per row: the row as json.dumps(..., indent=2) lays out a list depth levels deep."""
    outer, pair, value = (" " * (2 * (depth + i)) for i in range(3))
    item = f"{pair}[\n{value}%s,\n{value}%s\n{pair}]"
    sep = ""
    for row in rows:
        flat = np.ascontiguousarray(row, dtype=np.complex128).view(np.float64)
        values = list(map(float.__repr__, flat.tolist()))
        yield f"{sep}{outer}[\n" + ",\n".join(item % p for p in zip(values[::2], values[1::2])) + f"\n{outer}]"
        sep = ",\n"


def state_file_chunks(
    states: StateSet,
    kind: BasisKind | None = None,
    planes: dict[int, np.ndarray] | None = None,
    name: str | None = None,
) -> Iterator[str]:
    """The state-file document as json.dumps(doc, indent=2) prints it plus a newline, in chunks.

    The header and the plane keys pass through json.dumps, so their escaping
    is the json module's; each amplitude row is one chunk.
    """
    head = {
        "name": name if name is not None else states.name,
        "dims": list(states.space.dims),
        "kind": kind.value if kind is not None else None,
    }
    yield json.dumps(head, indent=2)[:-2] + ',\n  "states": [\n'
    yield from _rows(states.matrix(), 2)
    yield "\n  ]"
    if planes:
        yield ',\n  "planes": {'
        for i, (mask, rows) in enumerate(sorted(planes.items())):
            yield f'{"," if i else ""}\n    {json.dumps(str(mask))}: [\n'
            yield from _rows(rows, 3)
            yield "\n    ]"
        yield "\n  }"
    yield "\n}\n"
