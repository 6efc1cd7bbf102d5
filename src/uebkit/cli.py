"""Command-line front end: catalog listing, construction, verification, analysis.

Exit codes: 0 for VERIFIED or COMPLETE_BASIS verdicts and for successful
catalog/construct/analyze runs, 1 for REFUTED verdicts and failed
construction gates, 2 for INCONCLUSIVE verdicts, 3 for malformed input or
bad parameters. Reports go to stdout, error messages to stderr, and
identical inputs with identical options produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import Sequence

from .catalog import (
    CATALOG,
    GENERATORS,
    CoeffVariant,
    ConstructionError,
    build_entry,
    build_entry_with_verdict,
    build_generator,
    extend_padded_square_meb,
    recognize_padded_square_meb,
)
from .cuts import Bipartition, single_cut
from .locc import (
    ProjectionOrthogonalityError,
    VanishingProjectionError,
    all_cut_indistinguishability_flag,
)
from .report import (
    analyze_report,
    catalog_input_payload,
    catalog_report,
    completion_payload,
    construct_report,
    input_payload,
    render_json,
    render_text,
    verify_report,
)
from .statefile import StateFileError, load_state_file, save_state_file
from .states import _eps, orthogonal_complement
from .subspaces import (
    BasisKind,
    Outcome,
    SearchConfig,
    SetMode,
    completion_search,
    verify_basis,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

_KINDS = {
    "ueb": BasisKind.UEB,
    "ueb-all-cuts": BasisKind.UEB_ALL_CUTS,
    "umeb": BasisKind.UMEB,
    "complete": BasisKind.COMPLETE,
}
_MODES = {"entangled": SetMode.ENTANGLED, "max-entangled": SetMode.MAX_ENTANGLED}
_VARIANTS = {"dft": CoeffVariant.DFT, "hadamard": CoeffVariant.HADAMARD_IF_POWER_OF_TWO}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance (default 1e-9)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized searches (default 0)")
    p.add_argument("--starts", type=int, default=64, help="search restarts; 0 keeps only exact routes (default 64)")
    p.add_argument("--format", choices=("text", "json"), default="json", help="report format (default json)")


def _emit(report: dict, fmt: str) -> None:
    sys.stdout.write(render_json(report) if fmt == "json" else render_text(report))


def _config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(starts=args.starts, seed=args.seed)


def _resolve_input(args: argparse.Namespace, cfg: SearchConfig, gate: bool = True):
    """Load a state file, or fall back to a catalog entry id.

    Returns (states, kind, planes, input block, gate verdict). An existing
    file always wins over an identically named registry entry. The gate
    verdict is the catalog gate's verify_basis result for a registry entry
    with a kind (its kind, the default cut, cfg and tol), else None; with
    gate False the entry is built without its gate and the verdict is None.
    """
    ref = args.file
    if Path(ref).exists():
        loaded = load_state_file(ref, tol=args.tol, gram_fix=args.gram_fix)
        return loaded.states, loaded.kind, loaded.planes, input_payload(ref, loaded), None
    if args.gram_fix and (ref in CATALOG or ref in GENERATORS):
        raise ValueError(f"{ref} takes no --gram-fix: only a state file is re-orthonormalized")
    if ref in CATALOG:
        entry = CATALOG[ref]
        st, verdict = build_entry_with_verdict(ref, cfg, args.tol, gate=gate)
        return st, entry.kind, {}, catalog_input_payload(ref, st, entry.kind), verdict
    if ref in GENERATORS:
        st = build_generator(ref, cfg, args.tol)  # parameterless generators only
        return st, None, {}, catalog_input_payload(ref, st, None), None
    raise StateFileError(f"no such file or catalog entry: {ref!r}")


def _parse_cut(args: argparse.Namespace, space, kind: BasisKind) -> Bipartition | None:
    raw = getattr(args, "cut", None)
    if kind is BasisKind.COMPLETE:
        if raw is not None:
            raise ValueError("kind complete is cut-free; drop --cut")
        return None
    if raw is None:
        if kind is BasisKind.UEB_ALL_CUTS:
            return None
        return single_cut(space)  # raises for more than two parties
    if raw == "all":
        if kind is not BasisKind.UEB_ALL_CUTS:
            raise ValueError("--cut all is only meaningful for kind ueb-all-cuts")
        return None
    mask = _cut_mask(raw)
    if kind is BasisKind.UEB_ALL_CUTS:
        raise ValueError("kind ueb-all-cuts enumerates every cut; drop --cut or pass 'all'")
    return Bipartition(space, mask)


def _cut_mask(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"--cut takes an integer cut mask, or 'all' for verify; got {raw!r}") from None


def cmd_catalog(args: argparse.Namespace) -> int:
    entries = [
        {
            "id": e.entry_id,
            "tag": e.tag,
            "title": e.title,
            "dims": list(e.dims),
            "kind": e.kind.value if e.kind else None,
            "expected": e.expected.value if e.expected else None,
        }
        for e in CATALOG.values()
    ]
    generators = [{"name": g.name, "title": g.title, "params": g.params} for g in GENERATORS.values()]
    _emit(catalog_report(entries, generators), args.format)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    cfg = _config(args)
    name = args.name
    if name not in CATALOG and name not in GENERATORS:
        raise ValueError(f"unknown family {name!r}; run 'uebkit catalog list'")
    takes = {"bell-meb": "d", "embed-meb": "d n", "nqubit-ueb": "n variant", "dft-superposition": "dims kets"}
    for opt in ("d", "n", "variant", "dims", "kets"):
        if getattr(args, opt) is not None and opt not in takes.get(name, "").split():
            raise ValueError(f"{name} takes no --{opt}")
    if name in CATALOG:
        entry = CATALOG[name]
        st = build_entry(name, cfg, args.tol)
    else:
        entry = GENERATORS[name]
        st = build_generator(name, cfg, args.tol, d=args.d, n=args.n, variant=_VARIANTS[args.variant or "dft"],
                             dims=tuple(int(x) for x in args.dims.split(",")) if args.dims else None,
                             kets=args.kets.split(",") if args.kets else None)
    gate = entry.expected.value if entry.expected else "ORTHONORMAL"
    if args.output:
        save_state_file(args.output, st, kind=entry.kind, name=name)
    _emit(
        construct_report(name, entry.title, st, entry.kind, gate, args.output, include_states=args.output is None),
        args.format,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    entry = CATALOG.get(args.file)
    # a registry entry's gate is this run's check only for its own kind at the default cut
    same = entry is not None and args.cut is None and (args.kind is None or _KINDS[args.kind] is entry.kind)
    st, stored_kind, _planes, info, gate = _resolve_input(args, cfg, gate=same)
    kind = _KINDS[args.kind] if args.kind else stored_kind
    if kind is None:
        raise ValueError("no kind given: pass --kind or store one in the state file")
    cut = _parse_cut(args, st.space, kind)
    if gate is not None:
        verdict = gate  # the catalog gate already ran this exact check
    else:
        verdict = verify_basis(st, kind, cfg, args.tol, cut=cut)
    _emit(verify_report(info, kind, cfg, _eps(args.tol), verdict, st), args.format)
    if verdict.outcome in (Outcome.VERIFIED, Outcome.COMPLETE_BASIS):
        return EXIT_OK
    if verdict.outcome is Outcome.REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.cut is not None and args.completion is None:
        raise ValueError("--cut names the cut of the completion search; pass --completion too, or drop --cut")
    mask = _cut_mask(args.cut) if args.cut is not None else None
    cfg = _config(args)
    st, _kind, planes, info, gate = _resolve_input(args, cfg)
    rank_table = gate.rank_table if gate is not None else None
    complement = gate.complement if gate is not None else None
    completion = None
    strong = None
    if args.completion is not None:
        mode = _MODES[args.completion]
        cut = Bipartition(st.space, mask) if mask is not None else None
        result = completion_search(st, mode, cfg, args.tol, cut=cut)
        complement = result.complement
        completion = completion_payload(mode, result)
        d = recognize_padded_square_meb(st, args.tol) if st.space.parties == 2 else None
        if d is not None:
            ext = extend_padded_square_meb(st, d)
            ext_verdict = verify_basis(ext, BasisKind.UMEB, cfg, args.tol)
            strong = {
                "status": "COMPLETABLE_IN_EXTENDED_SPACE",
                "extended_dims": [d, 2 * d],
                "extension_count": len(ext),
                "extension_outcome": ext_verdict.outcome.value,
            }
        else:
            strong = {"status": "OUT_OF_SCOPE"}
    if complement is None:
        complement = orthogonal_complement(st, args.tol)
    indist = None
    if st.space.dims == (2, 2, 2):
        try:
            flags = all_cut_indistinguishability_flag(st, args.tol, planes=planes)
            indist = {
                "per_cut": {
                    str(mask): {
                        "value": rec.flag.value,
                        "grade": rec.flag.grade.value,
                        "reason": rec.flag.reason,
                        "selection": list(rec.selection),
                        "probabilities": list(rec.probabilities),
                    }
                    for mask, rec in flags.items()
                },
                "all_cuts": all(rec.flag.value for rec in flags.values()),
            }
        except (VanishingProjectionError, ProjectionOrthogonalityError, ValueError) as exc:
            indist = {"status": "NOT_APPLICABLE", "reason": str(exc)}
    _emit(
        analyze_report(info, cfg, _eps(args.tol), st, complement, completion, strong, indist, rank_table),
        args.format,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uebkit",
        description="Construct, verify and analyze unextendible entangled bases of multi-qudit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="registry operations")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_sub.add_parser("list", help="list registered families and generators")
    p_list.add_argument("--format", choices=("text", "json"), default="json")
    p_list.set_defaults(func=cmd_catalog)

    p_con = sub.add_parser("construct", help="build a registered family or generator instance")
    p_con.add_argument("name", help="catalog entry id or generator name")
    p_con.add_argument("-o", "--output", default=None, help="write the result as a state file")
    p_con.add_argument("--d", type=int, default=None, help="local dimension for bell-meb / embed-meb")
    p_con.add_argument("--n", type=int, default=None, help="padding for embed-meb, qubit count for nqubit-ueb")
    p_con.add_argument("--variant", choices=sorted(_VARIANTS), default=None,
                       help="coefficient variant for nqubit-ueb (default dft)")
    p_con.add_argument("--dims", default=None, help="comma-separated dims for dft-superposition")
    p_con.add_argument("--kets", default=None, help="comma-separated kets for dft-superposition")
    _add_common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="check an unextendibility claim for a state file")
    p_ver.add_argument("file")
    p_ver.add_argument("--kind", choices=sorted(_KINDS), default=None, help="claim kind; overrides the file's")
    p_ver.add_argument("--cut", default=None, help="cut mask for two-block kinds, or 'all'")
    p_ver.add_argument("--gram-fix", action="store_true", help="re-orthonormalize drifted input sets")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_ana = sub.add_parser("analyze", help="per-state diagnostics and class analysis for a state file")
    p_ana.add_argument("file")
    p_ana.add_argument(
        "--completion",
        choices=sorted(_MODES),
        default=None,
        help="also search the complement for an orthogonal completion of this kind",
    )
    p_ana.add_argument("--cut", default=None, help="cut mask the completion works across")
    p_ana.add_argument("--gram-fix", action="store_true", help="re-orthonormalize drifted input sets")
    _add_common(p_ana)
    p_ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code; touches no process-wide state."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (StateFileError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """Process entry point of `uebkit` and `python -m uebkit.cli`: run main, exit with its code.

    The objects the imports created (numpy and uebkit) are module state that
    lives until exit, so they are frozen first: the cyclic collector then
    skips them in the collections during the command and in the final ones
    at interpreter shutdown, which would otherwise walk them all. No
    resource here waits on the finalizer of a cyclic object, and shutdown
    flushes stdout and stderr either way.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
