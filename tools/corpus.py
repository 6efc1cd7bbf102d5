#!/usr/bin/env python3
"""Behaviour corpus: one fixed list of uebkit CLI commands, run on two source trees and compared.

    python tools/corpus.py --base REV

The working tree's src/ is compared against src/ at REV, unpacked with
`git archive` into a temporary directory. The inputs (the benchmark's
seed-11 rotated n-qubit files, built by perfbench/workloads.py's
NQubitInput, a plane file, a malformed file and two files with a bad
state) are built once per run with the working tree. Each command group
then runs on both trees, the tree that goes first alternating from group to
group, each time in a fresh work directory holding only the inputs its
commands name. The commands of
a group run in order in that directory, so a group can construct a file
and then verify it. For every command, stdout, stderr, the exit code and
every file in the work directory afterwards must be byte-identical across
the trees.

Prints each command that differs, and what differs, then a summary line.
Exit status 0 when no command differs, 1 otherwise. Stdlib and subprocess
only; the input builder runs in a child process with the working tree's
uebkit and numpy.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
CATALOG_IDS = ("eq1-ueb", "eq2-ueb", "eq3-meb", "eq3-in-2x3", "eq3-eq4-meb", "eq5-w-ueb", "eq6-mixed-ueb",
               "appendix-4qubit")
W8_KETS = ",".join("0" * i + "1" + "0" * (7 - i) for i in range(8))

# Run in a child process with the working tree's src/ and perfbench/ on sys.path, in the input directory.
BUILD_INPUTS = """
import json, math, sys
from pathlib import Path
sys.dont_write_bytecode = True
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import uebkit, workloads
here = Path.cwd()
p = workloads.Pass(root=Path(sys.argv[1]), work=here, seed=11, index=0, trace=False, spans_prefix=here / "spans")
for n in (6, 7, 8):
    workloads.NQubitInput(p, n)
# the eq6-mixed-ueb states with the plane span{|00>, (|01> + |10>)/sqrt 2} keyed by mask 6, the cut 1|23
s = 1.0 / math.sqrt(2.0)
doc = json.loads("".join(uebkit.statefile.state_file_chunks(uebkit.build_entry("eq6-mixed-ueb"))))
doc["planes"] = {"6": [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [s, 0], [s, 0], [0, 0]]]}
(here / "eq6-plane6.json").write_text(json.dumps(doc, indent=2) + "\\n")
(here / "malformed.json").write_text("not json\\n")
# a state of norm 2, and a NaN amplitude in the second of three states
e = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
bad = {"norm2.json": [[[2.0, 0.0]] + e[0][1:]], "nan.json": [e[0], [[0.0, 0.0], [math.nan, 0.0]] + e[1][2:], e[2]]}
for name, states in bad.items():
    (here / name).write_text(json.dumps({"name": None, "dims": [2, 2], "kind": "UEB", "states": states}) + "\\n")
"""


def command_groups() -> list[list[list[str]]]:
    """The corpus: groups of commands, each group run in order in one work directory."""
    groups = [[["catalog", "list"]]]
    for entry in CATALOG_IDS:
        groups += [[["verify", entry]], [["analyze", entry]], [["analyze", entry, "--format", "text"]],
                   [["construct", entry]]]
    for n in (6, 7, 8):
        groups += [[["verify", f"ueb{n}.json"]], [["analyze", f"ueb{n}.json"]]]
    groups += [
        [["analyze", "prop2a-set", "--completion", "entangled"]],
        [["analyze", "prop2a-set", "--completion", "max-entangled"]],
        [["verify", "prop2a-set", "--kind", "umeb"]],
        [["analyze", "eq6-mixed-ueb", "--completion", "entangled", "--cut", "3"]],
        [["construct", "embed-meb", "--d", "3", "--n", "1", "-o", "embed.json"], ["verify", "embed.json"],
         ["analyze", "embed.json"], ["analyze", "embed.json", "--completion", "max-entangled"]],
        [["construct", "nqubit-ueb", "--n", "7", "-o", "n7.json"], ["verify", "n7.json"], ["analyze", "n7.json"]],
        [["construct", "dft-superposition", "--dims", ",".join(["2"] * 8), "--kets", W8_KETS, "-o", "w8.json"],
         ["verify", "w8.json", "--kind", "ueb-all-cuts"]],
        [["verify", "malformed.json"]],
        [["verify", "norm2.json"]],
        [["analyze", "nan.json", "--gram-fix"]],
        [["verify", "eq1-ueb", "--kind", "ueb", "--cut", "abc"]],
        [["construct", "eq1-ueb", "--d", "5"]],
        [["verify", "eq1-ueb", "--gram-fix"]],
        [["verify", "eq1-ueb", "--tol", "0"]],
        [["verify", "eq1-ueb", "--seed", "-1"]],
        [["verify", "eq1-ueb", "--kind", "umeb"]],
        [["construct", "bell-meb", "--d", "2", "-o", "bell.json"],
         ["analyze", "bell.json", "--completion", "max-entangled"],
         ["analyze", "bell.json", "--completion", "entangled", "--cut", "99"]],
        [["analyze", "eq6-mixed-ueb", "--cut", "99"]],
        [["analyze", "eq6-plane6.json"]],
    ]
    return groups


def unpack_src(rev: str, dest: Path) -> Path:
    """src/ of the given revision, unpacked under dest; returns dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def snapshot(work: Path) -> dict[str, str]:
    """sha256 of every file under the work directory, by relative path."""
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def run_group(tree: Path, group: list[list[str]], inputs: Path, work: Path) -> list[tuple]:
    """Run one group on one tree in a fresh work directory; one (exit, stdout, stderr, files) per command."""
    work.mkdir()
    for name in {a for argv in group for a in argv} & {p.name for p in inputs.iterdir()}:
        shutil.copy(inputs / name, work / name)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = []
    for argv in group:
        try:
            got = subprocess.run([sys.executable, "-m", "uebkit.cli", *argv], cwd=work, env=env,
                                 capture_output=True, timeout=TIMEOUT_S)
            out.append((got.returncode, got.stdout, got.stderr, snapshot(work)))
        except subprocess.TimeoutExpired:
            out.append(("timeout", b"", b"", {}))
    return out


def describe(a: tuple, b: tuple, names: tuple[str, str]) -> list[str]:
    """What differs between two results of one command, as indented lines."""
    lines = []
    if a[0] != b[0]:
        lines.append(f"    exit code: {names[0]} {a[0]}, {names[1]} {b[0]}")
    for i, stream in ((1, "stdout"), (2, "stderr")):
        if a[i] != b[i]:
            diff = difflib.unified_diff(a[i].decode(errors="replace").splitlines(),
                                        b[i].decode(errors="replace").splitlines(), names[0], names[1], lineterm="", n=1)
            lines.append(f"    {stream} differs:")
            lines += [f"      {line}" for line in list(diff)[:20]]
    for path in sorted(set(a[3]) | set(b[3])):
        if a[3].get(path) != b[3].get(path):
            lines.append(f"    file {path} differs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision whose src/ the working tree is compared with")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="uebkit-corpus-") as tmp:
        tmp = Path(tmp)
        trees = {args.base: unpack_src(args.base, tmp / "base"), "working tree": ROOT}
        inputs = tmp / "inputs"
        inputs.mkdir()
        subprocess.run([sys.executable, "-c", BUILD_INPUTS, str(ROOT)], cwd=inputs, check=True,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        names = tuple(trees)
        commands = differ = 0
        for g, group in enumerate(command_groups()):
            order = names if g % 2 == 0 else names[::-1]
            results = {name: run_group(trees[name], group, inputs, tmp / f"g{g}-{i}") for i, name in enumerate(order)}
            for argv, a, b in zip(group, results[names[0]], results[names[1]]):
                commands += 1
                lines = describe(a, b, names)
                if lines:
                    differ += 1
                    print(f"DIFFERS: uebkit {' '.join(argv)}")
                    print("\n".join(lines))
    print(f"{commands} commands, {differ} differ ({names[0]} against the working tree, {time.perf_counter() - t0:.1f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
