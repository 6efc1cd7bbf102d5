"""State-file round trips, parse rejections, and the command-line contract."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uebkit
from uebkit import (
    BasisKind,
    CATALOG,
    QuditDims,
    StateFileError,
    StateSet,
    Tolerance,
    basis_state,
    bell_meb,
    build_entry,
    dumps_state_file,
    load_state_file,
    parse_state_file,
    random_state,
    save_state_file,
    state_from_combination,
    symmetric_bell_plane,
    two_qubit_ueb_fourier,
    w_state,
)

SP2 = QuditDims((2, 2))
TOL = Tolerance()


def cli(*args, cwd=None):
    # the child runs the same package the tests imported, installed or not
    path = [str(Path(uebkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, "-m", "uebkit.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def bell_pair() -> StateSet:
    return StateSet(SP2, (
        state_from_combination(SP2, {"00": 1, "11": 1}),
        state_from_combination(SP2, {"00": 1, "11": -1}),
    ), name="bell-pair")


def test_round_trip_is_amplitude_exact(tmp_path):
    rng = np.random.default_rng(51)
    space = QuditDims((2, 2, 2))
    from uebkit import orthonormalize
    sub = orthonormalize(space, [rng.standard_normal(8) + 1j * rng.standard_normal(8)
                                 for _ in range(3)])
    st = StateSet(space, sub.basis, name="random-triple")
    path = tmp_path / "triple.json"
    save_state_file(path, st, kind=BasisKind.UEB, planes={1: symmetric_bell_plane()})
    loaded = load_state_file(path)
    assert loaded.name == "random-triple"
    assert loaded.kind is BasisKind.UEB
    assert set(loaded.planes) == {1}
    for a, b in zip(st.states, loaded.states.states):
        assert np.array_equal(a.amps, b.amps)
    assert np.array_equal(loaded.planes[1], symmetric_bell_plane())


def test_dumps_is_deterministic_with_trailing_newline():
    st = bell_pair()
    a = dumps_state_file(st, kind=BasisKind.UMEB)
    b = dumps_state_file(st, kind=BasisKind.UMEB)
    assert a == b
    assert a.endswith("\n")
    doc = json.loads(a)
    assert doc["dims"] == [2, 2]
    assert doc["kind"] == "UMEB"
    assert len(doc["states"]) == 2


def test_parse_rejects_malformed_documents():
    cases = [
        "not json",
        "[1, 2]",
        json.dumps({"states": []}),
        json.dumps({"dims": [2, 2]}),
        json.dumps({"dims": [2, 1], "states": []}),
        json.dumps({"dims": [2, 2], "states": [[[1.0, 0.0]]]}),
        json.dumps({"dims": [2, 2], "states": [[[1.0, 0.0, 0.0], [0, 0], [0, 0], [0, 0]]]}),
        json.dumps({"dims": [2, 2], "states": [[[True, 0.0], [0, 0], [0, 0], [0, 0]]]}),
        json.dumps({"dims": [2, 2], "states": [[[0.9, 0.0], [0, 0], [0, 0], [0, 0]]]}),
        json.dumps({"dims": [2, 2], "states": [[[1.0, 0.0], [0, 0], [0, 0], [0, 0]]],
                    "kind": "NOT_A_KIND"}),
    ]
    for text in cases:
        with pytest.raises(StateFileError):
            parse_state_file(text)


def test_parse_renormalizes_small_drift():
    s = (1 + 1e-8) / math.sqrt(2)
    doc = json.dumps({"dims": [2, 2], "states": [[[s, 0.0], [0, 0], [0, 0], [s, 0.0]]]})
    loaded = parse_state_file(doc)
    assert abs(float(np.linalg.norm(loaded.states.states[0].amps)) - 1.0) < 1e-15


def test_parse_gram_fix_restores_orthogonality():
    s = 1 / math.sqrt(2)
    tilted = [
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.01 * s, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    ]
    # second row parallel to the first: rank collapses even under repair
    bad_doc = json.dumps({"dims": [2, 2], "states": tilted})
    with pytest.raises(StateFileError):
        parse_state_file(bad_doc)

    skew = [
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.01, 0.0], [0.0, 0.0], [0.0, 0.0], [0.99994999874996864, 0.0]],
    ]
    doc = json.dumps({"dims": [2, 2], "states": skew})
    with pytest.raises(StateFileError):
        parse_state_file(doc)
    fixed = parse_state_file(doc, gram_fix=True)
    m = np.stack([p.amps for p in fixed.states.states])
    assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12


def test_cli_exit_codes(tmp_path):
    two = tmp_path / "two.json"
    save_state_file(two, bell_pair())
    bad = tmp_path / "bad.json"
    bad.write_text("not json")

    assert cli("verify", "eq1-ueb").returncode == 0
    assert cli("verify", str(two), "--kind", "ueb").returncode == 1
    assert cli("verify", str(two), "--kind", "umeb", "--starts", "0").returncode == 2
    assert cli("verify", str(bad), "--kind", "ueb").returncode == 3
    assert cli("verify", "no-such-entry").returncode == 3
    assert cli("verify", str(two)).returncode == 3  # kind neither stored nor given


def test_cli_verify_report_shape():
    got = cli("verify", "eq5-w-ueb")
    assert got.returncode == 0
    doc = json.loads(got.stdout)
    assert doc["kind"] == "UEB_ALL_CUTS"
    assert doc["outcome"] == "VERIFIED"
    assert doc["grade"] == "EXACT"
    assert len(doc["per_cut"]) == 3
    assert all(v["status"] == "ONLY_PRODUCT" for v in doc["per_cut"])
    assert doc["input"]["name"] == "eq5-w-ueb"
    assert len(doc["states"]) == 6
    assert doc["complement"]["dim"] == 2


def test_cli_verify_complete_kind():
    assert cli("verify", "eq3-meb", "--kind", "complete").returncode == 0
    got = cli("verify", "eq1-ueb", "--kind", "complete")
    assert got.returncode == 1
    assert json.loads(got.stdout)["outcome"] == "REFUTED"


def test_cli_analyze_report_shape():
    got = cli("analyze", "eq6-mixed-ueb")
    assert got.returncode == 0
    doc = json.loads(got.stdout)
    assert "completion" not in doc  # uncompletability analysis is opt-in
    labels = [s["slocc"] for s in doc["states"]]
    assert labels == ["GHZ"] * 4 + ["W"] * 3
    assert doc["slocc"]["labels"] == labels
    assert doc["slocc"]["resource_dimension_flag"] is True
    ind = doc["local_indistinguishability"]
    assert ind["all_cuts"] is True
    assert len(ind["per_cut"]) == 3
    for rec in ind["per_cut"].values():
        assert rec["value"] is True
        probs = rec["probabilities"]
        assert abs(probs[2] - 5 / 6) < 1e-9


def test_cli_analyze_completion_modes():
    got = cli("analyze", "prop2a-set", "--completion", "max-entangled")
    assert got.returncode == 0
    block = json.loads(got.stdout)["completion"]
    assert (block["found"], block["complement_dim"]) == (1, 3)
    assert block["completable"] == "NO_EXACT"

    got = cli("analyze", "prop2a-set", "--completion", "entangled")
    assert got.returncode == 0
    block = json.loads(got.stdout)["completion"]
    assert (block["found"], block["complement_dim"]) == (3, 3)
    assert block["completable"] == "YES"

    # three parties: a completion request needs a cut to work across
    assert cli("analyze", "eq6-mixed-ueb", "--completion", "entangled").returncode == 3
    got = cli("analyze", "eq6-mixed-ueb", "--completion", "entangled", "--cut", "1")
    assert got.returncode == 0
    assert json.loads(got.stdout)["completion"]["completable"] == "NO_EXACT"


def test_cli_analyze_extended_space_block():
    got = cli("analyze", "eq3-in-2x3", "--completion", "max-entangled")
    assert got.returncode == 0
    doc = json.loads(got.stdout)
    assert doc["completion"]["found"] == 0
    ext = doc["extended_space"]
    assert ext["status"] == "COMPLETABLE_IN_EXTENDED_SPACE"
    assert ext["extended_dims"] == [2, 4]
    assert ext["extension_count"] == 8
    assert ext["extension_outcome"] == "COMPLETE_BASIS"

    got = cli("analyze", "prop2a-set", "--completion", "max-entangled")
    assert json.loads(got.stdout)["extended_space"]["status"] == "OUT_OF_SCOPE"


def test_cli_analyze_reports_not_applicable(tmp_path):
    pair = tmp_path / "pair.json"
    from uebkit import ghz_state
    save_state_file(pair, StateSet(QuditDims((2, 2, 2)), (ghz_state(3), w_state(3))))
    got = cli("analyze", str(pair))
    assert got.returncode == 0
    doc = json.loads(got.stdout)
    assert doc["local_indistinguishability"]["status"] == "NOT_APPLICABLE"


def test_cli_output_is_byte_deterministic(tmp_path):
    a = cli("analyze", "eq6-mixed-ueb").stdout
    b = cli("analyze", "eq6-mixed-ueb").stdout
    assert a == b
    p = tmp_path / "f.json"
    save_state_file(p, two_qubit_ueb_fourier(), kind=BasisKind.UEB)
    a = cli("verify", str(p), "--starts", "16").stdout
    b = cli("verify", str(p), "--starts", "16").stdout
    assert a == b


def test_cli_construct_then_verify_every_entry(tmp_path):
    for eid in sorted(CATALOG):
        out = tmp_path / f"{eid}.json"
        made = cli("construct", eid, "-o", str(out))
        assert made.returncode == 0, (eid, made.stderr)
        checked = cli("verify", str(out))
        assert checked.returncode == 0, (eid, checked.stderr)


def test_cli_construct_generators(tmp_path):
    out = tmp_path / "g.json"
    assert cli("construct", "bell-meb", "--d", "3", "-o", str(out)).returncode == 0
    doc = json.loads(out.read_text())
    assert doc["dims"] == [3, 3] and len(doc["states"]) == 9

    assert cli("construct", "embed-meb", "--d", "3", "--n", "2", "-o", str(out)).returncode == 0
    doc = json.loads(out.read_text())
    assert doc["dims"] == [3, 5] and len(doc["states"]) == 9

    assert cli("construct", "nqubit-ueb", "--n", "5", "-o", str(out)).returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 31

    got = cli("construct", "dft-superposition", "--dims", "2,2,2",
              "--kets", "001,010,100", "-o", str(out))
    assert got.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 3

    assert cli("construct", "nqubit-ueb", "--n", "5", "--variant", "hadamard").returncode == 3
    assert cli("construct", "no-such-thing").returncode == 3


def test_cli_catalog_listing():
    got = cli("catalog", "list")
    assert got.returncode == 0
    doc = json.loads(got.stdout)
    ids = {row["id"] for row in doc["entries"]}
    assert set(CATALOG) <= ids
    assert all(row["kind"] is not None for row in doc["entries"])
    assert "prop2a-set" in {g["name"] for g in doc["generators"]}
