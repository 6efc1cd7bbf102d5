"""State-file round trips, parse rejections, and the command-line contract."""

import builtins
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import uebkit
import uebkit.cli
from uebkit import (
    BasisKind,
    CATALOG,
    DEFAULT_EPS,
    Outcome,
    PureState,
    QuditDims,
    StateFileError,
    StateSet,
    basis_state,
    bell_meb,
    build_entry,
    dft_superposition,
    load_state_file,
    parse_state_file,
    random_state,
    save_state_file,
    state_from_combination,
    symmetric_bell_plane,
    two_qubit_ueb_fourier,
    w_state,
)
from uebkit.statefile import state_file_chunks

SP2 = QuditDims((2, 2))
TOL = DEFAULT_EPS
# sha256 of the report of `verify eq1-ueb --kind complete` as printed when the UEB gate ran first
EQ1_COMPLETE_SHA256 = "6596f214097a96285bd34e67bd696d983aa52409edf264c9ffc550e080779cbc"
# sha256 of the reports of `analyze eq6-mixed-ueb` and of `analyze eq6.json` for its written file,
# as printed when the resource flag computed its own complement and classified every member again
EQ6_ANALYZE_SHA256 = {
    "eq6-mixed-ueb": "240a39111755ef63bc443922716da66d852d68ffa8e54cc37f3b26390ad18ad9",
    "eq6.json": "cbf9b4be9642590b10004b0873b81ca90e2cc0e57909c3df017ab4b46a1b5a80",
}


def python(*args, cwd=None):
    # the child runs the same package the tests imported, installed or not
    path = [str(Path(uebkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env)


def cli(*args, cwd=None):
    return python("-m", "uebkit.cli", *args, cwd=cwd)


def bell_pair() -> StateSet:
    return StateSet(SP2, (
        state_from_combination(SP2, {"00": 1, "11": 1}),
        state_from_combination(SP2, {"00": 1, "11": -1}),
    ), name="bell-pair")


def test_round_trip_is_amplitude_exact(tmp_path):
    rng = np.random.default_rng(51)
    space = QuditDims((2, 2, 2))
    from uebkit import orthonormalize
    st = dataclasses.replace(orthonormalize(space, [rng.standard_normal(8) + 1j * rng.standard_normal(8)
                                                    for _ in range(3)]), name="random-triple")
    path = tmp_path / "triple.json"
    save_state_file(path, st, kind=BasisKind.UEB, planes={1: symmetric_bell_plane()})
    loaded = load_state_file(path)
    assert loaded.states.name == "random-triple"
    assert loaded.kind is BasisKind.UEB
    assert set(loaded.planes) == {1}
    for a, b in zip(st.states, loaded.states.states):
        assert np.array_equal(a.amps, b.amps)
    assert np.array_equal(loaded.planes[1], symmetric_bell_plane())


def test_dumps_is_deterministic_with_trailing_newline():
    st = bell_pair()
    a = "".join(state_file_chunks(st, kind=BasisKind.UMEB))
    b = "".join(state_file_chunks(st, kind=BasisKind.UMEB))
    assert a == b
    assert a.endswith("\n")
    doc = json.loads(a)
    assert doc["dims"] == [2, 2]
    assert doc["kind"] == "UMEB"
    assert len(doc["states"]) == 2


def test_written_text_is_the_indent_2_json_dump(tmp_path):
    """The streamed writer prints what json.dumps(doc, indent=2) prints, plus a newline:
    with planes, with a name that needs escaping, and with signed zeros."""
    st = StateSet(SP2, tuple(two_qubit_ueb_fourier().states), name='quote " backslash \\ \u00e9 \u2603 \n')
    plane = symmetric_bell_plane().copy()
    plane[0, 1] = complex(-0.0, 0.0)
    for planes in (None, {1: plane}):
        for name in (None, "named"):
            text = "".join(state_file_chunks(st, kind=BasisKind.UEB, planes=planes, name=name))
            doc = json.loads(text)
            assert text == json.dumps(doc, indent=2) + "\n"
            assert doc["name"] == (name or st.name)
            path = tmp_path / "st.json"
            save_state_file(path, st, kind=BasisKind.UEB, planes=planes, name=name)
            assert path.read_bytes() == text.encode()


def test_save_streams_row_by_row(tmp_path):
    """Writing the 127 states of the 7-qubit family holds one row's text at a time."""
    st = uebkit.n_qubit_ueb(7)
    path = tmp_path / "ueb7.json"
    tracemalloc.start()
    try:
        save_state_file(path, st, kind=BasisKind.UEB_ALL_CUTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
    text = path.read_text()
    assert text == "".join(state_file_chunks(st, kind=BasisKind.UEB_ALL_CUTS)) == json.dumps(json.loads(text), indent=2) + "\n"


def test_verify_reads_a_state_file_once(tmp_path, monkeypatch, capsys):
    """verify <file> opens the file once, and its report's digest is that of the file's bytes."""
    path = tmp_path / "ueb5.json"
    save_state_file(path, uebkit.n_qubit_ueb(5), kind=BasisKind.UEB_ALL_CUTS)
    reads = []
    path_open, builtin_open = Path.open, builtins.open

    def spy_path_open(self, mode="r", *args, **kwargs):
        reads.append((Path(self).resolve(), mode))
        return path_open(self, mode, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            reads.append((Path(file).resolve(), mode))
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy_path_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    assert uebkit.cli.main(["verify", str(path)]) == 0
    monkeypatch.undo()
    assert [mode for p, mode in reads if p == path.resolve()] == ["rb"]
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


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


@pytest.mark.parametrize(
    "literal",
    ["1" + "0" * 400, "-1" + "0" * 400, "1e400", "NaN", "Infinity", "-Infinity"],
    ids=["huge-int", "huge-negative-int", "1e400", "NaN", "Infinity", "-Infinity"],
)
def test_parse_refuses_non_finite_amplitudes(literal, tmp_path):
    text = '{"dims": [2, 2], "states": [[[1, 0], [0, 0], [0, %s], [0, 0]]]}' % literal
    with pytest.raises(StateFileError, match=r"^state 0, component 2: amplitude is not a finite number$"):
        parse_state_file(text)
    plane = ('{"dims": [2, 2, 2], "states": [[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]],'
             ' "planes": {"1": [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [%s, 0], [0, 0], [0, 0]]]}}' % literal)
    with pytest.raises(StateFileError, match=r"^plane 1 row 1, component 1: amplitude is not a finite number$"):
        parse_state_file(plane)
    if literal in ("1" + "0" * 400, "NaN"):  # through the CLI: input error, not a verdict
        path = tmp_path / "hostile.json"
        path.write_text(text)
        got = cli("verify", str(path), "--kind", "ueb")
        assert got.returncode == 3
        assert got.stderr == "error: state 0, component 2: amplitude is not a finite number\n"


def test_malformed_state_rows_keep_their_messages(tmp_path):
    """The state rows are converted in one call; a row that call cannot take, or takes wrongly
    (a bool or a numeric string would convert), is refused row by row with the message of
    the first bad component and exit 3."""
    e = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    bad = "error: state 1, component 1: expected an [re, im] number pair\n"
    finite = "error: state 1, component 1: amplitude is not a finite number\n"
    cases = {
        "ragged": ([e[0], e[1][:3]], "error: state 1 must be a list of 4 [re, im] pairs\n"),
        "string": ([e[0], [[0.0, 0.0], ["1.0", 0.0]] + e[1][2:]], bad),
        "bool": ([e[0], [[0.0, 0.0], [True, 0.0]] + e[1][2:]], bad),
        "triple": ([e[0], [[0.0, 0.0], [1.0, 0.0, 0.0]] + e[1][2:]], bad),
        "nan": ([e[0], [[0.0, 0.0], [math.nan, 0.0]] + e[1][2:]], finite),
        "bigint": ([e[0], [[0.0, 0.0], ["BIG", 0.0]] + e[1][2:]], finite),
        "inf": ([e[0], [[0.0, 0.0], ["INF", 0.0]] + e[1][2:]], finite),
    }
    for name, (states, message) in cases.items():
        text = json.dumps({"name": None, "dims": [2, 2], "kind": "UEB", "states": states})
        text = text.replace('"BIG"', "9" * 400).replace('"INF"', "1e999")  # literals json.dumps cannot write
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        got = cli("verify", str(path))
        assert (got.returncode, got.stdout, got.stderr) == (3, "", message), name
    good = [e[0], [[0, 0], [1, 0], [0, 0], [0, 0]]]  # integer literals convert as before
    assert parse_state_file(json.dumps({"dims": [2, 2], "states": good})).states.matrix().tolist() == [
        [1, 0, 0, 0], [0, 1, 0, 0]]


@pytest.mark.parametrize("gram_fix", [False, True])
def test_state_file_row_errors_keep_their_messages(gram_fix, tmp_path, capsys):
    """A state of norm 2, and a NaN in the second of three rows, are refused with exit 3,
    nothing on stdout and one error line naming the state, with or without the gram fix."""
    e = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    cases = {
        "norm2.json": ([[[2.0, 0.0]] + e[0][1:]],
                       "error: state 0: state norm 2.0 deviates from 1 by more than 1e-06\n"),
        "nan.json": ([e[0], [[0.0, 0.0], [math.nan, 0.0]] + e[1][2:], e[2]],
                     "error: state 1, component 1: amplitude is not a finite number\n"),
    }
    for name, (states, message) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps({"name": None, "dims": [2, 2], "kind": "UEB", "states": states}))
        for command in ("verify", "analyze"):
            assert uebkit.cli.main([command, str(path)] + ["--gram-fix"] * gram_fix) == 3
            assert capsys.readouterr() == ("", message), (name, command)


def test_parse_mixed_int_and_float_pairs_exactly():
    big = 2**70 + 1  # not a float: rounds to the nearest one, as complex() does
    doc = {"dims": [2, 2], "states": [[[big, 0.25], [-3, 1e-300], [0, 0], [1.5, -2]]]}
    amps = uebkit.statefile._pair_vector(doc["states"][0], 4, "state 0")
    want = np.array([complex(big, 0.25), complex(-3, 1e-300), 0j, complex(1.5, -2)])
    assert amps.tobytes() == want.tobytes()


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


def test_parse_refuses_more_states_than_the_dimension_before_reading_rows(monkeypatch):
    rows = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 5
    doc = json.dumps({"dims": [2, 2], "states": rows})
    seen = []
    real = uebkit.statefile._pair_vector
    monkeypatch.setattr(uebkit.statefile, "_pair_vector", lambda *a: seen.append(a) or real(*a))
    for gram_fix in (False, True):
        with pytest.raises(StateFileError) as err:
            parse_state_file(doc, gram_fix=gram_fix)
        assert str(err.value) == "5 states cannot be orthogonal in dimension 4"
    assert seen == []


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


def test_cli_refuses_a_negative_seed_before_any_output():
    for args in (("verify", "eq1-ueb"), ("analyze", "prop2a-set", "--completion", "entangled")):
        got = cli(*args, "--seed", "-1")
        assert (got.returncode, got.stdout, got.stderr) == (3, "", "error: seed must be >= 0\n"), args


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
    # the entangled completion is decided exactly, so it needs no search starts
    got = cli("analyze", "prop2a-set", "--completion", "entangled", "--starts", "0")
    assert got.returncode == 0
    block = json.loads(got.stdout)["completion"]
    assert (block["found"], block["completable"]) == (3, "YES")

    # three parties: a completion request needs a cut to work across
    assert cli("analyze", "eq6-mixed-ueb", "--completion", "entangled").returncode == 3
    got = cli("analyze", "eq6-mixed-ueb", "--completion", "entangled", "--cut", "1")
    assert got.returncode == 0
    assert json.loads(got.stdout)["completion"]["completable"] == "NO_EXACT"


def test_cli_analyze_completion_of_a_spanning_set(tmp_path, capsys):
    """A spanning set is complete in either mode; a --cut given with it is
    parsed like any other, so a mask that splits no parties is refused."""
    full = tmp_path / "full.json"
    save_state_file(full, bell_meb(2))
    for mode in ("entangled", "max-entangled"):
        assert uebkit.cli.main(["analyze", str(full), "--completion", mode]) == 0
        out, err = capsys.readouterr()
        block = json.loads(out)["completion"]
        assert (block["completable"], block["found"], block["complement_dim"], err) == ("YES", 0, 0, "")
        assert block["reason"] == "input already spans the space"
    assert uebkit.cli.main(["analyze", str(full), "--completion", "entangled", "--cut", "99"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: mask 99 does not describe a proper nonempty split of 2 parties\n"


def test_cli_analyze_refuses_a_cut_without_completion(capsys):
    """analyze uses a cut only for the completion search, so a --cut without
    --completion is refused, a valid mask as much as an invalid one."""
    for mask in ("99", "3"):
        assert uebkit.cli.main(["analyze", "eq6-mixed-ueb", "--cut", mask]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --cut") and err.count("\n") == 1


def test_cli_refuses_a_non_integer_cut_mask(capsys):
    """A --cut that is not an integer is refused with one error line naming --cut and what it takes."""
    for argv in (["verify", "eq1-ueb", "--kind", "ueb", "--cut", "abc"],
                 ["analyze", "prop2a-set", "--completion", "entangled", "--cut", "abc"]):
        assert uebkit.cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == "error: --cut takes an integer cut mask, or 'all' for verify; got 'abc'\n", argv


@pytest.mark.parametrize("argv, option", [
    (["construct", "eq1-ueb", "--d", "5"], "--d"),
    (["construct", "nqubit-ueb", "--n", "4", "--d", "3"], "--d"),
    (["construct", "bell-meb", "--d", "2", "--kets", "0"], "--kets"),
    (["construct", "eq1-ueb", "--variant", "hadamard"], "--variant"),
    (["verify", "eq1-ueb", "--gram-fix"], "--gram-fix"),
])
def test_cli_refuses_options_the_request_does_not_use(argv, option, monkeypatch, capsys):
    """An option the named family or input never reads is refused before anything is built."""
    def refused(*args, **kwargs):
        raise AssertionError("built a set for a request it should have refused")

    for builder in ("build_entry", "build_entry_with_verdict", "build_generator"):
        monkeypatch.setattr(uebkit.cli, builder, refused)
    assert uebkit.cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {argv[1]} takes no {option}")


def _eq6_with_planes(path, keys):
    """The eq6-mixed-ueb file with the plane span{|00>, (|01> + |10>)/sqrt 2} under each key."""
    s = 1.0 / math.sqrt(2.0)
    rows = [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [s, 0], [s, 0], [0, 0]]]
    doc = json.loads("".join(state_file_chunks(build_entry("eq6-mixed-ueb"), kind=BasisKind.UEB_ALL_CUTS)))
    doc["planes"] = {key: rows for key in keys}
    path.write_text(json.dumps(doc))
    return path


def test_plane_key_is_stored_under_the_canonical_mask(tmp_path, capsys):
    """Mask 6 on 2x2x2 is the cut 1|23, canonical mask 1: a plane keyed 6 is the
    plane of that cut, and a second key naming the same cut is refused."""
    reports = {}
    for key in ("1", "6"):
        path = _eq6_with_planes(tmp_path / f"k{key}.json", [key])
        assert set(load_state_file(path).planes) == {1}
        assert uebkit.cli.main(["analyze", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        reports[key] = json.loads(out)
        del reports[key]["input"]
    assert reports["6"] == reports["1"]
    assert reports["1"]["local_indistinguishability"]["status"] == "NOT_APPLICABLE"

    with pytest.raises(StateFileError, match=r"^plane key 6: the cut 1\|23 already has a plane$"):
        load_state_file(_eq6_with_planes(tmp_path / "both.json", ["1", "6"]))
    assert uebkit.cli.main(["analyze", str(tmp_path / "both.json")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: plane key 6: the cut 1|23 already has a plane\n"

    path = tmp_path / "saved.json"
    save_state_file(path, build_entry("eq6-mixed-ueb"), planes={6: symmetric_bell_plane()})
    loaded = load_state_file(path)
    assert set(loaded.planes) == {1}
    assert np.array_equal(loaded.planes[1], symmetric_bell_plane())


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

    def construct(*args):
        got = cli("construct", *args, "-o", str(out))
        assert got.returncode == 0
        report = json.loads(got.stdout)
        return report, json.loads(out.read_text())

    # the gate field names the outcome the generator's claim requires
    report, doc = construct("bell-meb", "--d", "3")
    assert (report["kind"], report["gate"]) == ("UMEB", "COMPLETE_BASIS")
    assert doc["dims"] == [3, 3] and len(doc["states"]) == 9

    report, doc = construct("embed-meb", "--d", "3", "--n", "2")
    assert (report["kind"], report["gate"]) == ("UMEB", "VERIFIED")
    assert doc["dims"] == [3, 5] and len(doc["states"]) == 9

    report, doc = construct("nqubit-ueb", "--n", "5")
    assert (report["kind"], report["gate"]) == ("UEB_ALL_CUTS", "VERIFIED")
    assert len(doc["states"]) == 31

    report, doc = construct("dft-superposition", "--dims", "2,2,2", "--kets", "001,010,100")
    assert (report["kind"], report["gate"]) == (None, "ORTHONORMAL")
    assert len(doc["states"]) == 3

    report, _ = construct("prop2a-set")
    assert (report["kind"], report["gate"]) == (None, "ORTHONORMAL")

    assert cli("construct", "nqubit-ueb", "--n", "5", "--variant", "hadamard").returncode == 3
    assert cli("construct", "no-such-thing").returncode == 3


def test_cli_refuses_oversized_spaces_before_building(tmp_path, capsys):
    """A space whose D x D complement array would pass 1 GiB (D > 8192) exits 3
    at once, from generator parameters or state-file dims, before any
    amplitude array exists."""
    path = tmp_path / "qubits14.json"
    path.write_text(json.dumps({"dims": [2] * 14, "states": [[[1.0, 0.0]] + [[0.0, 0.0]] * (2 ** 14 - 1)]}))
    for argv in (["construct", "nqubit-ueb", "--n", "20"], ["construct", "bell-meb", "--d", "100"],
                 ["verify", str(path), "--kind", "ueb-all-cuts"]):
        start = time.perf_counter()
        assert uebkit.cli.main(argv) == 3, argv
        assert time.perf_counter() - start < 1.0, argv
        err = capsys.readouterr().err
        assert "space dimension above 8192 refused" in err and "MAX_COMPLEMENT_BYTES" in err, argv
    uebkit.states.check_complement_size((2,) * 13)
    uebkit.states.check_complement_size((8192,))
    with pytest.raises(ValueError):
        uebkit.states.check_complement_size((8193,))


def test_cli_catalog_listing():
    got = cli("catalog", "list")
    assert got.returncode == 0
    doc = json.loads(got.stdout)
    ids = {row["id"] for row in doc["entries"]}
    assert set(CATALOG) <= ids
    assert all(row["kind"] is not None for row in doc["entries"])
    assert "prop2a-set" in {g["name"] for g in doc["generators"]}


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    """In-process callers of main get no process-wide side effect: only run() freezes."""
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    for argv, code in ((["catalog", "list"], 0), (["verify", "eq6-mixed-ueb"], 0), (["verify", str(bad)], 3)):
        before = gc.get_freeze_count(), gc.isenabled()
        assert uebkit.cli.main(argv) == code, argv
        assert (gc.get_freeze_count(), gc.isenabled()) == before, argv
    capsys.readouterr()


def test_process_entry_prints_what_main_prints(tmp_path, capsys):
    """`python -m uebkit.cli` goes through run(); its stdout, stderr and exit
    code are those of main called in process."""
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    for argv in (["catalog", "list"], ["verify", "eq6-mixed-ueb"],
                 ["analyze", "eq6-mixed-ueb", "--format", "text"], ["verify", str(bad)]):
        code = uebkit.cli.main(argv)
        out, err = capsys.readouterr()
        got = cli(*argv)
        assert (got.stdout, got.stderr, got.returncode) == (out, err, code), argv
    assert code == 3 and err.startswith("error: ")


def test_process_entry_freezes_the_import_time_heap():
    """run() freezes the heap before the command, so the collections at
    shutdown skip what the imports created; an atexit hook, which runs
    before those collections, sees the frozen objects."""
    got = python("-c", "import atexit, gc, sys, uebkit.cli\n"
                       "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
                       "sys.argv[1:] = ['catalog', 'list']\n"
                       "uebkit.cli.run()\n")
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout)["entries"]
    (line,) = got.stderr.splitlines()
    word, count = line.split()
    assert word == "frozen" and int(count) > 0


def test_verify_and_analyze_compute_one_rank_table(tmp_path, monkeypatch, capsys):
    """One member table per command, shared by the gate and the report; a verified
    complement adds one single-row table, its support ranks (here the ray itself). A refuted
    complement whose support ranks the dimension lemma settles adds the witness probe's
    tables alone: its basis at every cut, then the pair sums of its first row at the cuts
    where no basis vector is entangled."""
    path = tmp_path / "ueb5.json"
    save_state_file(path, uebkit.n_qubit_ueb(5), kind=BasisKind.UEB_ALL_CUTS)
    sp5 = QuditDims((2,) * 5)
    w5 = tmp_path / "w5.json"
    weight_one = ["0" * i + "1" + "0" * (4 - i) for i in range(5)]
    save_state_file(w5, StateSet(sp5, tuple(dft_superposition(sp5, weight_one))))
    calls = []
    table = uebkit.cuts.schmidt_rank_table

    def counting(*args, **kwargs):
        calls.append((len(args[0]), len(args[1])))
        return table(*args, **kwargs)

    for mod in (uebkit.subspaces, uebkit.report):
        monkeypatch.setattr(mod, "schmidt_rank_table", counting)
    for argv, want in ((["verify", str(path)], [(31, 15), (1, 15)]), (["analyze", str(path)], [(31, 15)]),
                       (["verify", "eq6-mixed-ueb"], [(7, 3), (1, 3)]),
                       (["analyze", "eq6-mixed-ueb"], [(7, 3), (1, 3)])):
        calls.clear()
        assert uebkit.cli.main(argv) == 0
        assert calls == want, argv
    # a one-cut gate leaves the all-cuts table to the report
    calls.clear()
    assert uebkit.cli.main(["verify", str(path), "--kind", "ueb", "--cut", "3"]) == 0
    assert calls == [(31, 1), (1, 1), (31, 15)]
    calls.clear()
    assert uebkit.cli.main(["verify", str(w5), "--kind", "ueb-all-cuts"]) == 1
    assert calls == [(5, 15), (27, 15), (26, 7)]
    capsys.readouterr()


def test_catalog_verify_reuses_the_gate_verdict(monkeypatch, capsys):
    calls = []
    verify = uebkit.subspaces.verify_basis

    def counting(*args, **kwargs):
        calls.append(args[1])
        return verify(*args, **kwargs)

    for mod in (uebkit.catalog, uebkit.cli):
        monkeypatch.setattr(mod, "verify_basis", counting)
    assert uebkit.cli.main(["verify", "eq6-mixed-ueb"]) == 0
    assert calls == [BasisKind.UEB_ALL_CUTS]
    reused = capsys.readouterr().out
    # another kind or an explicit cut is a different check: it runs instead of the gate
    calls.clear()
    assert uebkit.cli.main(["verify", "eq6-mixed-ueb", "--kind", "ueb-all-cuts", "--cut", "all"]) == 0
    assert calls == [BasisKind.UEB_ALL_CUTS]
    assert capsys.readouterr().out == reused
    calls.clear()
    assert uebkit.cli.main(["verify", "eq1-ueb", "--kind", "umeb"]) == 1
    assert calls == [BasisKind.UMEB]
    capsys.readouterr()


def _spy(monkeypatch, name):
    """Count calls to the uebkit function `name` from every uebkit module that binds it."""
    calls = []
    real = getattr(uebkit, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("uebkit") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_catalog_completion_reuses_the_gate_complement(monkeypatch, capsys, tmp_path):
    """analyze <catalog id> --completion searches the complement the catalog gate computed:
    one orthogonal_complement call, and the report of the same set read from a state file,
    whose complement is computed afresh, apart from the input block."""
    path = tmp_path / "eq1.json"
    save_state_file(path, build_entry("eq1-ueb"), kind=BasisKind.UEB, name="eq1-ueb")
    complements = _spy(monkeypatch, "orthogonal_complement")
    reports = []
    for ref in ("eq1-ueb", str(path)):
        complements.clear()
        assert uebkit.cli.main(["analyze", ref, "--completion", "entangled"]) == 0
        assert len(complements) == 1, ref
        reports.append(json.loads(capsys.readouterr().out))
    for doc in reports:
        doc.pop("input")
    assert reports[0] == reports[1]
    assert reports[0]["completion"]["completable"] == "NO_EXACT"


def test_each_command_gates_a_catalog_entry_once(monkeypatch, capsys):
    """construct, verify and analyze of a catalog id run verify_basis once, and
    a UMEB entry's members are checked for maximal entanglement once, by it."""
    verified = _spy(monkeypatch, "verify_basis")
    me_checks = _spy(monkeypatch, "is_maximally_entangled")
    for eid, entry in CATALOG.items():
        members = len(build_entry(eid)) if entry.kind is BasisKind.UMEB else 0
        for command in ("construct", "verify", "analyze"):
            verified.clear()
            me_checks.clear()
            assert uebkit.cli.main([command, eid]) == 0, (command, eid)
            assert (len(verified), len(me_checks)) == (1, members), (command, eid)
    capsys.readouterr()


def test_a_failed_gate_exits_1_with_one_error_line(monkeypatch, capsys):
    verify = uebkit.catalog.verify_basis

    def missed(*args, **kwargs):
        return dataclasses.replace(verify(*args, **kwargs), outcome=Outcome.REFUTED)

    monkeypatch.setattr(uebkit.catalog, "verify_basis", missed)
    for argv, family in ((["construct", "eq1-ueb"], "eq1-ueb"), (["verify", "eq1-ueb"], "eq1-ueb"),
                         (["construct", "appendix-4qubit"], "appendix-4qubit"),
                         (["construct", "bell-meb", "--d", "2"], "bell-meb(d=2)"),
                         (["construct", "nqubit-ueb", "--n", "4"], "nqubit-ueb(n=4)")):
        assert uebkit.cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        (line,) = err.splitlines()
        assert line.startswith(f"error: {family} failed its gate: verifier returned REFUTED,"), argv


def test_catalog_verify_of_another_kind_computes_one_complement(monkeypatch, capsys):
    """verify eq1-ueb --kind complete skips the UEB gate: one orthogonal_complement
    call, and the report is the one the gated run printed."""
    calls = []
    complement = uebkit.states.orthogonal_complement

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return complement(*args, **kwargs)

    for mod in (uebkit.subspaces, uebkit.slocc, uebkit.cli):
        monkeypatch.setattr(mod, "orthogonal_complement", counting)
    assert uebkit.cli.main(["verify", "eq1-ueb", "--kind", "complete"]) == 1
    assert calls == [3]
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert (doc["kind"], doc["outcome"], doc["grade"], doc["complement_dim"]) == ("COMPLETE", "REFUTED", "EXACT", 1)
    assert hashlib.sha256(out.encode()).hexdigest() == EQ1_COMPLETE_SHA256


def test_analyze_computes_one_complement(monkeypatch, capsys, tmp_path):
    """analyze of a 2x2x2 catalog entry, or of its state file, hands one
    complement to the SLOCC block and the report: one orthogonal_complement
    call, and the report prints the bytes it printed when the resource flag
    computed its own complement and classified every member again."""
    calls = []
    complement = uebkit.states.orthogonal_complement

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return complement(*args, **kwargs)

    monkeypatch.chdir(tmp_path)
    save_state_file("eq6.json", build_entry("eq6-mixed-ueb"), kind=BasisKind.UEB_ALL_CUTS, name="eq6-mixed-ueb")
    for mod in (uebkit.subspaces, uebkit.slocc, uebkit.cli):
        monkeypatch.setattr(mod, "orthogonal_complement", counting)
    for ref, digest in EQ6_ANALYZE_SHA256.items():
        calls.clear()
        assert uebkit.cli.main(["analyze", ref]) == 0
        assert calls == [7], ref
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, ref


def test_analyze_classifies_each_three_qubit_vector_once(monkeypatch, capsys, tmp_path):
    """The slocc block reads the class labels of the states block and
    classifies only a one-dimensional complement ray: eq6-mixed-ueb has 7
    members and a complement ray, eq5-w-ueb 6 members and a complement plane.
    A catalog gate also counts the complement's support ranks in one
    single-row table."""
    path = tmp_path / "eq6.json"
    save_state_file(path, build_entry("eq6-mixed-ueb"), kind=BasisKind.UEB_ALL_CUTS, name="eq6-mixed-ueb")
    classified, tables = [], []
    classify, table = uebkit.slocc.classify_from_ranks, uebkit.cuts.schmidt_rank_table

    def counting_classify(*args, **kwargs):
        classified.append(args[0])
        return classify(*args, **kwargs)

    def counting_table(*args, **kwargs):
        tables.append(len(args[0]))
        return table(*args, **kwargs)

    for mod in (uebkit.slocc, uebkit.report):
        monkeypatch.setattr(mod, "classify_from_ranks", counting_classify)
    for mod in (uebkit.subspaces, uebkit.report, uebkit.slocc):
        monkeypatch.setattr(mod, "schmidt_rank_table", counting_table)
    for ref, want in (("eq6-mixed-ueb", (8, [7, 1, 1])), (str(path), (8, [7, 1])), ("eq5-w-ueb", (6, [6, 1]))):
        classified.clear()
        tables.clear()
        assert uebkit.cli.main(["analyze", ref]) == 0
        assert (len(classified), tables) == want, ref
    capsys.readouterr()


def test_analyze_slocc_block_is_invariant(capsys, tmp_path):
    """Files of eq5-w-ueb and eq6-mixed-ueb written under each of the 6 party
    permutations and seeded local unitaries print the catalog report's slocc
    labels and resource flag, and its tangles within 1e-12."""
    for entry in ("eq5-w-ueb", "eq6-mixed-ueb"):
        assert uebkit.cli.main(["analyze", entry]) == 0
        want = json.loads(capsys.readouterr().out)["slocc"]
        st = build_entry(entry)
        for i, perm in enumerate(itertools.permutations(range(3))):
            rng = np.random.default_rng([45, i])
            us = [uebkit.haar_unitary(2, rng) for _ in range(3)]
            moved = StateSet(st.space, tuple(
                uebkit.apply_local_unitaries(PureState(st.space, p.amps.reshape(2, 2, 2).transpose(perm).reshape(8)), us)
                for p in st.states))
            path = tmp_path / f"{entry}-{i}.json"
            save_state_file(path, moved, kind=BasisKind.UEB_ALL_CUTS, name=entry)
            assert uebkit.cli.main(["analyze", str(path)]) == 0, (entry, perm)
            got = json.loads(capsys.readouterr().out)["slocc"]
            assert (got["labels"], got["resource_dimension_flag"]) == (want["labels"], want["resource_dimension_flag"])
            assert np.allclose(got["tangles"], want["tangles"], rtol=0.0, atol=1e-12), (entry, perm)
