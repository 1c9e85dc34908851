import json
import subprocess
import sys
import time
from collections import Counter

import pytest

from skewtab import classify, harness
from skewtab.cli import main


@pytest.fixture
def shape_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_shape_all_flags(shape_file, capsys):
    path = shape_file("s.json", {"lambda": [2, 2]})
    code, out, _ = run_cli(capsys, "classify", "--shape", path)
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert verdicts == {"unmixed": True, "scm": False, "cm": False,
                        "buchsbaum": True, "gcm": True}


def test_classify_single_property_with_explain(shape_file, capsys):
    path = shape_file("s.json", {"lambda": [6, 6, 6, 6, 2, 2], "mu": [5, 4, 1, 1, 1, 0]})
    code, out, _ = run_cli(capsys, "classify", "--shape", path,
                           "--property", "unmixed", "--explain")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    cert = data["explain"]["unmixed_certificates"][0]
    assert len(cert["pieces"]) == 3


def test_classify_filling(shape_file, capsys):
    spath = shape_file("s.json", {"lambda": [5, 4, 4], "mu": [2, 1, 0]})
    fpath = shape_file("f.json", {"rows": [[2, 3, 1], [2, 2, 1], [2, 2, 4, 3]]})
    code, out, _ = run_cli(capsys, "classify", "--shape", spath,
                           "--filling", fpath, "--property", "scm")
    assert code == 0
    assert json.loads(out)["verdict"] is False


def test_classify_oracle_mode(shape_file, capsys):
    spath = shape_file("s.json", {"lambda": [3, 2]})
    code, out, _ = run_cli(capsys, "classify", "--shape", spath, "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["oracle"] is True
    assert data["verdicts"]["scm"] is True and data["verdicts"]["unmixed"] is False


def test_classify_oracle_matches_classifier_on_filling(shape_file, capsys):
    spath = shape_file("s.json", {"lambda": [2, 2]})
    fpath = shape_file("f.json", {"lambda": [2, 2], "rows": [[1, 2], [2, 1]]})
    _, out1, _ = run_cli(capsys, "classify", "--shape", spath, "--filling", fpath)
    _, out2, _ = run_cli(capsys, "classify", "--shape", spath, "--filling", fpath, "--oracle")
    assert json.loads(out1)["verdicts"] == json.loads(out2)["verdicts"]


def test_classify_oracle_on_weight_2_square(shape_file, capsys):
    """The weight-2 square is gCM but not Buchsbaum on the oracle side too
    (proof in test_tableau.py::test_classify_tableau_examples)."""
    spath = shape_file("s.json", {"lambda": [2, 2]})
    fpath = shape_file("f.json", {"rows": [[2, 2], [2, 2]]})
    code, out, _ = run_cli(capsys, "classify", "--shape", spath, "--filling", fpath, "--oracle")
    assert code == 0
    assert json.loads(out)["verdicts"] == {"unmixed": True, "scm": False, "cm": False,
                                           "buchsbaum": False, "gcm": True}


@pytest.mark.parametrize("filling", [None, {"rows": []}])
def test_classify_oracle_on_empty_shape(shape_file, capsys, filling):
    """The empty shape's ideal is zero: no associated primes, so it is
    unmixed, and every flag holds on the oracle side as on the classifier's,
    for the bare shape and for its empty filling alike."""
    argv = ["classify", "--shape", shape_file("s.json", {"lambda": []})]
    if filling is not None:
        argv += ["--filling", shape_file("f.json", filling)]
    code, out, _ = run_cli(capsys, *argv, "--oracle")
    assert code == 0
    flags = json.loads(out)["verdicts"]
    assert flags == dict.fromkeys(("unmixed", "scm", "cm", "buchsbaum", "gcm"), True)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert all(json.loads(out)["verdicts"].values())


ORACLES = ("from_shape", "is_unmixed_ideal", "is_scm_weighted_oracle", "is_buchsbaum_graph")


@pytest.mark.parametrize("filling, want", [
    (None, {"from_shape": 1, "is_unmixed_ideal": 1, "is_scm_weighted_oracle": 1,
            "is_buchsbaum_graph": 1}),
    ({"rows": [[2, 2], [2, 2]]}, {"from_shape": 1, "is_unmixed_ideal": 1,
                                  "is_scm_weighted_oracle": 1}),
])
def test_classify_oracle_runs_each_oracle_once(shape_file, capsys, monkeypatch, filling, want):
    """``classify --oracle`` prints five flags but builds the graph and runs
    each oracle once: cm reuses unmixed and scm, a filling's Buchsbaum and
    gCM reuse its cm, and a shape's Buchsbaum and gCM are one graph test.
    The 2x2 square is unmixed, so cm needs the scm oracle as well."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ORACLES:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    argv = ["classify", "--shape", shape_file("s.json", {"lambda": [2, 2]}), "--oracle"]
    if filling is not None:
        argv += ["--filling", shape_file("f.json", filling)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["verdicts"] == {"unmixed": True, "scm": False, "cm": False,
                                           "buchsbaum": filling is None, "gcm": True}
    assert calls == want


def test_classify_explain_scm_trace_is_json(shape_file, capsys):
    spath = shape_file("s.json", {"lambda": [5, 5, 4], "mu": [2, 1, 0]})
    code, out, _ = run_cli(capsys, "classify", "--shape", spath,
                           "--property", "scm", "--explain")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    trace = data["explain"]["scm_trace"]
    root = trace["nodes"][trace["components"][0]]
    assert root["pivot"] == ["row", 3] and root["case"] == 4

    fpath = shape_file("f.json", {"rows": [[1, 2], [3]]})
    s2 = shape_file("s2.json", {"lambda": [2, 1]})
    code, out, _ = run_cli(capsys, "classify", "--shape", s2, "--filling", fpath,
                           "--explain")
    assert code == 0
    trace = json.loads(out)["explain"]["scm_trace"]
    assert trace["scm"] is True and "levels" in trace["nodes"][0]


def test_decompose(shape_file, capsys):
    path = shape_file("s.json", {"lambda": [3, 3, 1]})
    code, out, _ = run_cli(capsys, "decompose", "--shape", path)
    assert code == 0
    data = json.loads(out)
    assert data["unmixed"] is True
    assert len(data["components"]) == 1
    assert data["components"][0]["certificate"]["pieces"][0]["orientation"] == "upper"


def test_decompose_failure_witness(shape_file, capsys):
    path = shape_file("s.json", {"lambda": [3, 3, 2]})
    code, out, _ = run_cli(capsys, "decompose", "--shape", path)
    assert code == 0
    data = json.loads(out)
    assert data["unmixed"] is False
    assert data["components"][0]["certificate"]["reason"] == "nonsquare corner block"


def test_render_shape_and_filling(shape_file, capsys):
    spath = shape_file("s.json", {"lambda": [3, 2], "mu": [1, 0]})
    code, out, _ = run_cli(capsys, "render", "--shape", spath)
    assert code == 0
    assert out == ". # #\n# # .\n"
    fpath = shape_file("f.json", {"rows": [[2, 1], [3, 4]]})
    code, out, _ = run_cli(capsys, "render", "--shape", spath, "--filling", fpath)
    assert code == 0
    assert out == ". 2 1\n3 4 .\n"


def test_crosscheck_exit_code_and_report(shape_file, capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--property", "unmixed",
                           "--max-boxes", "4")
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == 41 and data["disagreements"] == []


@pytest.mark.parametrize("bounds", [
    ["--max-boxes", "0"], ["--max-boxes", "-2"],
    ["--max-boxes", "3", "--jobs", "0"], ["--max-boxes", "3", "--jobs", "-3"],
    ["--max-boxes", "3", "--weighted", "--max-weight", "0"],
])
def test_crosscheck_bad_bounds_exit_2(capsys, bounds):
    """A bound below 1 is invalid input, also --jobs, which is not taken as 1."""
    code, out, err = run_cli(capsys, "crosscheck", "--property", "scm", *bounds)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("bounds, code, message", [
    (["--max-boxes", "100000000"], 2, "max_boxes must be <= 20"),
    (["--max-boxes", "21"], 2, "max_boxes must be <= 20"),
    (["--weighted", "--max-boxes", "6", "--max-weight", "1000000"], 2,
     "max_weight ** max_boxes must be <= 10000000"),
    (["--weighted", "--max-boxes", "7", "--max-weight", "11"], 2,
     "max_weight ** max_boxes must be <= 10000000"),
    (["--max-boxes", "20"], 0, ""),
    (["--max-boxes", "17"], 0, ""),
    (["--weighted", "--max-boxes", "7", "--max-weight", "10"], 0, ""),
    (["--weighted", "--max-boxes", "7", "--max-weight", "3"], 0, ""),
    (["--weighted", "--max-boxes", "8"], 0, ""),
    (["--weighted", "--max-boxes", "5", "--max-weight", "4"], 0, ""),
])
def test_crosscheck_refuses_bounds_out_of_reach(capsys, monkeypatch, bounds, code, message):
    """Bounds whose run would not end, above 20 boxes or with more than
    10**7 fillings per shape, exit 2 before any instance is enumerated;
    every bound run in CI, and 17 boxes, is accepted.  No run starts: each
    worker's share of the run is replaced by an empty one."""
    calls = []
    monkeypatch.setattr(harness, "_check_share", lambda task: calls.append(task) or (0, []))
    got, out, err = run_cli(capsys, "crosscheck", "--property", "scm", *bounds)
    assert got == code
    if code:
        assert out == "" and err == f"error: {message}\n" and calls == []
    else:
        assert json.loads(out)["instances"] == 0 and len(calls) >= 1


def test_invalid_inputs_exit_2(shape_file, capsys):
    code, _, err = run_cli(capsys, "classify", "--shape", "/does/not/exist.json")
    assert code == 2 and "error:" in err
    bad = shape_file("bad.json", {"lambda": [1, 2]})
    code, _, err = run_cli(capsys, "classify", "--shape", bad)
    assert code == 2 and "error:" in err
    spath = shape_file("s.json", {"lambda": [2, 1]})
    fbad = shape_file("fbad.json", {"lambda": [3], "rows": [[1, 1, 1]]})
    code, _, err = run_cli(capsys, "classify", "--shape", spath, "--filling", fbad)
    assert code == 2


def test_filling_mu_padded_with_zeros(shape_file, capsys):
    """A filling may repeat the shape's mu without its trailing zeros, as a
    shape may give it; any mu list, the empty one included, is padded and
    compared, so one that differs once padded is exit 2."""
    spath = shape_file("s.json", {"lambda": [3, 2, 2], "mu": [1]})
    rows = [[1, 1], [1, 1], [1, 1]]
    argv = ["classify", "--shape", spath, "--explain", "--filling"]
    bare = run_cli(capsys, *argv, shape_file("f.json", {"lambda": [3, 2, 2], "rows": rows}))
    assert bare[0] == 0
    short = shape_file("short.json", {"lambda": [3, 2, 2], "mu": [1], "rows": rows})
    assert run_cli(capsys, *argv, short) == bare
    for mu in ([1, 1], [], [0]):
        wrong = shape_file("wrong.json", {"lambda": [3, 2, 2], "mu": mu, "rows": rows})
        code, out, err = run_cli(capsys, *argv, wrong)
        assert code == 2 and out == "" and "inner partition" in err, mu

    spath = shape_file("s.json", {"lambda": [2, 1]})
    rows = [[1, 2], [1]]
    bare = run_cli(capsys, *argv, shape_file("f.json", {"rows": rows}))
    assert bare[0] == 0
    for mu in ([], [0]):
        zero = shape_file("zero.json", {"mu": mu, "rows": rows})
        assert run_cli(capsys, *argv, zero) == bare, mu


@pytest.mark.parametrize("shape, filling", [
    ({"lambda": [True, 1]}, None),
    ({"lambda": [2, 1], "mu": [True, False]}, None),
    ({"lambda": [2, 1]}, {"rows": [[1, True], [2]]}),
    # JSON of the wrong type where a list or an object belongs
    ({"lambda": 5}, None),
    ({"lambda": [2, 1], "mu": 7}, None),
    (5, None),
    ({"lambda": [2, 1]}, {"rows": 5}),
    ({"lambda": [2, 1]}, {"rows": [[1, 1], 5]}),
    ({"lambda": [2, 1]}, [[1, 1], [1]]),
    ({"lambda": [2, 1]}, {"lambda": 5, "rows": [[1, 1], [1]]}),
    ({"lambda": [2, 1]}, {"mu": 7, "rows": [[1, 1], [1]]}),
    # a filling's partitions are compared with the shape's as integers
    ({"lambda": [2, 1], "mu": [1]}, {"lambda": [2, True], "rows": [[1], [1]]}),
    ({"lambda": [2, 1], "mu": [1]}, {"mu": [True], "rows": [[1], [1]]}),
])
def test_json_booleans_are_not_integers(shape_file, capsys, shape, filling):
    """Malformed JSON is invalid input: exit 2 and an error line, no traceback."""
    argv = ["classify", "--shape", shape_file("s.json", shape)]
    if filling is not None:
        argv += ["--filling", shape_file("f.json", filling)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")



def test_internal_error_exits_3(shape_file, capsys, monkeypatch):
    """A filling's cm is computed twice, and ``classify_flags`` raises
    RuntimeError when the two disagree: a fault of the classifier, not of
    the input or a cross-check, so exit 3 with one line on stderr that
    names the instance."""
    monkeypatch.setattr(classify, "_unmixed_connected", lambda key: (True, False))
    spath = shape_file("s.json", {"lambda": [1]})
    fpath = shape_file("f.json", {"rows": [[1]]})
    code, out, err = run_cli(capsys, "classify", "--shape", spath, "--filling", fpath)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert str({"lambda": [1], "mu": [0], "rows": [[1]]}) in err


def test_recursion_error_escapes(shape_file, monkeypatch):
    """A RecursionError (a shape too deep for the recursive SCM search) is
    not turned into an exit code."""
    def too_deep(key):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(classify, "_scm_connected", too_deep)
    with pytest.raises(RecursionError):
        main(["classify", "--shape", shape_file("s.json", {"lambda": [1]})])

@pytest.mark.parametrize("argv", [
    ["classify", "--shape", "NESTED"],
    ["classify", "--shape", "SHAPE", "--filling", "NESTED"],
    ["render", "--shape", "NESTED"],
])
def test_deeply_nested_json_exits_2(shape_file, capsys, tmp_path, argv):
    """JSON nested past the parser's recursion limit is invalid input: exit
    2 and an error line, not a RecursionError traceback, whose exit 1 would
    read as a cross-check disagreement."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    files = {"SHAPE": shape_file("s.json", {"lambda": [2, 1]}), "NESTED": str(nested)}
    code, out, err = run_cli(capsys, *[files.get(arg, arg) for arg in argv])
    assert code == 2 and out == "" and err.startswith("error: ") and "nested" in err


@pytest.mark.parametrize("shape, reason", [
    # one row: the column check alone would walk 10^8 columns
    ({"lambda": [10**8]}, "MAX_SHAPE_BOXES"),
    ({"lambda": [10**4] * 10**4}, "MAX_SHAPE_BOXES"),  # a 10^4 x 10^4 rectangle
    # two boxes in 10^8 columns: within the budget, but lam_1 exceeds the box count
    ({"lambda": [10**8, 1], "mu": [10**8 - 1]}, "empty column"),
])
def test_shapes_over_the_box_budget_exit_2(shape_file, capsys, shape, reason):
    """A shape of more than ``MAX_SHAPE_BOXES`` boxes, or of more columns
    than boxes, is refused before any pass over its columns: exit 2 and an
    error line, at once."""
    path = shape_file("big.json", shape)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--shape", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error: ") and reason in err
    assert "Traceback" not in err


def test_console_entry_point(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"lambda": [2, 1]}))
    proc = subprocess.run([sys.executable, "-m", "skewtab", "classify",
                           "--shape", str(path), "--property", "cm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True
