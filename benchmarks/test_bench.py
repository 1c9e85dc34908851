"""Tests of the benchmark itself, on tiny bounds: the output contract, the
correctness gate and the failure accounting."""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Bounds of at most 4 boxes and 5 classify ops; output under tmp_path.
    The benchmark re-imports skewtab, so the original modules are put back."""
    monkeypatch.setitem(bench.XCHECK, "xcheck-shapes",
                        {"max_boxes": 4, "weighted": False, "instances": 41})
    monkeypatch.setitem(bench.XCHECK, "xcheck-fillings",
                        {"max_boxes": 3, "weighted": True, "instances": 42})
    monkeypatch.setattr(bench, "CLASSIFY_MIX",
                        (("deep", 1), ("family", 1), ("filling", 1), ("random", 2)))
    monkeypatch.setattr(bench, "DEEP_ROWS", (7, 8))
    monkeypatch.setattr(bench, "FAMILY_ROWS", (3, 6))
    monkeypatch.setattr(bench, "FILLING_STAIR_ROWS", (2, 3))
    monkeypatch.setattr(bench, "FILLING_BOXES", (3, 4))
    monkeypatch.setattr(bench, "RANDOM_BOXES", (3, 4))
    monkeypatch.setattr(bench, "ROW_WIDTH", (2, 3))
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    monkeypatch.setattr(bench, "SYMMETRY_EVERY", 1)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "skewtab"}
    yield
    for k in [k for k in sys.modules if k.split(".")[0] == "skewtab"]:
        del sys.modules[k]
    sys.modules.update(saved)


def bench_main(capsys, workload, trace=0, seconds=0):
    """Exit code, result object and stderr of one benchmark run."""
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                       "--trace", str(trace)])
    out, err = capsys.readouterr()
    return code, json.loads(out.strip().splitlines()[-1]), err


def spoil(monkeypatch, change):
    """Make every fresh import of skewtab pass through ``change``."""
    real = bench.import_skewtab

    def load():
        st = real()
        change(st)
        return st
    monkeypatch.setattr(bench, "import_skewtab", load)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_printed_with_its_unit(tiny, capsys, workload, trace):
    code, result, _ = bench_main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == list(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace and workload == "classify-large":
        assert result["metrics"]["cli.classify_s"]["value"] > 0
        assert (bench.OUT / "trace-classify-large-3.json").is_file()


def test_gate_fails_on_a_wrong_ferrers_verdict(tiny, capsys, monkeypatch):
    monkeypatch.setattr(bench, "SYMMETRY_EVERY", 100)  # leave only the Ferrers check

    def flip_scm(st):
        real = st.cli.classify_shape
        st.cli.classify_shape = lambda s: dataclasses.replace(real(s), scm=not real(s).scm)
    spoil(monkeypatch, flip_scm)
    code, result, err = bench_main(capsys, "classify-large")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "saturation" in err


def test_gate_fails_on_a_corrupt_certificate(tiny, capsys, monkeypatch):
    monkeypatch.setattr(bench, "SYMMETRY_EVERY", 100)

    def drop_a_piece(st):
        # The verdict reads only cert.ok, so it stays; the certificate loses a piece.
        real = st.classify.unmixed_decomposition
        st.classify.unmixed_decomposition = lambda s: dataclasses.replace(
            real(s), pieces=real(s).pieces[:-1])
    spoil(monkeypatch, drop_a_piece)
    code, result, err = bench_main(capsys, "classify-large")
    assert code == 1 and result["correct"] is False
    assert "certificate fails" in err


def test_gate_fails_on_a_crosscheck_disagreement(tiny, capsys, monkeypatch):
    def flip_scm(st):
        real = st.harness.is_scm_skew
        st.harness.is_scm_skew = lambda s: not real(s)
    spoil(monkeypatch, flip_scm)
    code, result, _ = bench_main(capsys, "xcheck-shapes")
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] // 2  # every scm op


@pytest.mark.parametrize("trace", [0, 1])
def test_gate_fails_when_a_crosscheck_raises(tiny, capsys, monkeypatch, trace):
    def break_unmixed(st):
        real = st.harness.crosscheck

        def crosscheck(prop, *args, **kwargs):
            if prop == "unmixed":
                raise RuntimeError("internal inconsistency")
            return real(prop, *args, **kwargs)
        st.harness.crosscheck = crosscheck
    spoil(monkeypatch, break_unmixed)
    code, result, err = bench_main(capsys, "xcheck-shapes", trace)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1
    assert "crosscheck raised RuntimeError" in err


def break_ops(monkeypatch, tier, failure):
    """Make every classify call on ``tier`` fail with ``failure``: an
    exception to raise or an exit code to return."""
    def change(st):
        real = st.cli.main

        def main(argv):
            if f"-{tier}." in argv[2]:
                if isinstance(failure, int):
                    return failure
                raise failure
            return real(argv)
        st.cli.main = main
    spoil(monkeypatch, change)


def test_deep_tier_recursion_errors_count_as_failed(tiny, capsys, monkeypatch):
    break_ops(monkeypatch, "deep", RecursionError("maximum recursion depth exceeded"))
    code, result, _ = bench_main(capsys, "classify-large", seconds=0.5)
    assert code == 0 and result["correct"] is True
    # each op counts once, whatever the number of passes
    assert result["failed"] == 1 and result["attempted"] == 5
    assert result["metrics"]["latency_p95_ms"]["value"] == math.inf


@pytest.mark.parametrize("tier, failure", [
    ("deep", RuntimeError("internal inconsistency")),
    ("deep", 2),
    ("family", RecursionError("maximum recursion depth exceeded")),
    ("random", 2),
])
def test_other_errors_and_exit_codes_fail_the_gate(tiny, capsys, monkeypatch, tier, failure):
    break_ops(monkeypatch, tier, failure)
    code, result, err = bench_main(capsys, "classify-large")
    assert code == 1 and result["correct"] is False and result["failed"] >= 1
    assert f"{tier} op" in err


def test_exits_nonzero_without_the_program(tiny, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "xcheck-shapes", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_kernel_runs_inside_a_call_are_taken_out():
    handler = signal.getsignal(signal.SIGALRM)

    def call():  # about 0.75 s, so the timer fires inside it
        start = bench.started()
        for _ in range(300):
            bench.kernel()
        return bench.elapsed(start)
    res = bench.calibrated([call])[0]
    assert 0 < res["raw_wall"] < res["t1"] - res["t0"]
    assert res["wall"] > 0 and res["cpu"] > 0
    assert signal.getsignal(signal.SIGALRM) is handler
