import pytest

from skewtab import (SkewShape, crosscheck, enumerate_fillings,
                     enumerate_skew_shapes, harness)

from helpers import boxes_of


def test_enumerate_counts_snapshot():
    # committed regression counts; see also the duplicate-freeness test
    all_counts = {1: 1, 2: 4, 3: 13, 4: 41, 5: 128, 6: 400}
    conn_counts = {1: 1, 2: 3, 3: 7, 4: 16, 5: 36, 6: 82}
    for n, want in all_counts.items():
        assert sum(1 for _ in enumerate_skew_shapes(n)) == want
    for n, want in conn_counts.items():
        assert sum(1 for _ in enumerate_skew_shapes(n, connected_only=True)) == want


def test_enumerate_small_listing():
    got = {(s.lam, s.mu) for s in enumerate_skew_shapes(2)}
    assert got == {((1,), (0,)), ((2,), (0,)), ((1, 1), (0, 0)), ((2, 1), (1, 0))}
    assert [(s.lam, s.mu) for s in enumerate_skew_shapes(1)] == [((1,), (0,))]


def test_enumerate_no_duplicates_and_valid():
    seen = set()
    for s in enumerate_skew_shapes(7):
        key = (s.lam, s.mu)
        assert key not in seen
        seen.add(key)
        assert 1 <= s.box_count <= 7
        # the enumerator builds trusted shapes, so re-validate each one
        assert SkewShape(s.lam, s.mu) == s
    for s in enumerate_skew_shapes(7):
        conj = s.conjugate()
        assert (conj.lam, conj.mu) in seen


def test_enumerate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        list(enumerate_skew_shapes(0))


def test_enumerate_fillings():
    one = SkewShape((1,))
    assert len(list(enumerate_fillings(one, 2))) == 2
    three = SkewShape((2, 1))
    fills = list(enumerate_fillings(three, 2))
    assert len(fills) == 8
    assert len({f.rows for f in fills}) == 8
    assert list(enumerate_fillings(SkewShape((), ()), 3)) == []
    with pytest.raises(ValueError):
        list(enumerate_fillings(one, 0))


@pytest.mark.parametrize("prop", ["scm", "unmixed", "cm", "buchsbaum", "gcm"])
def test_crosscheck_unweighted_small(prop):
    report = crosscheck(prop, max_boxes=6)
    assert report.ok
    assert report.instances == 400
    assert report.agreements == 400
    assert report.disagreements == []


def test_crosscheck_weighted_small():
    report = crosscheck("scm", max_boxes=4, weighted=True, max_weight=2)
    assert report.ok
    assert report.instances == sum(2 ** s.box_count
                                   for s in enumerate_skew_shapes(4, connected_only=True))


def test_crosscheck_parallel_matches_serial():
    serial = crosscheck("unmixed", max_boxes=6)
    parallel = crosscheck("unmixed", max_boxes=6, jobs=2)
    assert serial.instances == parallel.instances
    assert serial.agreements == parallel.agreements
    assert serial.disagreements == parallel.disagreements


def test_crosscheck_caps_jobs_at_cpu_count(monkeypatch):
    requested = []

    class FakePool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return [fn(a) for a in args]

    monkeypatch.setattr(harness, "Pool", FakePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    report = crosscheck("unmixed", max_boxes=2, jobs=10**6)
    assert requested == [3]
    assert report.to_dict()["instances"] == 4 and report.ok


def test_crosscheck_rejects_unknown_property():
    with pytest.raises(ValueError):
        crosscheck("regular", max_boxes=3)


def test_report_to_dict():
    report = crosscheck("unmixed", max_boxes=3)
    d = report.to_dict()
    assert d["instances"] == 13 and d["disagreements"] == []
    assert d["max_weight"] is None


def test_enumerated_shapes_cover_box_sets():
    # every enumerated shape has every column from 1..m inhabited
    for s in enumerate_skew_shapes(6):
        cols = {j for _, j in boxes_of(s)}
        assert cols == set(range(1, s.m + 1))
