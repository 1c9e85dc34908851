import pytest

from skewtab import (SkewShape, SkewTableau, UnmixedCertificate, classify, crosscheck,
                     enumerate_fillings, enumerate_skew_shapes, harness)
from skewtab.classify import FLAG_NAMES
from skewtab.graphs import clear_caches, from_shape, is_unmixed_graph

from helpers import all_fillings, boxes_of, constant_filling, shape_from_boxes

# The transpose, the half turn and the transpose of the half turn of an
# n x m diagram, box by box.
SYMMETRIES = (
    lambda i, j, n, m: (j, i),
    lambda i, j, n, m: (n + 1 - i, m + 1 - j),
    lambda i, j, n, m: (m + 1 - j, n + 1 - i),
)


def images(t: SkewTableau) -> list[SkewTableau]:
    """``t`` and its three images, rebuilt from moved weighted boxes."""
    n, m = t.shape.n, t.shape.m
    out = [t]
    for move in SYMMETRIES:
        w = {move(i, j, n, m): v for (i, j), v in t.weights().items()}
        out.append(SkewTableau.from_weights(shape_from_boxes(set(w)), w))
    return out


def orbit_count(instances) -> int:
    """Orbits under the symmetries, told apart by their least weighted box set."""
    return len({min(tuple(sorted(u.weights().items())) for u in images(t)) for t in instances})


def small_fillings():
    """The 186 fillings of connected shapes with <= 4 boxes, weights 1..2."""
    return [t for s in enumerate_skew_shapes(4, connected_only=True) for t in all_fillings(s, 2)]


@pytest.fixture
def pools(monkeypatch):
    """Run the worker pool in-process; lists each pool's size and chunks."""
    made = []

    class FakePool:
        def __init__(self, size):
            self.size = size

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            made.append((self.size, [a[-1] for a in args]))
            return [fn(a) for a in args]

    monkeypatch.setattr(harness, "Pool", FakePool)
    return made


@pytest.fixture
def cold_classifier():
    """Empty classifier memos before the test and after it, so that verdicts
    from a patched classifier do not outlive it."""
    classify.clear_caches()
    yield
    classify.clear_caches()


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
    for kwargs in ({"max_boxes": 6}, {"max_boxes": 4, "weighted": True, "max_weight": 2}):
        serial = crosscheck("unmixed", **kwargs).to_dict()
        parallel = crosscheck("unmixed", jobs=2, **kwargs).to_dict()
        del serial["seconds"], parallel["seconds"]
        assert serial == parallel


def test_crosscheck_caps_jobs_at_cpu_count(monkeypatch, pools):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    report = crosscheck("unmixed", max_boxes=2, jobs=10**6)
    assert [size for size, _ in pools] == [3]
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


def test_oracle_flags_agree_on_the_four_images():
    """Every oracle flag is the same on an instance, its transpose, its half
    turn and the transpose of its half turn, so the cross-check may compute
    the oracle once per orbit.  Checked without that shortcut on the 3,909
    shapes with <= 8 boxes (disconnected ones included) and the 186 fillings
    with <= 4 boxes and weights 1..2.  The graph oracle's memo is emptied
    before each instance, so a verdict reused across its images could only
    come from an identical labelled graph.

    Proof: the ideal of a filling is the edge ideal of the weighted
    bipartite graph with an edge x_i y_j of weight w(i,j) for each box
    (i,j).  The transpose (i,j) -> (j,i) carries the box and its weight to
    the edge x_j y_i, so its ideal is the original with x and y swapped.
    The half turn (i,j) -> (n+1-i, m+1-j) carries it to x_{n+1-i} y_{m+1-j},
    so its ideal is the original with both index sets reversed.  A renaming
    of variables is a graded isomorphism of polynomial rings that maps the
    one ideal onto the other and the maximal ideal onto itself.  Unmixed,
    SCM, CM, Buchsbaum and gCM are all defined through the associated
    primes, the filtration by dimension and the local cohomology of S/I at
    the maximal ideal, and each is preserved by such an isomorphism.  The
    transpose of the half turn is the composite of the two.
    """
    shapes = list(enumerate_skew_shapes(8))
    fillings = small_fillings()
    assert (len(shapes), len(fillings)) == (3909, 186)
    for x in shapes + fillings:
        clear_caches()
        orbit = images(x) if isinstance(x, SkewTableau) else \
            [t.shape for t in images(constant_filling(x))]
        verdicts = [harness.Verdicts(t, "oracle") for t in orbit]
        for flag in FLAG_NAMES:
            assert len({v[flag] for v in verdicts}) == 1, (x, flag)


def test_orbit_is_the_same_from_each_image():
    """The four images of a shape, or of a filling, give one orbit: the
    (lam, mu, rows) of exactly those images, rows None for a bare shape."""
    cases = [(constant_filling(s), False) for s in enumerate_skew_shapes(6)]
    cases += [(t, True) for t in small_fillings()]
    for x, weighted in cases:
        def rows(t):
            return t.rows if weighted else None
        orbit = {(t.shape.lam, t.shape.mu, rows(t)) for t in images(x)}
        for t in images(x):
            assert harness._orbit(harness._shape_images(t.shape), rows(t)) == orbit


@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_runs_once_per_orbit(monkeypatch, pools, jobs):
    """One oracle call per orbit, also when the shapes are dealt to two
    workers: each worker's memo sees whole orbits."""
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    shapes = list(enumerate_skew_shapes(6))
    for name, kwargs, instances in (
            ("is_vertex_decomposable", {"max_boxes": 6}, [constant_filling(s) for s in shapes]),
            ("is_scm_weighted_oracle", {"max_boxes": 4, "weighted": True}, small_fillings())):
        calls = []
        oracle = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda g, oracle=oracle: calls.append(g) or oracle(g))
        report = crosscheck("scm", jobs=jobs, **kwargs)
        assert report.ok and report.instances == len(instances)
        assert len(calls) == orbit_count(instances) < len(instances)
    assert all(size == 2 and len(chunks) == 2 and all(chunks) for size, chunks in pools)
    assert len(pools) == (2 if jobs == 2 else 0)


@pytest.mark.parametrize("image", range(4))
def test_classifier_checked_on_every_orbit_member(monkeypatch, image):
    """A classifier wrong on one image of an instance is reported on exactly
    that instance, though the oracle ran on another member of its orbit."""
    shape = images(constant_filling(SkewShape((3, 1))))[image].shape
    filling = images(SkewTableau(SkewShape((2, 1)), [[1, 2], [2]]))[image]
    for name, wrong, kwargs in (("is_scm_skew", shape, {"max_boxes": 4}),
                                ("is_scm_tableau", filling,
                                 {"max_boxes": 3, "weighted": True})):
        rule = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda x, rule=rule, wrong=wrong:
                            rule(x) != (x == wrong))
        report = crosscheck("scm", **kwargs)
        assert [d["instance"] for d in report.disagreements] == [wrong.to_dict()]
        assert report.agreements == report.instances - 1


def test_crosscheck_decomposes_each_connected_shape_once(monkeypatch, cold_classifier):
    """The 400 shapes with <= 6 boxes have the 82 connected ones among them
    as components, 643 in all, and the unmixed memo decomposes each of the
    82 once."""
    calls = []
    real = classify.unmixed_decomposition
    monkeypatch.setattr(classify, "unmixed_decomposition", lambda s: calls.append(s) or real(s))
    report = crosscheck("unmixed", 6)
    assert report.ok and report.instances == 400
    assert len(calls) == 82
    assert {(s.lam, s.mu) for s in calls} == \
        {(s.lam, s.mu) for s in enumerate_skew_shapes(6, connected_only=True)}


def test_wrong_component_verdict_reported_wherever_it_applies(monkeypatch, cold_classifier):
    """A decomposition made wrong on one unmixed connected shape is reported
    on that shape and on every unmixed disconnected shape that has it as a
    component, and on no other shape: not on the shapes built from its half
    turn, and not on its own half turn.  (A shape with a mixed component is
    mixed either way.)"""
    wrong = SkewShape((2, 1))
    assert classify.unmixed_decomposition(wrong).ok and wrong.rotate180() != wrong
    real = classify.unmixed_decomposition
    monkeypatch.setattr(classify, "unmixed_decomposition", lambda s: (
        UnmixedCertificate(ok=False, reason="made wrong") if s == wrong else real(s)))
    report = crosscheck("unmixed", 6)
    want = [s.to_dict() for s in enumerate_skew_shapes(6)
            if wrong in [c.shape for c in s.components()] and is_unmixed_graph(from_shape(s))]
    assert len(want) > 1
    assert [d["instance"] for d in report.disagreements] == sorted(want, key=str)
    assert all(not d["classifier"] and d["oracle"] for d in report.disagreements)
