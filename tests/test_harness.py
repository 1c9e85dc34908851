import random
import time

import pytest

from skewtab import (SkewShape, SkewTableau, UnmixedCertificate, classify, classify_shape,
                     classify_tableau, crosscheck, enumerate_fillings, enumerate_skew_shapes,
                     harness)
from skewtab.classify import FLAG_NAMES
from skewtab.graphs import clear_caches, from_shape
from skewtab.ideals import is_unmixed_ideal

from helpers import (boxes_of, constant_filling, enumerate_skew_shapes_reference,
                     random_connected_filling, shape_from_boxes, shape_images, shapes_up_to)

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
    return [t for s in enumerate_skew_shapes(4, connected_only=True)
            for t in enumerate_fillings(s, 2)]


def shape_of(x) -> tuple:
    s = x.shape if isinstance(x, SkewTableau) else x
    return s.lam, s.mu


def shape_orbit_count(shapes) -> int:
    """Orbits of (lam, mu) pairs under the symmetries."""
    return len({min(shape_of(t) for t in shape_images(SkewShape(*s))) for s in shapes})


@pytest.fixture
def pools(monkeypatch):
    """Run the worker pool in-process.  Lists each pool's size and, per
    worker, its share and the set of shapes it classified."""
    made = []

    class FakePool:
        def __init__(self, size):
            self.size = size

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            workers, out = [], []
            made.append((self.size, workers))
            for a in args:
                seen: set = set()
                workers.append((a[-2], seen))
                verdict = harness.classifier_verdict
                with monkeypatch.context() as m:
                    m.setattr(harness, "classifier_verdict",
                              lambda x, prop: seen.add(shape_of(x)) or verdict(x, prop))
                    out.append(fn(a))
            return out

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
    all_counts = {1: 1, 2: 4, 3: 13, 4: 41, 5: 128, 6: 400, 7: 1250, 8: 3909, 9: 12227,
                  10: 38252}
    conn_counts = {1: 1, 2: 3, 3: 7, 4: 16, 5: 36, 6: 82, 7: 187, 8: 429, 9: 986, 10: 2271}
    for n, want in all_counts.items():
        assert sum(1 for _ in enumerate_skew_shapes(n)) == want
    for n, want in conn_counts.items():
        assert sum(1 for _ in enumerate_skew_shapes(n, connected_only=True)) == want


def test_enumerate_matches_reference():
    """The pruned enumerator yields the plain one's shapes in the same order."""
    for n in range(1, 10):
        for connected_only in (False, True):
            assert [(s.lam, s.mu) for s in enumerate_skew_shapes(n, connected_only)] == [
                (s.lam, s.mu) for s in enumerate_skew_shapes_reference(n, connected_only)], (
                n, connected_only)


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
        assert 1 <= len(s.boxes()) <= 7
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


def test_enumerated_fillings_equal_validated_ones():
    """Enumerated fillings are built unchecked from a valid shape, and equal
    the validating constructor's: on every connected shape with <= 5 boxes
    and every max weight 1..3, max_weight ** boxes distinct fillings, each
    equal in value and in hash to ``SkewTableau(s, rows)``, with rows that
    are tuples of tuples, as the SCM memo keys on them."""
    for s in shapes_up_to(5, connected_only=True):
        for max_weight in (1, 2, 3):
            fills = list(enumerate_fillings(s, max_weight))
            assert len(set(fills)) == len(fills) == max_weight ** len(boxes_of(s))
            for t in fills:
                built = SkewTableau(s, t.rows)
                assert t == built and hash(t) == hash(built), t.rows
                assert type(t.rows) is tuple and all(type(r) is tuple for r in t.rows)


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
    assert report.instances == sum(2 ** len(s.boxes())
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


@pytest.mark.parametrize("verdict", [harness.classifier_verdict, harness.oracle_verdict])
@pytest.mark.parametrize("flag", ["regular", "CM", "graph", ""])
def test_verdicts_reject_unknown_flag(verdict, flag):
    """A flag outside FLAG_NAMES is an error on a shape and on a filling; it
    never falls through to another flag's rule."""
    for x in (SkewShape((2, 1)), SkewTableau(SkewShape((2, 1)), [[1, 2], [2]])):
        with pytest.raises(ValueError):
            verdict(x, flag)


def test_classifier_verdict_matches_all_flags(cold_classifier):
    """Each flag's classifier verdict, through the unmixed/scm tests or the
    full flag set, equals that flag of classify_shape/classify_tableau on
    the 400 shapes with <= 6 boxes and the fillings with <= 3 boxes,
    weights 1..2.  The memos are emptied before each verdict, so neither
    side reads the other's."""
    shapes = list(enumerate_skew_shapes(6))
    fillings = [t for s in enumerate_skew_shapes(3) for t in enumerate_fillings(s, 2)]
    assert (len(shapes), len(fillings)) == (400, 86)
    for x in shapes + fillings:
        for flag in FLAG_NAMES:
            classify.clear_caches()
            got = harness.classifier_verdict(x, flag)
            classify.clear_caches()
            flags = classify_tableau(x) if isinstance(x, SkewTableau) else classify_shape(x)
            assert got == getattr(flags, flag), (x, flag)


def test_disconnected_fillings_match_the_oracle(cold_classifier):
    """The weighted cross-check enumerates connected shapes only, so here
    every flag of the 348 fillings of disconnected shapes with <= 4 boxes,
    weights 1..2, is checked against the oracle."""
    fillings = [t for s in enumerate_skew_shapes(4) if not s.is_connected()
                for t in enumerate_fillings(s, 2)]
    assert len(fillings) == 348
    for t in fillings:
        for flag in FLAG_NAMES:
            assert harness.classifier_verdict(t, flag) == harness.oracle_verdict(t, flag), \
                (t, flag)


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
        for flag in FLAG_NAMES:
            assert len({harness.oracle_verdict(t, flag) for t in orbit}) == 1, (x, flag)


def test_orbit_is_the_same_from_each_image():
    """The four images of a shape, or of a filling, give one orbit: the
    (lam, mu, rows) of exactly those images, rows None for a bare shape.
    ``harness._orbit`` reads the keys off one shape; the reference builds
    the image shapes by ``conjugate()`` and ``rotate180()``, on every shape
    with <= 9 boxes (one-row, one-column and Ferrers shapes among them) and
    a few larger ones, and those images are the boxes moved one by one on
    the shapes with <= 6 boxes.  A filling's images are rebuilt from its
    moved weighted boxes."""
    shapes = list(enumerate_skew_shapes(9))
    assert len(shapes) == 12227
    assert {SkewShape((9,)), SkewShape((1,) * 9), SkewShape((4, 3, 2)), SkewShape((3, 3))} \
        <= set(shapes)
    shapes += [SkewShape((30,)), SkewShape((1,) * 30), SkewShape((6, 5, 5, 3, 1)),
               SkewShape((7, 7, 4, 2), (5, 3, 1))]
    for s in shapes:
        orbit = {(t.lam, t.mu, None) for t in shape_images(s)}
        if len(boxes_of(s)) <= 6:
            assert orbit == {(*shape_of(t), None) for t in images(constant_filling(s))}, s
        for t in shape_images(s):
            assert harness._orbit(t) == orbit, t
    for x in small_fillings():
        orbit = {(t.shape.lam, t.shape.mu, t.rows) for t in images(x)}
        for t in images(x):
            assert harness._orbit(t.shape, t.rows) == orbit


@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_runs_once_per_orbit(monkeypatch, pools, jobs):
    """One oracle call per orbit, also when the shapes are dealt to two
    workers: each worker's memo sees whole orbits."""
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    shapes = list(enumerate_skew_shapes(6))
    calls = []
    oracle = harness.is_scm_weighted_oracle
    monkeypatch.setattr(harness, "is_scm_weighted_oracle", lambda g: calls.append(g) or oracle(g))
    for kwargs, instances in (
            ({"max_boxes": 6}, [constant_filling(s) for s in shapes]),
            ({"max_boxes": 4, "weighted": True}, small_fillings())):
        calls.clear()
        report = crosscheck("scm", jobs=jobs, **kwargs)
        assert report.ok and report.instances == len(instances)
        assert len(calls) == orbit_count(instances) < len(instances)
    assert len(pools) == (2 if jobs == 2 else 0)
    for size, workers in pools:
        assert size == 2 and [share for share, _ in workers] == [0, 1]
        counts = [shape_orbit_count(seen) for _, seen in workers]
        assert min(counts) > 0 and max(counts) - min(counts) <= 1
        # each orbit is checked whole, by one worker
        assert shape_orbit_count(workers[0][1] | workers[1][1]) == sum(counts)


@pytest.mark.parametrize("jobs", [1, 2])
def test_crosscheck_streams_the_enumeration(monkeypatch, pools, jobs):
    """Each enumeration of the shapes has its first instance classified
    before it is exhausted: no list of the shapes is built first."""
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    events = []
    enumerate_shapes, verdict = harness.enumerate_skew_shapes, harness.classifier_verdict

    def counting(*args, **kwargs):
        events.append("start")
        for s in enumerate_shapes(*args, **kwargs):
            events.append("shape")
            yield s
        events.append("end")

    monkeypatch.setattr(harness, "enumerate_skew_shapes", counting)
    monkeypatch.setattr(harness, "classifier_verdict",
                        lambda x, prop: events.append("classify") or verdict(x, prop))
    for kwargs in ({"max_boxes": 5}, {"max_boxes": 3, "weighted": True}):
        events.clear()
        assert crosscheck("scm", jobs=jobs, **kwargs).ok
        runs = " ".join(events).split("start")[1:]
        assert len(runs) == jobs
        for run in map(str.split, runs):
            assert run.index("classify") < run.index("end")


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


@pytest.mark.parametrize("weighted, instances, decompositions",
                         [(False, 400, 82), (True, 3770, 300)], ids=["shapes", "fillings"])
def test_crosscheck_decomposes_each_connected_shape_once(monkeypatch, cold_classifier,
                                                         weighted, instances, decompositions):
    """The 400 shapes with <= 6 boxes have the 82 connected ones among them
    as components, 643 in all, and the unmixed memo decomposes each of the
    82 once.  The memo is keyed on the shape alone, so the 3,770 fillings of
    the 82 with w <= 2 leave one entry per shape.  A filling of one of the 8
    unmixed shapes needs the pieces to check its weights, so each of their
    226 fillings but the first decomposes again: 82 + 226 - 8 = 300."""
    calls = []
    real = classify.unmixed_decomposition
    monkeypatch.setattr(classify, "unmixed_decomposition", lambda s: calls.append(s) or real(s))
    report = crosscheck("unmixed", 6, weighted=weighted)
    assert report.ok and report.instances == instances
    assert len(calls) == decompositions
    connected = {(s.lam, s.mu) for s in enumerate_skew_shapes(6, connected_only=True)}
    assert {(s.lam, s.mu) for s in calls} == connected
    assert set(classify._unmixed_cache) == connected


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
            if wrong in [c.shape for c in s.components()] and is_unmixed_ideal(from_shape(s))]
    assert len(want) > 1
    assert [d["instance"] for d in report.disagreements] == sorted(want, key=str)
    assert all(not d["classifier"] and d["oracle"] for d in report.disagreements)


def test_oracle_decides_large_connected_shapes():
    """The brute-force oracles reach shapes of 40-150 boxes, far past the
    exhaustive bound, because they decide a graph one component at a time:
    the searches on G - v and G - N[v] meet the same small components
    again and again.  On 30 seeded random connected shapes, a 40-row width-2
    ribbon and a 40-row staircase, from cold oracle memos, each call ends
    within a fixed bound and agrees with the classifier."""
    rng = random.Random(1980)
    shapes = [random_connected_filling(rng, rng.randint(40, 150), 1, rng.randint(3, 8)).shape
              for _ in range(30)]
    shapes.append(SkewShape(tuple(range(41, 1, -1)), tuple(range(39, -1, -1))))  # ribbon
    shapes.append(SkewShape(tuple(range(40, 0, -1))))  # staircase
    clear_caches()
    for s in shapes:
        start = time.perf_counter()
        got = harness.oracle_verdicts(s, ("unmixed", "scm"))
        assert time.perf_counter() - start < 2.0, s
        flags = classify_shape(s)
        assert got == {"unmixed": flags.unmixed, "scm": flags.scm}, s
    assert sum(classify_shape(s).scm for s in shapes) == 4
