import json

import pytest

from skewtab import (SkewShape, SkewTableau, classify, classify_shape, classify_tableau,
                     explain_scm, from_shape, is_saturated, is_scm_ferrers, is_scm_skew,
                     is_unmixed_graph, is_unmixed_skew, is_unmixed_tableau,
                     is_vertex_decomposable, tableau, unmixed_decomposition,
                     validate_certificate)
from skewtab.classify import clear_caches, scm_pivots
from skewtab.shapes import Partition

from helpers import all_fillings, boxes_of, partitions_up_to, shapes_up_to


def test_is_saturated_examples():
    assert is_saturated((3, 3, 2, 1))
    assert not is_saturated((4, 3, 3, 1))
    assert is_saturated((5, 4, 2, 1))  # strictly decreasing
    assert is_saturated(Partition((2, 1)))
    assert not is_saturated((2, 2))


def test_is_saturated_conjugation_invariant():
    for p in partitions_up_to(12):
        q = Partition(p).conjugate().parts
        assert is_saturated(p) == is_saturated(q), p


def test_is_scm_ferrers():
    assert is_scm_ferrers((3, 3, 2, 1))
    assert not is_scm_ferrers((4, 3, 3, 1))
    assert not is_scm_ferrers((2, 2))


def test_is_scm_ferrers_matches_recursion():
    for p in partitions_up_to(11):
        assert is_scm_ferrers(p) == is_scm_skew(SkewShape(p)), p


def test_is_scm_skew_paper_examples():
    assert not is_scm_skew(SkewShape((5, 4, 4), (2, 0, 0)))
    assert is_scm_skew(SkewShape((5, 5, 4), (2, 1, 0)))
    assert is_scm_skew(SkewShape((1,)))


def test_is_scm_skew_vacuous_and_disconnected():
    assert is_scm_skew(SkewShape((), ()))
    # disconnected: both components must be scm
    assert is_scm_skew(SkewShape((2, 1), (1, 0)))
    assert not is_scm_skew(SkewShape((4, 4, 2, 2), (2, 2, 0, 0)))  # two 2x2 squares


def test_interior_pendant_shape():
    # no boundary pivot applies, yet a pendant row at column 2 shreds the graph
    s = SkewShape((3, 3, 2, 2, 2), (1, 1, 1, 0, 0))
    pivots = {p["pivot"] for p in scm_pivots(s)}
    assert pivots == {("col", 2)}
    assert all(p["boundary_case"] is None for p in scm_pivots(s))
    assert is_scm_skew(s)
    assert is_vertex_decomposable(from_shape(s))


def test_scm_conjugation_invariance():
    for s in shapes_up_to(8, connected_only=True):
        assert is_scm_skew(s) == is_scm_skew(s.conjugate()), s


def test_scm_matches_vertex_decomposability():
    for s in shapes_up_to(7):
        assert is_scm_skew(s) == is_vertex_decomposable(from_shape(s)), s


EXPLAIN_554 = {
    "shape": {"lambda": [5, 5, 4], "mu": [2, 1, 0]}, "scm": True,
    "pivots": [["row", 3]], "pivot": ["row", 3], "case": 4,
    "deletions": [
        [{"shape": {"lambda": [4, 4], "mu": [1, 0]}, "scm": True,
          "pivots": [["row", 2]], "pivot": ["row", 2], "case": 4,
          "deletions": [
              [{"shape": {"lambda": [3], "mu": [0]}, "scm": True,
                "pivots": [["row", 1]], "pivot": ["row", 1], "case": 1,
                "deletions": [[], []]}],
              []]}],
        [{"shape": {"lambda": [1, 1], "mu": [0, 0]}, "scm": True,
          "pivots": [["col", 1]], "pivot": ["col", 1], "case": 2,
          "deletions": [[], []]}]]}


def test_explain_scm_trace():
    trace = explain_scm(SkewShape((5, 5, 4), (2, 1, 0)))
    assert trace["scm"] is True
    assert trace["pivot"] == ["row", 3]
    assert trace["case"] == 4
    assert len(trace["deletions"]) == 2
    # the whole tree, key order included, as the CLI prints it
    assert trace == EXPLAIN_554
    assert json.dumps(trace) == json.dumps(EXPLAIN_554)
    bad = explain_scm(SkewShape((2, 2)))
    assert bad["scm"] is False and bad["pivots"] == []


def test_unmixed_decomposition_paper_example():
    s = SkewShape((6, 6, 6, 6, 2, 2), (5, 4, 1, 1, 1, 0))
    cert = unmixed_decomposition(s)
    assert cert.ok
    assert len(cert.pieces) == 3
    assert [p.orientation for p in cert.pieces] == ["lower", "upper", "lower"]
    assert cert.pieces[0].exit_block == frozenset({(3, 3), (3, 4), (4, 3), (4, 4)})
    assert cert.pieces[1].entry_block == cert.pieces[0].exit_block
    assert cert.pieces[1].exit_block == frozenset({(5, 2)})
    assert cert.pieces[2].entry_block == frozenset({(5, 2)})
    ok, msg = validate_certificate(s, cert)
    assert ok, msg


def test_unmixed_decomposition_single_piece():
    cert = unmixed_decomposition(SkewShape((3, 3, 1)))
    assert cert.ok and len(cert.pieces) == 1
    assert cert.pieces[0].orientation == "upper"


def test_unmixed_decomposition_failures():
    cert = unmixed_decomposition(SkewShape((3, 2)))
    assert not cert.ok
    assert cert.reason == "shape has a different number of rows and columns"
    assert cert.witness == {"rows": 2, "cols": 3}

    cert = unmixed_decomposition(SkewShape((3, 3, 2)))
    assert not cert.ok
    assert cert.reason == "nonsquare corner block"
    assert cert.witness == {"block": [(1, 3), (2, 3)]}

    assert unmixed_decomposition(SkewShape((2,))).reason \
        == "shape has a different number of rows and columns"


def test_unmixed_decomposition_requires_connected():
    with pytest.raises(ValueError):
        unmixed_decomposition(SkewShape((2, 1), (1, 0)))


def test_is_unmixed_skew_examples():
    assert is_unmixed_skew(SkewShape((6, 6, 6, 6, 2, 2), (5, 4, 1, 1, 1, 0)))
    assert is_unmixed_skew(SkewShape((3, 3, 1)))
    assert not is_unmixed_skew(SkewShape((3, 2)))
    assert not is_unmixed_skew(SkewShape((2,)))
    assert is_unmixed_skew(SkewShape((), ()))


def test_unmixed_matches_cover_oracle():
    for s in shapes_up_to(8):
        assert is_unmixed_skew(s) == is_unmixed_graph(from_shape(s)), s


def test_unmixed_conjugation_invariance():
    for s in shapes_up_to(8, connected_only=True):
        assert is_unmixed_skew(s) == is_unmixed_skew(s.conjugate()), s


def test_certificates_validate_on_small_shapes():
    for s in shapes_up_to(8, connected_only=True):
        cert = unmixed_decomposition(s)
        if cert.ok:
            ok, msg = validate_certificate(s, cert)
            assert ok, (s, msg)
            total = sum(len(p.boxes) for p in cert.pieces)
            shared = sum(len(p.exit_block) for p in cert.pieces[:-1])
            assert total - shared == len(boxes_of(s))


def test_certificate_serialization():
    cert = unmixed_decomposition(SkewShape((2, 2), (1, 0)))
    d = cert.to_dict()
    assert d["unmixed"] is True
    assert d["pieces"][0]["orientation"] == "lower"
    bad = unmixed_decomposition(SkewShape((3, 2))).to_dict()
    assert bad["unmixed"] is False and "reason" in bad


def test_classify_shape_examples():
    assert classify_shape(SkewShape((2, 1))).to_dict() == {
        "unmixed": True, "scm": True, "cm": True, "buchsbaum": True, "gcm": True}
    flags = classify_shape(SkewShape((2, 2)))
    assert (flags.unmixed, flags.scm, flags.cm, flags.buchsbaum, flags.gcm) \
        == (True, False, False, True, True)
    flags = classify_shape(SkewShape((3, 2)))
    assert (flags.unmixed, flags.scm, flags.cm, flags.buchsbaum, flags.gcm) \
        == (False, True, False, False, False)


def test_classify_shape_vacuous_and_disconnected():
    """A disconnected shape is Buchsbaum, or gCM, only when it is CM.

    Its ring is R_1 (x) R_2 over the field, one factor per component (or
    group of components).  By the Kunneth formula for local cohomology
    (Goto-Watanabe 1978), H^t(R_1) (x) H^{d_2}(R_2) is a summand of
    H^{t + d_2}(R_1 (x) R_2).  When R_1 is not CM, H^t(R_1) != 0 for some
    t < d_1; every component has dimension d_2 >= 1, so H^{d_2}(R_2) has
    infinite length and so has that summand, below the dimension
    d_1 + d_2.  So the ring is not gCM, hence not Buchsbaum.  Two disjoint
    2 x 2 squares are Buchsbaum each but not CM, so their union is
    neither; so is a 2 x 2 square beside a single box.
    """
    assert classify_shape(SkewShape((), ())).vacuous
    flags = classify_shape(SkewShape((2, 1), (1, 0)))
    assert flags.cm  # two single boxes
    for lam, mu in (((4, 4, 2, 2), (2, 2, 0, 0)), ((3, 3, 1), (1, 1, 0))):
        flags = classify_shape(SkewShape(lam, mu))
        assert flags.unmixed and not flags.scm and not flags.cm
        assert (flags.buchsbaum, flags.gcm) == (False, False)


def test_cm_flag_matches_oracles():
    for s in shapes_up_to(7, connected_only=True):
        flags = classify_shape(s)
        g = from_shape(s)
        assert flags.cm == (is_unmixed_graph(g) and is_vertex_decomposable(g)), s


@pytest.mark.parametrize("lam, mu, flags", [
    (tuple(range(150, 0, -1)), (0,) * 150, (True, True, True, True, True)),  # staircase
    (tuple(152 - i for i in range(150)), tuple(149 - i for i in range(150)),  # width-3 ribbon
     (False, True, False, False, False)),
])
def test_deep_shapes_classify_under_default_recursion_limit(lam, mu, flags):
    """150 rows need about 150 recursion levels; at three interpreter frames
    per level they fit under the default limit of 1000 (247-248 rows do)."""
    f = classify_shape(SkewShape(lam, mu))
    assert (f.unmixed, f.scm, f.cm, f.buchsbaum, f.gcm) == flags


def test_classifiers_build_no_validated_shapes(monkeypatch):
    """Shapes derived inside the package are trusted: classifying a valid
    connected shape validates no further shape, on every connected shape
    with <= 9 boxes and on the 150-row staircase."""
    shapes = list(shapes_up_to(9, connected_only=True))
    shapes.append(SkewShape(tuple(range(150, 0, -1))))
    calls = []
    validate = SkewShape._validate
    monkeypatch.setattr(SkewShape, "_validate",
                        lambda self: calls.append((self.lam, self.mu)) or validate(self))
    for s in shapes:
        clear_caches()
        classify_shape(s)
        is_scm_skew(s)
        explain_scm(s)
    assert calls == []


def test_unmixed_memo_is_faithful():
    """One unmixed memo for a whole pass, walked forward or backward, gives
    every instance the verdicts it gets from a cold memo: the 3,909 shapes
    with <= 8 boxes, disconnected ones included, and the 186 fillings with
    <= 4 boxes, w <= 2.  The memo holds two booleans per key, never a
    certificate, and both modules' ``clear_caches`` empty it."""
    instances = list(shapes_up_to(8))
    instances += [t for s in shapes_up_to(4, connected_only=True) for t in all_fillings(s, 2)]
    assert len(instances) == 3909 + 186

    def verdicts(x):
        if isinstance(x, SkewTableau):
            return is_unmixed_tableau(x), classify_tableau(x).to_dict()
        return is_unmixed_skew(x), classify_shape(x).to_dict()

    cold = []
    for x in instances:
        clear_caches()
        cold.append(verdicts(x))
    memo = classify._unmixed_cache
    for order in (1, -1):
        clear_caches()
        warm = [verdicts(x) for x in instances[::order]]
        assert warm[::order] == cold
        assert memo and all(type(v) is tuple and len(v) == 2 and all(type(b) is bool for b in v)
                            for v in memo.values())
        (classify if order == 1 else tableau).clear_caches()
        assert not memo
