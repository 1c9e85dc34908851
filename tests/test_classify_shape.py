import dataclasses
import inspect
import json
import random
from collections import Counter

import pytest

from skewtab import (PrimeShapePiece, SkewShape, SkewTableau, UnmixedCertificate, WeightedGraph,
                     classify, classify_shape, classify_tableau, enumerate_fillings, from_shape,
                     is_saturated, is_scm_skew, is_unmixed_ideal, is_unmixed_skew,
                     is_scm_weighted_oracle, is_unmixed_tableau, scm_trace, tableau,
                     unmixed_decomposition, validate_certificate)
from skewtab.classify import (_constant_on_blocks, _piece_as_partition, clear_caches,
                              is_scm, scm_pivots)
from skewtab.graphs import _adjacency, _is_shedding, _vd
from skewtab.ideals import _threshold_u_sets
from skewtab.shapes import conjugate_parts

from helpers import (blocks_reference, boxes_of, delete_rows_cols_reference, deleted_reference,
                     partitions_up_to, piece_blocks_reference, pivot_groups,
                     random_connected_filling, scm_all_pivots_reference, scm_pivots_reference,
                     shapes_up_to)


def test_is_saturated_examples():
    assert is_saturated((3, 3, 2, 1))
    assert not is_saturated((4, 3, 3, 1))
    assert is_saturated((5, 4, 2, 1))  # strictly decreasing
    assert is_saturated([2, 1])  # any sequence of parts
    assert not is_saturated((2, 2))


def test_is_saturated_conjugation_invariant():
    for p in partitions_up_to(12):
        q = conjugate_parts(p)
        assert is_saturated(p) == is_saturated(q), p


def test_is_saturated_matches_recursion():
    """A Ferrers shape is sequentially Cohen-Macaulay iff saturated."""
    for p in partitions_up_to(11):
        assert is_saturated(p) == is_scm_skew(SkewShape(p)), p


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
    assert is_scm_weighted_oracle(from_shape(s))


def test_scm_pivots_match_list_reference():
    """``scm_pivots`` is a generator yielding the pivots of the list-building
    reference: the same pivots in the same order, with the same levels and
    deletion sets, on the 986 connected shapes with <= 9 boxes and the 5,718
    connected fillings with <= 5 boxes, w <= 3.  Many have several pivots,
    some of them interior, so the order is put to the test."""
    instances = [(s, None) for s in shapes_up_to(9, connected_only=True)]
    instances += [(s, t.rows) for s in shapes_up_to(5, connected_only=True)
                  for t in enumerate_fillings(s, 3)]
    assert len(instances) == 986 + 5718
    several = interior = 0
    for s, rows in instances:
        pivots = scm_pivots(s, rows)
        assert inspect.isgenerator(pivots)
        want = scm_pivots_reference(s, rows)
        assert list(pivots) == want, (s, rows)
        several += len(want) > 1
        interior += any(p["boundary_case"] is None for p in want)
    assert (several, interior) == (4752, 942)



def test_scm_search_on_large_instances_matches_reference(monkeypatch):
    """Past the exhaustive bounds: on staircases and width-2 and width-3
    ribbons of 40, 95 and 150 rows, and on seeded random connected shapes
    and fillings of 40 to 200 boxes, w <= 3, the search settles the same
    keys with the same verdicts when its deletions go through the set-based
    reference, and ``scm_pivots`` equals the list reference on every key
    settled (transposes included), so boundary pivots read off the end
    parts and sliced deletions are checked on every boundary case."""
    instances = [(f(n), None) for n in (40, 95, 150)
                 for f in (_staircase, lambda n: _ribbon(n, 2), lambda n: _ribbon(n, 3))]
    rng = random.Random(20261021)
    for boxes in (40, 70, 100, 150, 200):
        t = random_connected_filling(rng, boxes, 3, 8)
        instances += [(t.shape, None), (t.shape, t.rows)]
    memos = []
    for deleted in (classify._deleted, deleted_reference):
        monkeypatch.setattr(classify, "_deleted", deleted)
        memos.append([])
        for s, rows in instances:
            clear_caches()
            is_scm(s, rows)
            memos[-1].append(dict(classify._scm_cache))
    assert memos[0] == memos[1]
    cases = Counter()
    for memo in memos[0]:
        for lam, mu, rows in memo:
            c = SkewShape(lam, mu)
            pivots = scm_pivots_reference(c, rows)
            assert list(scm_pivots(c, rows)) == pivots, (c, rows)
            cases[pivots[0]["boundary_case"] if pivots else "none"] += 1
    assert cases == {1: 938, 2: 1256, 3: 22, 4: 36, None: 24, "none": 15}

def test_scm_conjugation_invariance():
    """The recursion decides a shape and its transpose alike.  The memo
    stores each verdict under the transpose's key too, so it is cleared
    before each call: otherwise the second call is a memo hit."""
    for s in shapes_up_to(8, connected_only=True):
        clear_caches()
        scm = is_scm_skew(s)
        clear_caches()
        assert scm == is_scm_skew(s.conjugate()), s


def test_scm_matches_vertex_decomposability():
    for s in shapes_up_to(7):
        assert is_scm_skew(s) == is_scm_weighted_oracle(from_shape(s)), s


def _staircase(n):
    return SkewShape(tuple(range(n, 0, -1)))


def _ribbon(n, width):
    """Rows of ``width`` boxes, each shifted one column left of the row above."""
    return SkewShape(tuple(n - i + width - 1 for i in range(n)),
                     tuple(n - 1 - i for i in range(n)))


def test_first_pivot_rule_matches_all_pivot_search():
    """A shape or filling decided by its first pivot gets the verdict of the
    search over every pivot: on the 38,252 shapes with <= 10 boxes, on
    staircases and width-2 and width-3 ribbons of 1 to 60 rows, on the
    23,682 fillings with <= 5 boxes, w <= 3, and on 200 seeded random
    connected fillings of 10 to 14 boxes, w <= 6: 100 of them SCM, 175 with
    two pivots or more, and up to five weight levels on a pivot line."""
    shapes = list(shapes_up_to(10))
    shapes += [f(n) for n in range(1, 61)
               for f in (_staircase, lambda n: _ribbon(n, 2), lambda n: _ribbon(n, 3))]
    instances = [(s, None) for s in shapes]
    instances += [(t.shape, t.rows) for s in shapes_up_to(5) for t in enumerate_fillings(s, 3)]
    rng = random.Random(20261019)
    fillings = [random_connected_filling(rng, rng.randint(10, 14), 6) for _ in range(200)]
    instances += [(t.shape, t.rows) for t in fillings]
    assert len(instances) == 38252 + 180 + 23682 + 200
    clear_caches()
    memo = {}
    for s, rows in instances:
        assert is_scm(s, rows) == scm_all_pivots_reference(s, rows, memo), (s, rows)
    assert sum(is_scm(t.shape, t.rows) for t in fillings) == 100


def test_pivots_of_vertex_decomposable_shapes_derive_vertex_decomposable_shapes():
    """Why the first pivot decides a bare shape, checked without the
    theorems: on the 1,815 connected shapes with <= 10 boxes whose graph is
    vertex decomposable, every shape in every group of every pivot is
    vertex decomposable too (10,924 derived shapes)."""
    shapes = [s for s in shapes_up_to(10, connected_only=True)
              if is_scm_weighted_oracle(from_shape(s))]
    derived = [SkewShape(lam, mu) for s in shapes for piv in scm_pivots(s)
               for group in pivot_groups(s, None, piv) for lam, mu, _ in group]
    assert (len(shapes), len(derived)) == (1815, 10924)
    for u in derived:
        assert is_scm_weighted_oracle(from_shape(u)), u


def test_pivots_of_scm_fillings_derive_scm_fillings():
    """The filling twin of the test above, on the weighted oracle: on the
    794 connected fillings with <= 5 boxes, w <= 2, that
    ``is_scm_weighted_oracle`` calls SCM, every filling in every group of
    every pivot is oracle-SCM too (3,016 derived fillings)."""
    fillings = [t for s in shapes_up_to(5, connected_only=True) for t in enumerate_fillings(s, 2)
                if is_scm_weighted_oracle(from_shape(t.shape, t.rows))]
    derived = [SkewTableau(SkewShape(lam, mu), rows) for t in fillings
               for piv in scm_pivots(t.shape, t.rows)
               for group in pivot_groups(t.shape, t.rows, piv) for lam, mu, rows in group]
    assert (len(fillings), len(derived)) == (794, 3016)
    for u in derived:
        assert is_scm_weighted_oracle(from_shape(u.shape, u.rows)), u.to_dict()


def test_children_threshold_sets_are_parent_threshold_sets():
    """The combinatorial step of the first-pivot proof (``classify.is_scm``),
    checked without the theorem: for every pivot of every connected filling
    with <= 5 boxes, w <= 3, each threshold set U' of a child graph, joined
    with the lines that child deletes (the pivot line x, or the neighbours
    Z of x of weight <= c at level c), is a threshold set of the parent
    graph.  The child graph is the parent's with the edges at the deleted
    lines removed, on the same vertices; its edges are the boxes of the
    pivot's derived group."""
    cases = 0
    for s in shapes_up_to(5, connected_only=True):
        for t in enumerate_fillings(s, 3):
            g = from_shape(s, t.rows)
            parent = set(_threshold_u_sets(g))
            for piv in scm_pivots(s, t.rows):
                for (dead_rows, dead_cols), group in zip(piv["deletions"],
                                                         pivot_groups(s, t.rows, piv)):
                    dead = sum(1 << (i - 1) for i in dead_rows)
                    dead |= sum(1 << (s.n + j - 1) for j in dead_cols)
                    child = WeightedGraph(g.nverts, tuple(
                        e for e in g.edges if not (dead >> e[0] | dead >> e[1]) & 1))
                    assert len(child.edges) == sum(sum(lam) - sum(mu) for lam, mu, _ in group)
                    for u_mask in _threshold_u_sets(child):
                        assert u_mask | dead in parent, (t.to_dict(), piv["pivot"], u_mask)
                        cases += 1
    assert cases == 139412


EXPLAIN_554 = {
    "scm": True, "components": [0],
    "nodes": [
        {"shape": {"lambda": [5, 5, 4], "mu": [2, 1, 0]}, "scm": True,
         "pivots": [["row", 3]], "pivot": ["row", 3], "case": 4, "deletions": [[1], [2]]},
        {"shape": {"lambda": [4, 4], "mu": [1, 0]}, "scm": True,
         "pivots": [["row", 2]], "pivot": ["row", 2], "case": 4, "deletions": [[3], []]},
        {"shape": {"lambda": [1, 1], "mu": [0, 0]}, "scm": True,
         "pivots": [["col", 1]], "pivot": ["col", 1], "case": 2, "deletions": [[], []]},
        {"shape": {"lambda": [3], "mu": [0]}, "scm": True,
         "pivots": [["row", 1]], "pivot": ["row", 1], "case": 1, "deletions": [[], []]}]}


def test_explain_scm_trace():
    trace = scm_trace(SkewShape((5, 5, 4), (2, 1, 0)), None)
    root = trace["nodes"][trace["components"][0]]
    assert trace["scm"] is True and root["scm"] is True
    assert root["pivot"] == ["row", 3]
    assert root["case"] == 4
    assert len(root["deletions"]) == 2
    # the whole DAG, key order included, as the CLI prints it: nodes are
    # numbered in the order first met, and the row-3 pivot deletes its line,
    # then its neighbours
    assert trace == EXPLAIN_554
    assert json.dumps(trace) == json.dumps(EXPLAIN_554)
    bad = scm_trace(SkewShape((2, 2)), None)
    assert bad == {"scm": False, "components": [0], "nodes": [
        {"shape": {"lambda": [2, 2], "mu": [0, 0]}, "scm": False, "pivots": []}]}
    # a False node names the first derived key that is not SCM: deleting
    # column 1 of (3, 3, 1) leaves the pendant-free 2 x 2 square
    assert scm_trace(SkewShape((3, 3, 1)), None)["nodes"] == [
        {"shape": {"lambda": [3, 3, 1], "mu": [0, 0, 0]}, "scm": False,
         "pivots": [["col", 1]], "pivot": ["col", 1], "case": 3, "failed": 1},
        bad["nodes"][0]]
    # two components with one key are one node; the empty shape has none
    assert scm_trace(SkewShape((2, 1), (1, 0)), None)["components"] == [0, 0]
    assert scm_trace(SkewShape(()), None) == {"scm": True, "components": [], "nodes": []}


def _node_key(node: dict) -> tuple:
    """A trace node's (lam, mu, rows), rows None for a bare shape."""
    data = node.get("shape") or node["tableau"]
    rows = data.get("rows")
    return (tuple(data["lambda"]), tuple(data["mu"]),
            None if rows is None else tuple(map(tuple, rows)))


@pytest.mark.parametrize("n, nodes", [(14, 27), (40, 79)])
def test_scm_trace_has_one_node_per_key(n, nodes):
    """The trace is the search's DAG: each component key the search settles
    is one node.  A width-2 ribbon of n rows settles 2n - 1 keys, the
    ribbons of k < n rows and one box less, so its trace grows linearly; the
    tree that re-expanded every shared sub-ribbon printed 7.3 MB at 14
    rows.  The printed 14-row trace is under 20 KB."""
    trace = scm_trace(SkewShape(tuple(range(n + 1, 1, -1)), tuple(range(n - 1, -1, -1))), None)
    keys = [_node_key(node) for node in trace["nodes"]]
    assert trace["scm"] is True and len(keys) == nodes == len(set(keys))
    if n == 14:
        assert len(json.dumps(trace, indent=2)) < 20_000


def test_scm_trace_true_nodes_replay_as_vertex_decompositions():
    """Every True node in the traces of the connected shapes with <= 8
    boxes replays on its bipartite graph G without the classifier: the
    pivot line v is a shedding vertex (Woodroofe 2009), and its two
    deletion groups are the components of G - v and G - N[v], as the set
    reference deletes them.  The dead sets come from the pivot's name
    alone: row i deletes {i}, then row i's columns, and a column likewise.
    So G is vertex decomposable when the nodes it points to are, and a
    bipartite graph is SCM iff vertex decomposable (Van Tuyl 2009)."""
    true_nodes = 0
    for s in shapes_up_to(8, connected_only=True):
        nodes = scm_trace(s, None)["nodes"]
        keys = [_node_key(node) for node in nodes]
        assert len(set(keys)) == len(keys), s
        for node in nodes:
            if not node["scm"]:
                continue
            lam, mu, _ = _node_key(node)
            shape = SkewShape(lam, mu)
            kind, line = node["pivot"]
            if kind == "row":
                v, nbhd = line - 1, set(range(mu[line - 1] + 1, lam[line - 1] + 1))
                dead = [({line}, ()), ((), nbhd)]
            else:
                v, nbhd = shape.n + line - 1, {i for i in range(1, shape.n + 1)
                                               if mu[i - 1] < line <= lam[i - 1]}
                dead = [((), {line}), (nbhd, ())]
            assert _is_shedding(_adjacency(from_shape(shape)), v), (lam, mu, node["pivot"])
            assert len(node["deletions"]) == 2
            for (rows, cols), group in zip(dead, node["deletions"]):
                want = [(c.shape.lam, c.shape.mu)
                        for c in delete_rows_cols_reference(shape, rows, cols)]
                assert [keys[k][:2] for k in group] == want, (lam, mu, node["pivot"])
            true_nodes += 1
    assert true_nodes == 1287


def test_scm_trace_false_nodes_end_at_non_vertex_decomposable_leaves():
    """Following ``failed`` from the root of every non-SCM connected shape
    with <= 9 boxes and filling with <= 6 boxes, w <= 2, ends at a
    connected node with no pivots whose unweighted graph G is not vertex
    decomposable: the leaf is not SCM without the classifier.  For a
    filling this is the threshold set U = {}, where sqrt(I) = I(G).  The box
    count drops at each step, so the walk ends."""
    instances = [(s, None) for s in shapes_up_to(9, connected_only=True)]
    instances += [(t.shape, t.rows) for s in shapes_up_to(6, connected_only=True)
                  for t in enumerate_fillings(s, 2)]
    failures, leaves = 0, set()
    for s, rows in instances:
        trace = scm_trace(s, rows)
        if trace["scm"]:
            continue
        node = trace["nodes"][trace["components"][0]]
        while "failed" in node:
            child = trace["nodes"][node["failed"]]
            lam, mu, _ = _node_key(node)
            clam, cmu, _ = _node_key(child)
            assert sum(clam) - sum(cmu) < sum(lam) - sum(mu)
            node = child
        lam, mu, _ = _node_key(node)
        leaf = SkewShape(lam, mu)
        assert node["scm"] is False and node["pivots"] == [] and leaf.is_connected()
        assert not _vd(_adjacency(from_shape(leaf))), (s, rows)
        failures += 1
        leaves.add((lam, mu))
    assert (failures, len(leaves)) == (603, 17)


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
    assert unmixed_decomposition(SkewShape(())) == UnmixedCertificate(ok=True, pieces=())


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

    cert = unmixed_decomposition(SkewShape((3, 3, 2), (1, 0, 0)))
    assert cert.reason == "top-right corner block has blocks both below and to its left"
    assert cert.witness == {"block": [(1, 3)]}

    cert = unmixed_decomposition(SkewShape((3, 3, 1), (1, 0, 0)))
    assert cert.reason == "square piece with boxes left over"
    assert cert.witness == {"piece": [(1, 2), (1, 3), (2, 2), (2, 3)]}

    # Found after a flip, in ambient coordinates: on the second piece, a
    # lower one (its frame reflected once) ...
    cert = unmixed_decomposition(SkewShape((4, 3, 3, 2), (1, 1, 1, 0)))
    assert cert.reason == "nonsquare corner block"
    assert cert.witness == {"block": [(2, 3), (3, 3)]}
    # ... and on the second piece after the opening flip, an upper one (its
    # frame reflected twice).
    cert = unmixed_decomposition(SkewShape((4, 4, 4, 1), (3, 1, 0, 0)))
    assert cert.reason == "nonsquare corner block"
    assert cert.witness == {"block": [(2, 2), (2, 3)]}


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
        assert is_unmixed_skew(s) == is_unmixed_ideal(from_shape(s)), s


def test_unmixed_conjugation_invariance():
    for s in shapes_up_to(8, connected_only=True):
        assert is_unmixed_skew(s) == is_unmixed_skew(s.conjugate()), s


def test_certificates_validate_on_small_shapes():
    """Every certificate of the 12,077 connected shapes with <= 12 boxes
    validates, and the failures are counted by reason: a check that lets a
    bad shape through, or stops one at another check, changes the count."""
    reasons = Counter()
    for s in shapes_up_to(12, connected_only=True):
        cert = unmixed_decomposition(s)
        reasons[cert.reason if not cert.ok else "ok"] += 1
        if cert.ok:
            ok, msg = validate_certificate(s, cert)
            assert ok, (s, msg)
            total = sum(len(p.boxes) for p in cert.pieces)
            shared = sum(len(p.exit_block) for p in cert.pieces[:-1])
            assert total - shared == len(boxes_of(s))
    assert reasons == {
        "shape has a different number of rows and columns": 10_354,
        "nonsquare corner block": 1_504,
        "square piece with boxes left over": 106,
        "top-right corner block has blocks both below and to its left": 42,
        "ok": 71,
    }


def test_validate_certificate_rejects_hand_built_certificates():
    """A widened entry block, a piece whose corner block is not square, an
    empty piece and a piece that is not flush each pass every chain check
    and fail on the piece itself; a chain that breaks fails at the first
    check it breaks."""
    s = SkewShape((2, 1))
    (piece,) = unmixed_decomposition(s).pieces
    widened = dataclasses.replace(piece, entry_block=frozenset({(1, 1), (1, 2)}))
    assert validate_certificate(s, UnmixedCertificate(ok=True, pieces=(widened,))) \
        == (False, "entry/exit blocks are not the piece's extremal blocks")

    s = SkewShape((3, 1, 1))
    piece = PrimeShapePiece("upper", frozenset(boxes_of(s)),
                            entry_block=frozenset({(1, 2), (1, 3)}),
                            exit_block=frozenset({(2, 1), (3, 1)}))
    assert validate_certificate(s, UnmixedCertificate(ok=True, pieces=(piece,))) \
        == (False, "piece is not an unmixed partition diagram")

    # an empty upper piece and a lower one holding the only box glue along
    # the empty block and pass every chain check
    s = SkewShape((1,))
    empty = PrimeShapePiece("upper", frozenset(), entry_block=frozenset({(1, 1)}),
                            exit_block=frozenset())
    box = PrimeShapePiece("lower", frozenset({(1, 1)}), entry_block=frozenset(),
                          exit_block=frozenset({(1, 1)}))
    assert validate_certificate(s, UnmixedCertificate(ok=True, pieces=(empty, box))) \
        == (False, "piece has no boxes")

    # (2,2)/(1,0) read as one upper piece: its rows rise downward
    s = SkewShape((2, 2), (1, 0))
    piece = PrimeShapePiece("upper", frozenset(boxes_of(s)), entry_block=frozenset({(1, 2)}),
                            exit_block=frozenset({(2, 1)}))
    assert validate_certificate(s, UnmixedCertificate(ok=True, pieces=(piece,))) \
        == (False, "upper piece is not a flush partition diagram")

    # a failure witness, pieces on the empty shape, and the chain of the
    # paper's example (lower, upper, lower pieces p1, p2, p3) broken at each
    # chain check in turn
    s = SkewShape((6, 6, 6, 6, 2, 2), (5, 4, 1, 1, 1, 0))
    p1, p2, p3 = unmixed_decomposition(s).pieces
    rep = dataclasses.replace
    x = frozenset({(1, 6), (2, 6), (2, 5), (3, 2)})
    empty = SkewShape(())
    corner = rep(unmixed_decomposition(SkewShape((2, 1))).pieces[0],
                 entry_block=frozenset({(1, 1)}))
    for shape, cert, want in [
        (SkewShape((3, 2)), unmixed_decomposition(SkewShape((3, 2))),
         (False, "certificate is a failure witness")),
        (empty, UnmixedCertificate(ok=True), (True, "empty shape")),
        (empty, UnmixedCertificate(ok=True, pieces=(p1, p2, p3)), (False, "empty shape")),
        (s, UnmixedCertificate(ok=True, pieces=(p1, p2, p3, p3)),
         (False, "pieces overlap outside the shared extremal blocks")),
        (s, UnmixedCertificate(ok=True, pieces=(p1, rep(p2, orientation="lower"), p3)),
         (False, "orientations do not alternate")),
        (s, UnmixedCertificate(ok=True, pieces=(p1, rep(p2, entry_block=frozenset()), p3)),
         (False, "exit and entry blocks differ")),
        (s, UnmixedCertificate(ok=True, pieces=(rep(p1, exit_block=x), rep(p2, entry_block=x), p3)),
         (False, "consecutive pieces do not meet exactly in the shared block")),
        (SkewShape((2, 1)), UnmixedCertificate(ok=True, pieces=(corner,)),
         (False, "chain does not run from the top-right to the bottom-left corner")),
    ]:
        assert validate_certificate(shape, cert) == want, want


@pytest.mark.parametrize("orientation, boxes, reason", [
    ("upper", set(), "piece has no boxes"),
    ("upper", {(1, 1), (1, 2), (3, 1)}, "upper piece is not a flush partition diagram"),  # gap row
    ("lower", {(1, 2), (3, 1), (3, 2)}, "lower piece is not a flush partition diagram"),  # gap row
    ("upper", {(1, 1), (1, 3)}, "upper piece is not a flush partition diagram"),  # hole
    ("lower", {(2, 1), (2, 3)}, "lower piece is not a flush partition diagram"),  # hole
    ("upper", {(1, 1), (2, 2)}, "upper piece is not a flush partition diagram"),  # not flush left
    ("lower", {(1, 1), (2, 1), (2, 2)}, "lower piece is not a flush partition diagram"),  # not right
    ("upper", {(1, 1), (2, 1), (2, 2)}, "upper piece is not a flush partition diagram"),  # rise down
    ("lower", {(1, 1), (1, 2), (2, 2)}, "lower piece is not a flush partition diagram"),  # rise up
    ("side", {(1, 1)}, "unknown orientation side"),
])
def test_piece_reader_rejects_malformed_pieces(orientation, boxes, reason):
    piece = PrimeShapePiece(orientation, frozenset(boxes), frozenset(), frozenset())
    with pytest.raises(ValueError) as err:
        _piece_as_partition(piece)
    assert str(err.value) == reason



def test_certificate_serialization():
    cert = unmixed_decomposition(SkewShape((2, 2), (1, 0)))
    d = cert.to_dict()
    assert d["unmixed"] is True
    assert d["pieces"][0]["orientation"] == "lower"
    assert d["pieces"][0]["blocks"] == [[(2, 2)], [(1, 2)], [(2, 1)]]
    bad = unmixed_decomposition(SkewShape((3, 2))).to_dict()
    assert bad["unmixed"] is False and "reason" in bad


def test_piece_blocks_match_band_reference():
    """A piece's blocks, built on first use from its box set, are its band
    grid in band order; the extremal blocks found from the bands alone are
    among them.  The 131 unmixed connected shapes with <= 14 boxes (357
    pieces), and staircases, whose one piece has a block per box."""
    shapes = [*shapes_up_to(14, connected_only=True),
              *(SkewShape(tuple(range(n, 0, -1))) for n in (12, 25, 40))]
    pieces = 0
    for s in shapes:
        cert = unmixed_decomposition(s)
        for piece in cert.pieces:
            assert list(piece.blocks) == piece_blocks_reference(piece.boxes, piece.orientation), s
            assert piece.entry_block in piece.blocks and piece.exit_block in piece.blocks, s
            pieces += 1
    assert pieces == 357 + 3


def test_block_constancy_matches_reference_blocks():
    """The band-to-band constancy test, which compares consecutive rows of a
    row band and consecutive columns of a column band, holds exactly when
    the filling is constant on every block of the reference grid: all
    fillings of connected shapes with <= 7 boxes and weights in {1, 2}."""
    fillings = split = 0
    for s in shapes_up_to(7, connected_only=True):
        grid = blocks_reference(s)
        for t in enumerate_fillings(s, 2):
            want = all(len({t.weight(i, j) for i in range(r0, r1 + 1)
                            for j in range(c0, c1 + 1)}) == 1
                       for (r0, r1), (c0, c1), _ in grid)
            assert _constant_on_blocks(s, t.rows) == want, t
            fillings += 1
            split += not want
    assert split and split < fillings


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
        assert flags.cm == (is_unmixed_ideal(g) and is_scm_weighted_oracle(g)), s


@pytest.mark.parametrize("lam, mu, flags", [
    (tuple(range(150, 0, -1)), (0,) * 150, (True, True, True, True, True)),  # staircase
    (tuple(152 - i for i in range(150)), tuple(149 - i for i in range(150)),  # width-3 ribbon
     (False, True, False, False, False)),
])
def test_deep_shapes_classify_under_default_recursion_limit(lam, mu, flags):
    """150 rows need about 150 recursion levels.  A level costs 4 calls
    against the recursion limit: the loop over a group's keys, the
    component's verdict, the builtin ``all`` over the pivot's groups and its
    generator (on CPython 3.10 and 3.11 a builtin counts too).  So they fit
    under the default limit of 1000.  The largest width-2 ribbon that fits
    depends on the frames below the call (CPython 3.11): ``classify_shape``
    called from a script's top level classifies 248 rows and raises at 249;
    ``python -m skewtab classify`` exits 0 at 247 rows and fails at 248; a
    test of this module under pytest classifies 239 rows and raises at
    240."""
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
        scm_trace(s, None)
    assert calls == []


def test_scm_search_builds_at_most_one_shape_per_memo_miss(monkeypatch):
    """The SCM search runs on memo keys: a derived component is a key, and
    a shape is built only on a memo miss, for the pivots and the transpose's
    key.  From a cold memo per instance, on the 986 connected shapes with
    <= 9 boxes and the 5,718 connected fillings with <= 5 boxes, w <= 3,
    ``is_scm`` builds at most one shape (trusted or validated) per miss."""
    instances = [(s, None) for s in shapes_up_to(9, connected_only=True)]
    instances += [(t.shape, t.rows) for s in shapes_up_to(5, connected_only=True)
                  for t in enumerate_fillings(s, 3)]
    assert len(instances) == 986 + 5718
    counts = {"builds": 0, "misses": 0}

    class Memo(dict):
        def get(self, key, default=None):
            hit = super().get(key, default)
            counts["misses"] += hit is None
            return hit

    trusted, init = SkewShape._trusted.__func__, SkewShape.__init__

    def counted(build):
        def wrapper(*args):
            counts["builds"] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(classify, "_scm_cache", Memo())
    monkeypatch.setattr(SkewShape, "_trusted", classmethod(counted(trusted)))
    monkeypatch.setattr(SkewShape, "__init__", counted(init))
    for s, rows in instances:
        clear_caches()
        is_scm(s, rows)
    assert counts["misses"] == 25860
    assert counts["builds"] <= counts["misses"], counts


def test_unmixed_memo_is_faithful():
    """One unmixed memo for a whole pass, walked forward or backward, gives
    every instance the verdicts it gets from a cold memo: the 3,909 shapes
    with <= 8 boxes, disconnected ones included, and the 186 fillings with
    <= 4 boxes, w <= 2.  The memo holds one boolean per key, whether the
    shape decomposes, never a certificate and nothing per filling, and both
    modules' ``clear_caches`` empty it."""
    instances = list(shapes_up_to(8))
    instances += [t for s in shapes_up_to(4, connected_only=True)
                  for t in enumerate_fillings(s, 2)]
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
        assert memo and all(type(v) is bool for v in memo.values())
        (classify if order == 1 else tableau).clear_caches()
        assert not memo


def test_scm_memo_holds_transpose_pairs():
    """Every SCM verdict sits under its key and under its transpose's key,
    so the recursion's one memo lookup finds a verdict reached from either
    side.  The memo is filled from one instance of each transpose pair, so
    that no transpose gets there by a call of its own: of the shapes with
    <= 7 boxes and of the fillings with <= 4 boxes, w <= 2.  The transpose
    is taken box by box."""
    def transpose(lam, mu, rows):
        s = SkewShape(lam, mu)
        conj = s.conjugate()
        if rows is not None:
            weights = SkewTableau(s, rows).weights()
            rows = SkewTableau.from_weights(
                conj, {(j, i): w for (i, j), w in weights.items()}).rows
        return conj.lam, conj.mu, rows

    keys = [(s.lam, s.mu, None) for s in shapes_up_to(7)]
    keys += [(t.shape.lam, t.shape.mu, t.rows) for s in shapes_up_to(4)
             for t in enumerate_fillings(s, 2)]
    firsts = [key for key in keys if key <= transpose(*key)]
    assert (len(keys), len(firsts)) == (1250 + 534, 939)
    clear_caches()
    for lam, mu, rows in firsts:
        is_scm(SkewShape(lam, mu), rows)
    memo = classify._scm_cache
    assert any(rows is not None for _, _, rows in memo)  # fillings reached it
    for key, verdict in memo.items():
        assert memo[transpose(*key)] == verdict, key
