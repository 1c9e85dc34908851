import json
import random
import re

import pytest

from skewtab import classify as classify_module, tableau as tableau_module
from skewtab import (Component, SkewShape, SkewTableau, TableauError,
                     classify_tableau, enumerate_fillings, from_shape, is_scm_skew, is_scm_tableau,
                     is_scm_weighted_oracle, is_unmixed_ideal, is_unmixed_skew,
                     is_unmixed_tableau, scm_trace, validate)
from skewtab.classify import (ShapeFlags, classify_flags, clear_caches, connected_parts, is_scm,
                              is_unmixed)

from helpers import (constant_filling, line_ranks, order_preserving_refill,
                     random_connected_filling, shapes_up_to)

EXAMPLE_SHAPE = SkewShape((5, 4, 4), (2, 1, 0))
EXAMPLE_FILL = SkewTableau(EXAMPLE_SHAPE, [[2, 3, 1], [2, 2, 1], [2, 2, 4, 3]])


def test_validate_ok():
    validate(EXAMPLE_FILL)


def test_validate_errors():
    with pytest.raises(TableauError):
        SkewTableau(SkewShape((2, 1)), [[1, 0], [1]])  # nonpositive weight
    with pytest.raises(TableauError):
        SkewTableau(SkewShape((2, 1)), [[1, True], [1]])  # bool weight
    with pytest.raises(TableauError):
        SkewTableau(SkewShape((2, 1)), [[1], [1]])  # missing weight
    with pytest.raises(TableauError):
        SkewTableau(SkewShape((2, 1)), [[1, 1], [1], [2]])  # extra row
    with pytest.raises(TableauError):
        SkewTableau.from_weights(SkewShape((2, 1)), {(1, 1): 1, (1, 2): 1,
                                                     (2, 1): 1, (2, 2): 7})
    with pytest.raises(TableauError, match=r"^no weight for box \(1, 2\)$"):
        SkewTableau.from_weights(SkewShape((2,)), {(1, 1): 1})


def test_weight_lookup_and_round_trip():
    assert EXAMPLE_FILL.weight(1, 3) == 2
    assert EXAMPLE_FILL.weight(3, 1) == 2
    assert EXAMPLE_FILL.weight(1, 5) == 1
    with pytest.raises(TableauError):
        EXAMPLE_FILL.weight(1, 1)
    assert SkewTableau.from_dict(EXAMPLE_FILL.to_dict()) == EXAMPLE_FILL
    assert SkewTableau.from_weights(EXAMPLE_SHAPE, EXAMPLE_FILL.weights()) == EXAMPLE_FILL


def test_conjugate_tableau():
    conj = EXAMPLE_FILL.conjugate()
    assert conj.shape == EXAMPLE_SHAPE.conjugate()
    assert conj.weight(3, 1) == EXAMPLE_FILL.weight(1, 3)
    assert conj.conjugate() == EXAMPLE_FILL


def test_is_unmixed_tableau_paper_examples():
    shape = SkewShape((5, 5, 3, 3, 3), (4, 2, 2, 0, 0))
    left = SkewTableau(shape, [[2], [1, 2, 2], [2], [3, 3, 1], [3, 3, 1]])
    right = SkewTableau(shape, [[2], [1, 2, 2], [2], [3, 2, 3], [3, 2, 3]])
    assert is_unmixed_tableau(left)
    assert not is_unmixed_tableau(right)


def test_is_unmixed_tableau_constant_on_unmixed_shape():
    for s in shapes_up_to(7, connected_only=True):
        if is_unmixed_skew(s):
            assert is_unmixed_tableau(constant_filling(s, 3)), s


def test_is_scm_tableau_paper_example():
    assert not is_scm_tableau(EXAMPLE_FILL)


def test_is_scm_tableau_yellow_variant_is_actually_mixed():
    """The documented variant (weight of box (3,1) raised to 3) is not
    sequentially Cohen-Macaulay; the property at stake is SCM, not
    mixedness.  The colon I : x1*x3^2 has radical (y2, y5) plus the edge
    ideal of K_{2,2} on {x1, x2 | y3, y4}, with x3 joined to y3, y4 and the
    leaf y1.  Removing the closed neighbourhood of the only leaf y1 leaves
    the 4-cycle, so this bipartite graph is not SCM (Van Tuyl-Villarreal
    2008); since SCM passes from I to the radical of a colon, neither is I.
    The classifier and the threshold-radical oracle both say False.  The
    acceptance test of this variant checks a witness that needs neither
    theorem: a face whose link in a pure skeleton of the polarization is
    disconnected."""
    variant = SkewTableau(EXAMPLE_SHAPE, [[2, 3, 1], [2, 2, 1], [3, 2, 4, 3]])
    assert is_scm_tableau(variant) is False
    assert is_scm_weighted_oracle(from_shape(variant.shape, variant.rows)) is False


def test_single_row_tableaux_always_scm():
    for rows in ([[1, 5, 2]], [[9]], [[2, 2, 2, 2]]):
        s = SkewShape((len(rows[0]),))
        assert is_scm_tableau(SkewTableau(s, rows))


def test_scm_tableau_oracle_agreement_small():
    for s in shapes_up_to(5, connected_only=True):
        for t in enumerate_fillings(s, 2):
            g = from_shape(t.shape, t.rows)
            assert is_scm_tableau(t) == is_scm_weighted_oracle(g), t.to_dict()
            assert is_unmixed_tableau(t) == is_unmixed_ideal(g), t.to_dict()


def test_weight_one_degeneration():
    for s in shapes_up_to(7):
        t = constant_filling(s)
        assert is_scm_tableau(t) == is_scm_skew(s), s
        assert is_unmixed_tableau(t) == is_unmixed_skew(s), s


def test_scm_tableau_conjugation_invariance():
    """The recursion decides a filling and its transpose alike.  The memo
    stores each verdict under the transpose's key too, so it is cleared
    before each call: otherwise the second call is a memo hit."""
    for s in shapes_up_to(5, connected_only=True):
        for t in enumerate_fillings(s, 2):
            classify_module.clear_caches()
            scm = is_scm_tableau(t)
            classify_module.clear_caches()
            assert scm == is_scm_tableau(t.conjugate()), t.to_dict()


def test_verdicts_survive_weight_relabeling():
    """A strictly increasing map phi on the weights keeps the unmixed, SCM
    and CM verdicts of a filling: checked on every connected filling with
    <= 6 boxes, w <= 2, under w -> 2w and w -> w + 3, memos cleared.

    sqrt(I : x^a) depends on a only through the comparisons of each a_i
    with the weights of the edges at i, the threshold vectors that
    ``helpers.threshold_u_sets_reference`` walks.  phi carries the
    threshold vectors of one filling onto those of the other and keeps
    every comparison, so both ideals have the same associated
    radicals, hence the same associated primes and unmixed verdict.  I is
    SCM iff every sqrt(I : x^a) is, and CM is unmixed and SCM.

    Buchsbaum changes exactly on the weight-1 n x n squares, n >= 2: such a
    square is Buchsbaum, and the square of constant weight >= 2 is not
    (``test_classify_tableau_examples``).  Within these bounds that is the
    2 x 2 square.  gCM is left out: its invariance is not proved."""
    def flags(t):
        classify_module.clear_caches()
        f = classify_tableau(t)
        return (f.unmixed, f.scm, f.cm), f.buchsbaum

    fillings = [t for s in shapes_up_to(6, connected_only=True)
                for t in enumerate_fillings(s, 2)]
    assert len(fillings) == 3770
    flipped = []
    for t in fillings:
        kept, buchsbaum = flags(t)
        for name, phi in (("2w", lambda w: 2 * w), ("w+3", lambda w: w + 3)):
            image = flags(SkewTableau(t.shape, [[phi(w) for w in row] for row in t.rows]))
            assert image[0] == kept, (t.to_dict(), name)
            if image[1] != buchsbaum:
                flipped.append((t, name))
    square = constant_filling(SkewShape((2, 2)))
    assert flipped == [(square, "2w"), (square, "w+3")]


def test_verdicts_survive_symmetries_past_the_oracles():
    """Past the exhaustive bounds, the unmixed, SCM and CM verdicts of a
    filling are kept by the transpose, the half turn, w -> 2w and
    w -> w + 3, memos cleared before each call (the invariances of the two
    tests above and of ``test_harness``'s orbit test).  On 40 seeded random
    connected fillings of 15 to 60 boxes, w <= 3, 16 of them SCM; in 33
    the transpose's first pivot is another line, so two pivot choices meet
    at sizes no oracle reaches.  Random weights leave these mixed, so 6
    staircases of 5 to 10 rows with weights weakly increasing along rows
    and columns add Cohen-Macaulay instances.

    Each filling also gets 5 random refillings with the same weak order on
    every row and column.  Whether x^a lies in I(G,w), and its threshold
    set, depend only on which edges at each vertex (a line) weigh <= a_v,
    so the threshold sets, and with them these three verdicts, depend only
    on each line's weak order.  Buchsbaum is not invariant."""
    def flags(t):
        classify_module.clear_caches()
        f = classify_tableau(t)
        return f.unmixed, f.scm, f.cm

    rng = random.Random(20261019)
    fillings = [random_connected_filling(rng, rng.randint(15, 60), 3, rng.randint(2, 4))
                for _ in range(40)]
    for n in range(5, 11):
        rows = []
        for i in range(n):
            row = []
            for j in range(n - i):
                above = rows[i - 1][j] if i else 1
                row.append(min(3, max(above, row[-1] if j else 1) + rng.randint(0, 1)))
            rows.append(row)
        fillings.append(SkewTableau(SkewShape(tuple(range(n, 0, -1))), rows))
    verdicts = []
    for t in fillings:
        verdicts.append(flags(t))
        images = {"transpose": t.conjugate(),
                  "half turn": SkewTableau(t.shape.rotate180(), [r[::-1] for r in t.rows[::-1]]),
                  "2w": SkewTableau(t.shape, [[2 * w for w in r] for r in t.rows]),
                  "w+3": SkewTableau(t.shape, [[w + 3 for w in r] for r in t.rows])}
        for k in range(5):
            image = images[f"refill {k}"] = order_preserving_refill(rng, t)
            assert line_ranks(image) == line_ranks(t), (t.to_dict(), image.to_dict())
        for name, image in images.items():
            assert flags(image) == verdicts[-1], (t.to_dict(), name)
    assert sum(scm for _, scm, _ in verdicts[:40]) == 16
    assert verdicts[40:] == [(True, True, True)] * 6


def test_non_essential_variables():
    # when lam_1 = lam_2 and the filling is scm, adding any y_j of the first
    # row to the ideal keeps it scm; quotienting by y_j turns that into the
    # tableau with column j deleted
    checked = 0
    for s in shapes_up_to(5, connected_only=True):
        if s.n < 2 or s.lam[0] != s.lam[1]:
            continue
        for t in enumerate_fillings(s, 2):
            if not is_scm_tableau(t):
                continue
            for j in range(s.mu[0] + 1, s.lam[0] + 1):
                assert all(is_scm_tableau(u) for u in t.delete(dead_cols={j})), (t.to_dict(), j)
                checked += 1
    assert checked > 50


EXPLAIN_21 = {
    "scm": True, "components": [0],
    "nodes": [
        {"tableau": {"lambda": [2, 1], "mu": [0, 0], "rows": [[1, 2], [3]]}, "scm": True,
         "pivots": [["row", 1], ["col", 1]], "pivot": ["row", 1], "levels": [1, 2], "case": 1,
         "deletions": [[1], [2], []]},
        {"tableau": {"lambda": [1], "mu": [0], "rows": [[3]]}, "scm": True,
         "pivots": [["row", 1], ["col", 1]], "pivot": ["row", 1], "levels": [3], "case": 1,
         "deletions": [[], []]},
        {"tableau": {"lambda": [1], "mu": [0], "rows": [[2]]}, "scm": True,
         "pivots": [["row", 1], ["col", 1]], "pivot": ["row", 1], "levels": [2], "case": 1,
         "deletions": [[], []]}]}


def test_explain_scm_tableau():
    trace = scm_trace(SkewShape((2, 1)), ((1, 2), (3,)))
    root = trace["nodes"][trace["components"][0]]
    assert trace["scm"] is True
    assert root["pivot"] in (["row", 1], ["col", 1], ["col", 2], ["row", 2])
    assert "deletions" in root
    # the whole DAG, key order included: the row-1 pivot deletes its line,
    # then its weight-1 neighbor (level 1), then both neighbors (level 2)
    assert trace == EXPLAIN_21
    assert json.dumps(trace) == json.dumps(EXPLAIN_21)
    bad = scm_trace(SkewShape((2, 2)), ((1, 1), (1, 1)))
    assert bad["scm"] is False and bad["nodes"][0]["pivots"] == []


def test_classify_tableau_examples():
    """The n x n square with constant weight w, n >= 2, is gCM, and it is
    Buchsbaum only for w = 1; the weight-2 2 x 2 square was once expected
    Buchsbaum.

    I is the intersection of P = (x_i^w) and Q = (y_j^w).  S/P and S/Q are
    polynomial rings of dimension n >= 2, so the Mayer-Vietoris sequence
    0 -> S/I -> S/P + S/Q -> S/(P + Q) -> 0 gives H^1_m(S/I) = S/(P + Q)
    and H^i_m(S/I) = 0 for i = 0 and 1 < i < n.  S/(P + Q) has finite
    length, so S/I is gCM.  For w >= 2, x_1 is not in P + Q, so m does not
    kill H^1: S/I is not quasi-Buchsbaum, hence not Buchsbaum.
    """
    flags = classify_tableau(SkewTableau(SkewShape((2, 1)), [[1, 2], [3]]))
    assert flags.cm and flags.unmixed and flags.scm and flags.buchsbaum and flags.gcm

    for n, w, buchsbaum in ((2, 2, False), (2, 1, True), (3, 2, False)):
        flags = classify_tableau(SkewTableau(SkewShape((n,) * n), [[w] * n] * n))
        assert (flags.unmixed, flags.scm, flags.cm, flags.buchsbaum, flags.gcm) \
            == (True, False, False, buchsbaum, True), (n, w)

    flags = classify_tableau(SkewTableau(SkewShape((2, 2)), [[1, 2], [2, 1]]))
    assert (flags.unmixed, flags.scm, flags.cm, flags.buchsbaum, flags.gcm) \
        == (False, False, False, False, False)


def test_classify_tableau_decomposes_each_component_once(monkeypatch):
    """The unmixed, cm and direct-criterion flags share one prime-piece
    decomposition per component."""
    classify_module.clear_caches()
    calls = []
    real = classify_module.unmixed_decomposition

    def counting(s):
        calls.append(s)
        return real(s)

    # patch the binding in every module that may call it
    monkeypatch.setattr(classify_module, "unmixed_decomposition", counting)
    monkeypatch.setattr(tableau_module, "unmixed_decomposition", counting, raising=False)
    classify_tableau(EXAMPLE_FILL)
    assert calls == [EXAMPLE_SHAPE]
    calls.clear()
    classify_tableau(SkewTableau(SkewShape((2, 1), (1, 0)), [[4], [7]]))
    assert calls == [SkewShape((1,)), SkewShape((1,))]


def test_classify_flags_raises_when_the_direct_criterion_disagrees(monkeypatch):
    """cm of a filling is computed twice, as unmixed and scm and by the
    direct criterion (monotone weights on a Cohen-Macaulay shape); an
    unmixed verdict that is not monotone makes the two disagree, and the
    error names the instance."""
    monkeypatch.setattr(classify_module, "_unmixed_connected", lambda key: (True, False))
    instance = {"lambda": [1], "mu": [0], "rows": [[1]]}
    with pytest.raises(RuntimeError, match=re.escape(str(instance))):
        classify_flags(SkewShape((1,)), ((1,),))


def test_classify_tableau_vacuous_and_disconnected():
    assert classify_tableau(SkewTableau(SkewShape((), ()), [])).vacuous
    t = SkewTableau(SkewShape((2, 1), (1, 0)), [[4], [7]])
    assert classify_tableau(t).cm


def component_rows(t: SkewTableau, c: Component) -> tuple:
    """The weight rows of the component ``c`` of ``t.shape``, read box by box
    through its index maps."""
    return tuple(tuple(t.weight(c.row_map[i - 1], c.col_map[j - 1]) for j in range(m + 1, l + 1))
                 for i, (l, m) in enumerate(zip(c.shape.lam, c.shape.mu), 1))


def test_components_carry_weights():
    """A filling's components slice its weight rows; the slices equal the
    rows read box by box through each shape component's index maps, on
    every filling of the shapes with <= 5 boxes, w <= 2.  The bare split
    gives the keys (lam, mu, None) of the shape components on every shape
    with <= 9 boxes."""
    t = SkewTableau(SkewShape((2, 1), (1, 0)), [[4], [7]])
    assert [rows for _, _, rows in connected_parts(t.shape, t.rows)] == [((4,),), ((7,),)]
    for s in shapes_up_to(9):
        assert list(connected_parts(s, None)) == [(c.shape.lam, c.shape.mu, None)
                                                  for c in s.components()], s
    for s in shapes_up_to(5):
        for t in enumerate_fillings(s, 2):
            assert list(connected_parts(s, t.rows)) == [
                (c.shape.lam, c.shape.mu, component_rows(t, c)) for c in s.components()], t


def test_memo_first_split_matches_components_classified_alone():
    """``is_scm``, ``is_unmixed`` and ``classify_flags`` read the memos on
    each component's key before building its shape.  On every shape with
    <= 9 boxes and every filling of a disconnected shape with <= 5 boxes,
    w <= 2, they match each of ``s.components()`` classified on its own,
    from a cold memo per instance and with the memos kept warm over a walk
    forward and then backward.  A disconnected instance is Buchsbaum or gCM
    exactly when CM.  After the walk, every memo key names a valid connected
    shape (its filling's rows fitting it) and every memo value is a bool:
    the cold runs computed the same keys."""
    shapes = list(shapes_up_to(9))
    fillings = [t for s in shapes_up_to(5) if not s.is_connected()
                for t in enumerate_fillings(s, 2)]
    assert (len(shapes), len(fillings)) == (12227, 2492)
    cases = [(s, None) for s in shapes] + [(t.shape, t.rows) for t in fillings]

    def alone(s, rows):
        flags = [classify_flags(c.shape, None if rows is None else
                                component_rows(SkewTableau._trusted(s, rows), c))
                 for c in s.components()]
        unmixed, scm = all(f.unmixed for f in flags), all(f.scm for f in flags)
        cm = unmixed and scm
        return scm, unmixed, flags[0] if len(flags) == 1 else ShapeFlags(unmixed, scm, cm, cm, cm)

    def check_memos():
        for lam, mu, rows in classify_module._scm_cache:
            shape = SkewShape(lam, mu)
            assert shape.is_connected()
            if rows is not None:
                SkewTableau(shape, rows)  # raises unless the rows fit the shape
        for lam, mu in classify_module._unmixed_cache:
            assert SkewShape(lam, mu).is_connected()
        for memo in (classify_module._scm_cache, classify_module._unmixed_cache):
            assert all(type(v) is bool for v in memo.values())

    clear_caches()
    expected = [alone(*case) for case in cases]
    for case, want in zip(cases, expected):
        got = []
        for classifier in (is_scm, is_unmixed, classify_flags):
            clear_caches()
            got.append(classifier(*case))
        assert tuple(got) == want, case
    clear_caches()
    for k in [*range(len(cases)), *reversed(range(len(cases)))]:
        case = cases[k]
        assert (is_scm(*case), is_unmixed(*case), classify_flags(*case)) == expected[k], case
    check_memos()


def test_delete_carries_weights():
    subs = EXAMPLE_FILL.delete(dead_rows={1})
    assert len(subs) == 1
    assert subs[0].shape == SkewShape((4, 4), (1, 0))
    assert subs[0].rows == ((2, 2, 1), (2, 2, 4, 3))
