import json

import pytest

from skewtab import classify as classify_module, tableau as tableau_module
from skewtab import (SkewShape, SkewTableau, TableauError,
                     classify_tableau, explain_scm_tableau, is_scm_skew,
                     is_scm_tableau, is_scm_weighted_oracle, is_unmixed_ideal,
                     is_unmixed_skew, is_unmixed_tableau, to_weighted_graph,
                     validate, weighted_edge_ideal)

from helpers import all_fillings, constant_filling, shapes_up_to

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
    assert is_scm_weighted_oracle(to_weighted_graph(variant)) is False


def test_single_row_tableaux_always_scm():
    for rows in ([[1, 5, 2]], [[9]], [[2, 2, 2, 2]]):
        s = SkewShape((len(rows[0]),))
        assert is_scm_tableau(SkewTableau(s, rows))


def test_scm_tableau_oracle_agreement_small():
    for s in shapes_up_to(5, connected_only=True):
        for t in all_fillings(s, 2):
            g = to_weighted_graph(t)
            assert is_scm_tableau(t) == is_scm_weighted_oracle(g), t.to_dict()
            assert is_unmixed_tableau(t) == is_unmixed_ideal(weighted_edge_ideal(g)), t.to_dict()


def test_weight_one_degeneration():
    for s in shapes_up_to(7):
        t = constant_filling(s)
        assert is_scm_tableau(t) == is_scm_skew(s), s
        assert is_unmixed_tableau(t) == is_unmixed_skew(s), s


def test_scm_tableau_conjugation_invariance():
    for s in shapes_up_to(5, connected_only=True):
        for t in all_fillings(s, 2):
            assert is_scm_tableau(t) == is_scm_tableau(t.conjugate())


def test_non_essential_variables():
    # when lam_1 = lam_2 and the filling is scm, adding any y_j of the first
    # row to the ideal keeps it scm; quotienting by y_j turns that into the
    # tableau with column j deleted
    checked = 0
    for s in shapes_up_to(5, connected_only=True):
        if s.n < 2 or s.lam[0] != s.lam[1]:
            continue
        for t in all_fillings(s, 2):
            if not is_scm_tableau(t):
                continue
            for j in range(s.mu[0] + 1, s.lam[0] + 1):
                assert all(is_scm_tableau(u) for u in t.delete(cols={j})), (t.to_dict(), j)
                checked += 1
    assert checked > 50


EXPLAIN_21 = {
    "tableau": {"lambda": [2, 1], "mu": [0, 0], "rows": [[1, 2], [3]]}, "scm": True,
    "pivots": [["row", 1], ["col", 1]], "pivot": ["row", 1], "levels": [1, 2], "case": 1,
    "deletions": [
        [{"tableau": {"lambda": [1], "mu": [0], "rows": [[3]]}, "scm": True,
          "pivots": [["row", 1], ["col", 1]], "pivot": ["row", 1], "levels": [3], "case": 1,
          "deletions": [[], []]}],
        [{"tableau": {"lambda": [1], "mu": [0], "rows": [[2]]}, "scm": True,
          "pivots": [["row", 1], ["col", 1]], "pivot": ["row", 1], "levels": [2], "case": 1,
          "deletions": [[], []]}],
        []]}


def test_explain_scm_tableau():
    trace = explain_scm_tableau(SkewTableau(SkewShape((2, 1)), [[1, 2], [3]]))
    assert trace["scm"] is True
    assert trace["pivot"] in (["row", 1], ["col", 1], ["col", 2], ["row", 2])
    assert "deletions" in trace
    # the whole tree, key order included: the row-1 pivot deletes its line,
    # then its weight-1 neighbor (level 1), then both neighbors (level 2)
    assert trace == EXPLAIN_21
    assert json.dumps(trace) == json.dumps(EXPLAIN_21)
    bad = explain_scm_tableau(SkewTableau(SkewShape((2, 2)), [[1, 1], [1, 1]]))
    assert bad["scm"] is False and bad["pivots"] == []


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


def test_classify_tableau_vacuous_and_disconnected():
    assert classify_tableau(SkewTableau(SkewShape((), ()), [])).vacuous
    t = SkewTableau(SkewShape((2, 1), (1, 0)), [[4], [7]])
    assert classify_tableau(t).cm


def test_components_carry_weights():
    t = SkewTableau(SkewShape((2, 1), (1, 0)), [[4], [7]])
    comps = t.components()
    assert [c.rows for c in comps] == [((4,),), ((7,),)]


def test_delete_carries_weights():
    subs = EXAMPLE_FILL.delete(rows={1})
    assert len(subs) == 1
    assert subs[0].shape == SkewShape((4, 4), (1, 0))
    assert subs[0].rows == ((2, 2, 1), (2, 2, 4, 3))
