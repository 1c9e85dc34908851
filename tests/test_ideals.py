import random
from functools import cache
from itertools import product

import pytest

from skewtab import (SkewShape, SkewTableau, WeightedGraph, enumerate_fillings,
                     enumerate_skew_shapes, from_shape, graphs, is_scm_weighted_oracle,
                     is_unmixed_ideal)
from skewtab.graphs import _adjacency, _cover_size, _minimal_covers, clear_caches
from skewtab.ideals import _threshold_u_sets

from helpers import (MonomialIdeal, _minimalize, _restrict, associated_radical,
                     associated_radicals_weighted, contains,
                     contains_ideal, intersect, irreducible_decomposition_reference,
                     make_weighted_graph, radical, scm_walk_reference, shapes_up_to,
                     threshold_u_sets_reference, unmixed_walk_reference, weighted_edge_ideal)


def ideal(variables, *gens):
    return MonomialIdeal.make(variables, gens)


def wgraph(weights):
    """The graph of named edges, its vertices in sorted name order."""
    verts = sorted({v for e in weights for v in e})
    return make_weighted_graph(verts, weights)


def shape_names(s: SkewShape) -> tuple[str, ...]:
    """x1..xn, y1..ym: the names of the vertices of ``from_shape(s)``."""
    return (tuple(f"x{i}" for i in range(1, s.n + 1))
            + tuple(f"y{j}" for j in range(1, s.m + 1)))


# the tests below decompose the same small edge ideals more than once
reference_components = cache(irreducible_decomposition_reference)


def reference_primes(I: MonomialIdeal) -> set[frozenset[str]]:
    """The associated primes: the supports of the reference's components."""
    return {frozenset(v for g in c.generators for v, e in zip(I.variables, g) if e)
            for c in reference_components(I)}


def unmixed_reference(I: MonomialIdeal) -> bool:
    """The reference's components have one support size (the zero ideal,
    which it cannot decompose, is unmixed)."""
    return I.is_zero or len({len(p) for p in reference_primes(I)}) == 1


def brute_radicals(g: WeightedGraph) -> set[MonomialIdeal]:
    """Independent oracle: colon by every bounded exponent vector.

    Colon ideals only compare exponents against the generators, so vectors
    capped at the maximum weight reach every associated radical.
    """
    I = weighted_edge_ideal(g)
    cap = max(w for _, _, w in g.edges)
    out = set()
    for a in product(range(cap + 1), repeat=g.nverts):
        if not contains(I, a):
            out.add(associated_radical(I, a))
    return out


def test_minimal_generators():
    I = ideal(("x", "y"), (2, 0), (1, 1), (3, 1))
    assert I.generators == {(2, 0), (1, 1)}


def test_unit_and_zero():
    unit = ideal(("x",), (0,))
    assert unit.is_unit
    zero = MonomialIdeal.make(("x",), [])
    assert zero.is_zero and not zero.is_unit


def test_membership():
    I = ideal(("x", "y"), (2, 0), (1, 1))
    assert contains(I, (2, 5))
    assert contains(I, (1, 1))
    assert not contains(I, (1, 0))
    assert not contains(I, (0, 9))


def test_format():
    I = ideal(("x1", "y1"), (2, 2))
    assert I.format() == "x1^2 y1^2"
    assert ideal(("x", "y"), (1, 1)).format() == "x y"


def test_weighted_edge_ideal():
    g = wgraph({("x1", "y1"): 2})
    assert weighted_edge_ideal(g).generators == {(2, 2)}
    k22 = wgraph({("x1", "y1"): 1, ("x1", "y2"): 1, ("x2", "y1"): 1, ("x2", "y2"): 1})
    assert weighted_edge_ideal(k22).generators == {
        (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}


def test_weighted_edge_ideal_paper_filling():
    # the worked filling of (5,4,4)/(2,1,0): ten boxes, ten generators
    t = SkewTableau(SkewShape((5, 4, 4), (2, 1, 0)), [[2, 3, 1], [2, 2, 1], [2, 2, 4, 3]])
    I = weighted_edge_ideal(from_shape(t.shape, t.rows), shape_names(t.shape))
    assert len(I.generators) == 10
    vars_ = I.variables
    def gen(x, y, w):
        e = [0] * len(vars_)
        e[vars_.index(x)] = w
        e[vars_.index(y)] = w
        return tuple(e)
    for g in (gen("x1", "y3", 2), gen("x1", "y4", 3), gen("x1", "y5", 1)):
        assert g in I.generators


def test_weight_validation():
    with pytest.raises(ValueError):
        make_weighted_graph(("a", "b"), {("a", "b"): 0})
    with pytest.raises(ValueError):
        make_weighted_graph(("a",), {("a", "a"): 1})
    with pytest.raises(ValueError):
        make_weighted_graph(("a", "b"), {("a", "b"): True})


def test_associated_radical_examples():
    I = ideal(("x1", "y1"), (2, 2))
    assert associated_radical(I, (2, 0)).generators == {(0, 1)}
    assert associated_radical(I, (0, 0)).generators == {(1, 1)}
    J = ideal(("x", "y"), (2, 0), (1, 1))
    assert associated_radical(J, (1, 0)).generators == {(1, 0), (0, 1)}
    with pytest.raises(ValueError):
        associated_radical(J, (2, 0))


def test_associated_radicals_weighted_single_edge():
    g = wgraph({("x1", "y1"): 2})
    rads = {tuple(sorted(r.generators)) for r in associated_radicals_weighted(g)}
    assert rads == {((1, 1),), ((1, 0),), ((0, 1),)}


def test_associated_radicals_contains_plain_radical():
    g = wgraph({("x1", "y1"): 1, ("x1", "y2"): 1, ("x2", "y1"): 2})
    rads = associated_radicals_weighted(g)
    assert radical(weighted_edge_ideal(g)) in rads


def test_associated_radicals_vs_brute_force_small():
    graphs = [
        {("x1", "y1"): 2},
        {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 3},         # weighted triangle
        {("x1", "y1"): 1, ("x1", "y2"): 2, ("x2", "y1"): 2},
        {("a", "b"): 2, ("b", "c"): 2, ("c", "d"): 1},
        {("a", "b"): 3, ("c", "d"): 2},                        # disconnected
    ]
    for weights in graphs:
        g = wgraph(weights)
        assert associated_radicals_weighted(g) == brute_radicals(g), weights


def test_radical_transfer():
    # a radical of a radical is a radical of the original ideal
    graphs = [
        {("x1", "y1"): 2, ("x1", "y2"): 1, ("x2", "y1"): 2, ("x2", "y2"): 2},
        {("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 2, ("b", "d"): 1},
    ]
    for weights in graphs:
        g = wgraph(weights)
        rads = associated_radicals_weighted(g)
        for J in rads:
            for v in product((0, 1), repeat=len(J.variables)):
                if contains(J, v):
                    continue
                K = associated_radical(J, v)
                if K.is_unit:
                    continue
                assert K in rads, (weights, J.format(), v)


def test_unmixed_descends_to_radicals():
    g = wgraph({("x1", "y1"): 1, ("x1", "y2"): 1, ("x2", "y1"): 1, ("x2", "y2"): 1})
    I = weighted_edge_ideal(g)
    assert is_unmixed_ideal(g) and unmixed_reference(I)
    cap = 2
    for a in product(range(cap), repeat=len(I.variables)):
        if not contains(I, a):
            rad = associated_radical(I, a)
            if not rad.is_unit and not rad.is_zero:
                assert unmixed_reference(rad), a


def test_irreducible_decomposition_examples():
    I = ideal(("x", "y"), (1, 1))
    comps = {c.generators for c in irreducible_decomposition_reference(I)}
    assert comps == {frozenset({(1, 0)}), frozenset({(0, 1)})}

    J = ideal(("x", "y"), (2, 0), (1, 1))
    comps = {c.generators for c in irreducible_decomposition_reference(J)}
    assert comps == {frozenset({(1, 0)}), frozenset({(2, 0), (0, 1)})}

    K = ideal(("x1", "y1", "y2"), (2, 2, 0), (2, 0, 2))
    comps = {c.generators for c in irreducible_decomposition_reference(K)}
    assert comps == {frozenset({(2, 0, 0)}), frozenset({(0, 2, 0), (0, 0, 2)})}


def test_irreducible_decomposition_rejects_trivial():
    with pytest.raises(ValueError):
        irreducible_decomposition_reference(MonomialIdeal.make(("x",), []))
    with pytest.raises(ValueError):
        irreducible_decomposition_reference(ideal(("x",), (0,)))


def test_associated_primes_examples():
    I = ideal(("x", "y"), (1, 1))
    assert reference_primes(I) == {frozenset({"x"}), frozenset({"y"})}
    J = ideal(("x", "y"), (2, 0), (1, 1))
    assert reference_primes(J) == {frozenset({"x"}), frozenset({"x", "y"})}


def test_associated_primes_of_edge_ideal_are_cover_complements():
    # minimal primes of a squarefree edge ideal = minimal vertex covers
    s = SkewShape((3, 2))
    g, names = from_shape(s), shape_names(s)
    primes = reference_primes(weighted_edge_ideal(g, names))
    covers = {frozenset(v for k, v in enumerate(names) if (cover >> k) & 1)
              for cover in _minimal_covers(_adjacency(g))}
    assert primes == covers


def test_is_unmixed_ideal_examples():
    """A single edge of any weight, and the 4-cycle, are unmixed.  The path
    a-b-c has the covers {b} and {a, c}.  The path a-b-c-d has its minimal
    covers all of size 2, and with weights 1, 1, 1 its ideal is unmixed; with
    weights 1, 2, 1, x^a = x_b x_c is outside the ideal and dominates ab and
    cd only, so U = {a, d} with the cover {b} of the edge bc: a prime of
    size 3."""
    assert is_unmixed_ideal(wgraph({("a", "b"): 1}))
    assert is_unmixed_ideal(wgraph({("a", "b"): 3}))
    assert is_unmixed_ideal(wgraph({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 1}))
    assert not is_unmixed_ideal(wgraph({("a", "b"): 1, ("b", "c"): 1}))
    assert is_unmixed_ideal(wgraph({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1}))
    mixed = wgraph({("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 1})
    assert not is_unmixed_ideal(mixed)
    assert frozenset({"a", "b", "d"}) in reference_primes(weighted_edge_ideal(mixed, "abcd"))


def random_ideals():
    """Seeded random proper nonzero ideals in up to four variables."""
    rng = random.Random(20240809)
    for _ in range(120):
        nvars = rng.randint(1, 4)
        variables = tuple(f"x{k}" for k in range(nvars))
        gens = set()
        for _ in range(rng.randint(1, 6)):
            g = tuple(rng.randint(0, 3) for _ in range(nvars))
            if any(g):
                gens.add(g)
        if gens:
            yield MonomialIdeal.make(variables, gens)


def test_intersection_of_components_is_ideal():
    for I in random_ideals():
        comps = irreducible_decomposition_reference(I)
        inter = comps[0]
        for c in comps[1:]:
            inter = intersect(inter, c)
        assert inter.generators == I.generators


def filling_graphs(max_boxes: int, max_weight: int) -> list[WeightedGraph]:
    return [from_shape(t.shape, t.rows)
            for s in enumerate_skew_shapes(max_boxes, connected_only=True)
            for t in enumerate_fillings(s, max_weight)]


def test_irreducible_decomposition_matches_reference():
    """The reference decomposition, which referees the unmixed oracle,
    matches the ideal: its components intersect back to every filling's
    edge ideal with <= 5 boxes and w <= 2 or <= 4 boxes and w <= 3, and to
    the random ideals, and on those no component can be dropped."""
    # w <= 3 gives three weight levels
    two_levels, three_levels = filling_graphs(5, 2), filling_graphs(4, 3)
    assert (len(two_levels), len(three_levels)) == (826, 858)
    edge_ideals = [weighted_edge_ideal(g) for g in two_levels + three_levels]
    for I in edge_ideals + list(random_ideals()):
        # the edge ideals are built without MonomialIdeal.make: minimal all the same
        assert I.generators == _minimalize(I.generators), I.format()
        comps = reference_components(I)
        inter = comps[0]
        for c in comps[1:]:
            inter = intersect(inter, c)
        assert inter.generators == I.generators, I.format()

    # irredundancy from the definition: dropping any component enlarges the
    # intersection
    for I in random_ideals():
        comps = reference_components(I)
        for k, c in enumerate(comps):
            others = comps[:k] + comps[k + 1:]
            if not others:
                continue
            inter = others[0]
            for d in others[1:]:
                inter = intersect(inter, d)
            assert not contains_ideal(c, inter), (I.format(), c.format())


def small_fillings():
    """Every filling of a connected shape with <= 5 boxes, weights 1..3."""
    fillings = [t for s in enumerate_skew_shapes(5, connected_only=True)
                for t in enumerate_fillings(s, 3)]
    assert len(fillings) == 5718
    return fillings


def random_graphs():
    """Seeded random weighted graphs, bipartite or not: 2 to 6 vertices, 1
    to 7 edges, weights 1..3."""
    rng = random.Random(20261019)
    for _ in range(3000):
        names = [f"v{k}" for k in range(rng.randint(2, 6))]
        pairs = [(a, b) for k, a in enumerate(names) for b in names[k + 1:]]
        edges = rng.sample(pairs, rng.randint(1, min(7, len(pairs))))
        yield make_weighted_graph(names, {e: rng.randint(1, 3) for e in edges})


def test_threshold_u_sets_match_reference():
    """The domination search yields each U-set of the product walk once,
    and no other: on every filling graph with <= 5 boxes and w <= 3 and
    with <= 6 boxes and w <= 2, and on random graphs, triangles included."""
    fillings = small_fillings() + [t for s in enumerate_skew_shapes(6, connected_only=True)
                                   for t in enumerate_fillings(s, 2)]
    assert len(fillings) == 5718 + 3770
    randoms = list(random_graphs())
    for g in [from_shape(t.shape, t.rows) for t in fillings] + randoms:
        got = list(_threshold_u_sets(g))
        assert len(got) == len(set(got)), g
        want = {sum(1 << k for k in u_set) for u_set in threshold_u_sets_reference(g)}
        assert set(got) == want, g

    def has_triangle(g):
        nbrs = [0] * g.nverts
        for a, b, _ in g.edges:
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
        return any(nbrs[a] & nbrs[b] for a, b, _ in g.edges)

    assert sum(map(has_triangle, randoms)) == 939
    # the edgeless graph: x^a is never in the ideal, and U is always empty
    assert list(_threshold_u_sets(make_weighted_graph(("a", "b", "c"), {}))) == [0]


def test_from_shape_matches_validating_constructor():
    """The graph built straight from the weight rows equals the one that
    ``make_weighted_graph`` checks and sorts from named edges: same
    vertices, same edges in the same order.  On every filling with <= 5
    boxes and w <= 3, and on every shape with <= 5 boxes, disconnected ones
    included, as its all-ones filling."""
    for t in small_fillings():
        weights = {(f"x{i}", f"y{j}"): w for (i, j), w in t.weights().items()}
        assert (from_shape(t.shape, t.rows)
                == make_weighted_graph(shape_names(t.shape), weights)), t.to_dict()
    for s in shapes_up_to(5):
        weights = {(f"x{i}", f"y{j}"): 1 for i, j in s.boxes()}
        assert from_shape(s) == make_weighted_graph(shape_names(s), weights), s


def test_associated_primes_are_component_supports():
    """The primes (x_U) + (x_C) that ``is_unmixed_ideal`` reads, over the
    threshold sets U and the minimal vertex covers C of G - U, are the
    supports of the reference's components, and the oracle's verdict is
    theirs: on every filling with <= 5 boxes and w <= 3."""
    for t in small_fillings():
        g = from_shape(t.shape, t.rows)
        adj = _adjacency(g)
        I = weighted_edge_ideal(g)
        primes = {frozenset(v for k, v in enumerate(I.variables) if (u | c) >> k & 1)
                  for u in _threshold_u_sets(g)
                  for c in _minimal_covers(_restrict(adj, ~u))}
        supports = reference_primes(I)
        assert primes == supports, t.to_dict()
        assert is_unmixed_ideal(g) == (len({len(p) for p in supports}) == 1), t.to_dict()


def test_unmixed_oracle_matches_reference():
    """``is_unmixed_ideal(g)`` is True iff the components of the reference
    decomposition of I(G,w) have one support size.  On every filling graph
    with <= 5 boxes and w <= 2 and with <= 4 boxes and w <= 3, on the random
    graphs, triangles and isolated vertices included, since the route holds
    for any graph, and on the empty and an edgeless graph, whose zero ideal
    is unmixed.  In 58, 104 and 223 of them G's minimal covers have one size
    while I(G,w) is mixed, so an oracle that checks U = {} alone fails."""
    randoms = list(random_graphs())
    assert sum(not all(_adjacency(g)) for g in randoms) == 1067  # isolated vertices
    for graphs, count, pure_but_mixed in ((filling_graphs(5, 2), 826, 58),
                                          (filling_graphs(4, 3), 858, 104),
                                          (randoms, 3000, 223)):
        assert len(graphs) == count
        seen = 0
        for g in graphs:
            want = unmixed_reference(weighted_edge_ideal(g))
            assert is_unmixed_ideal(g) == want, g
            seen += _cover_size(_adjacency(g)) is not None and not want
        assert seen == pure_but_mixed
    assert is_unmixed_ideal(WeightedGraph(0, ()))
    assert is_unmixed_ideal(WeightedGraph(2, ()))


def test_scm_weighted_oracle_examples():
    assert is_scm_weighted_oracle(wgraph({("x1", "y1"): 5}))
    k22 = wgraph({("x1", "y1"): 1, ("x1", "y2"): 1, ("x2", "y1"): 1, ("x2", "y2"): 1})
    assert not is_scm_weighted_oracle(k22)
    with pytest.raises(ValueError):
        is_scm_weighted_oracle(wgraph({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}))


def random_all_ones_graphs():
    """Seeded random bipartite graphs with every weight 1: x's 0..n-1 and
    y's n..n+m-1, each x-y pair an edge with probability 0.4, and an
    isolated vertex on each side."""
    rng = random.Random(20261020)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        edges = tuple((i, n + 1 + j, 1) for i in range(n) for j in range(m)
                      if rng.random() < 0.4)
        yield WeightedGraph(n + m + 2, edges)


def test_all_ones_exits_match_threshold_walk():
    """When every weight is 1 the unmixed oracle decides by ``_cover_size``
    and the SCM oracle by ``_vd`` of G alone, as their docstrings prove; here
    both equal the full threshold-set walk, with no exit: on the 400
    shapes with <= 6 boxes, disconnected ones included, and on 300 random
    bipartite graphs with isolated vertices (edgeless ones included).  Each
    verdict takes both values on each set, so an exit that returns a
    constant fails."""
    clear_caches()
    shapes = list(shapes_up_to(6))
    randoms = list(random_all_ones_graphs())
    assert len(shapes) == 400
    for graphs in ([from_shape(s) for s in shapes], randoms):
        verdicts = set()
        for g in graphs:
            unmixed, scm = unmixed_walk_reference(g), scm_walk_reference(g)
            assert is_unmixed_ideal(g) == unmixed, g
            assert is_scm_weighted_oracle(g) == scm, g
            verdicts.add((unmixed, scm))
        assert {u for u, _ in verdicts} == {s for _, s in verdicts} == {False, True}


def test_scm_oracle_memo_is_faithful():
    """One memo of VD(G - U) per adjacency and threshold set U, and one of
    the minimal covers' size per connected component, for a whole pass
    walked forward or backward, give every weighted graph the SCM and the
    unmixed verdict it gets from cold memos: the 5,718 connected fillings
    with <= 5 boxes, w <= 3, and 300 seeded random bipartite graphs with
    weights 1..3 and an isolated vertex on each side.  The VD memo holds
    only booleans, the cover memo only ints and None, and
    ``graphs.clear_caches`` empties both."""
    rng = random.Random(20261021)
    instances = [from_shape(s, t.rows) for s in shapes_up_to(5, connected_only=True)
                 for t in enumerate_fillings(s, 3)]
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        instances.append(WeightedGraph(n + m + 2, tuple(
            (i, n + 1 + j, rng.randint(1, 3)) for i in range(n) for j in range(m)
            if rng.random() < 0.5)))
    vd_memo, cover_memo = graphs._vd_minus_cache, graphs._cover_cache
    for oracle, memo, entries, types in (
            (is_scm_weighted_oracle, vd_memo,
             lambda: [vd for per in vd_memo.values() for vd in per.values()], {bool}),
            (is_unmixed_ideal, cover_memo, cover_memo.values, {int, type(None)})):
        cold = []
        for g in instances:
            clear_caches()
            cold.append(oracle(g))
        assert set(cold[:5718]) == set(cold[5718:]) == {False, True}, oracle
        for order in (1, -1):
            clear_caches()
            warm = [oracle(g) for g in instances[::order]]
            assert warm[::order] == cold, oracle
            assert memo and {type(v) for v in entries()} <= types, oracle
            clear_caches()
            assert not memo


@pytest.mark.parametrize("weights", [1, 2])
def test_scm_oracle_rejects_odd_cycles(weights):
    """The triangle and the 5-cycle are not bipartite, with every weight 1
    or with weights 1 and 2 mixed, so the oracle raises; the 4-cycle and
    the 6-cycle are, alone or beside an isolated vertex, and get a verdict:
    not SCM, as G - U = G for U = {} is a 4- or 6-cycle, and of the cycles
    only C_3 and C_5 are SCM (Francisco-Van Tuyl 2007)."""
    def cycle(length, nverts):
        return WeightedGraph(nverts, tuple(
            (k, (k + 1) % length, 1 if k % 2 or weights == 1 else weights)
            for k in range(length)))

    for length in (3, 5):
        with pytest.raises(ValueError, match="not bipartite"):
            is_scm_weighted_oracle(cycle(length, length))
    for length in (4, 6):
        for nverts in (length, length + 1):
            assert is_scm_weighted_oracle(cycle(length, nverts)) is False
