import random
import sys
import time

from skewtab import (SkewShape, WeightedGraph, from_shape, is_buchsbaum_graph,
                     is_scm_weighted_oracle, is_unmixed_ideal)
from skewtab import graphs
from skewtab.graphs import (_adjacency, _cover_size, _is_shedding, _minimal_covers, _vd,
                            clear_caches)
from skewtab.ideals import _bipartition

from helpers import (_minimal_cover_masks, _restrict, brute_minimal_covers,
                     is_shedding_reference, shapes_up_to, vd_reference)


def bipartite(n, m, edges):
    """The graph with every weight 1 on x_1..x_n and y_1..y_m (vertices 0..n-1
    and n..n+m-1) with an edge x_i y_j per pair (i, j) of ``edges``."""
    return WeightedGraph(n + m, tuple(sorted((i - 1, n + j - 1, 1) for i, j in edges)))


def complete_bipartite(n, m):
    return bipartite(n, m, ((i, j) for i in range(1, n + 1) for j in range(1, m + 1)))


def covers(g):
    """The minimal vertex covers that the unmixedness oracle draws, as
    bitmasks: bit i-1 is x_i and bit n+j-1 is y_j."""
    return set(_minimal_covers(_adjacency(g)))


def test_from_shape_edges():
    # x1, x2, y1, y2 are the vertices 0..3; boxes (1,1), (1,2), (2,1)
    assert from_shape(SkewShape((2, 1))).edges == ((0, 2, 1), (0, 3, 1), (1, 2, 1))
    assert from_shape(SkewShape((2, 2))) == complete_bipartite(2, 2)
    # edge count equals box count
    s = SkewShape((5, 4, 4), (2, 1, 0))
    assert len(from_shape(s).edges) == len(s.boxes()) == 10


def test_minimal_vertex_covers_examples():
    # {x1, x2} and {y1, y2}
    assert covers(complete_bipartite(2, 2)) == {0b0011, 0b1100}
    # {x1} and {y1, y2}
    star = bipartite(1, 2, {(1, 1), (1, 2)})
    assert covers(star) == {0b001, 0b110}
    sizes = {c.bit_count() for c in covers(from_shape(SkewShape((3, 2))))}
    assert sizes == {2, 3}


def test_minimal_vertex_covers_vs_brute_force():
    for s in shapes_up_to(6):
        assert covers(from_shape(s)) == brute_minimal_covers(s), s


def _assert_covers_match_reference(adj):
    covers = list(_minimal_covers(adj))
    assert len(covers) == len(set(covers))  # each cover yielded once
    assert set(covers) == set(_minimal_cover_masks(adj))


def test_minimal_covers_match_reference_on_shapes():
    count = 0
    for s in shapes_up_to(8):  # disconnected shapes included
        _assert_covers_match_reference(_adjacency(from_shape(s)))
        count += 1
    assert count == 3909


def test_minimal_covers_match_reference_with_isolated_vertices():
    """Seeded bipartite graphs with isolated vertices, then the seeded
    disjoint unions, which have isolated vertices too and more than 100 of
    which are not bipartite."""
    rng = random.Random(20090101)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        edges = frozenset((i, j) for i in range(1, n + 1) for j in range(1, m + 1)
                          if rng.random() < 0.4)
        # x_{n+1} and y_{m+1} are isolated, and so may be others
        adj = _adjacency(bipartite(n + 1, m + 1, edges))
        _assert_covers_match_reference(adj)
    unions = disjoint_unions(1980, 400)
    assert sum(not is_bipartite(adj) for adj, _, _ in unions) > 100
    assert any(not all(adj) for adj, _, _ in unions)
    for adj, _, _ in unions:
        _assert_covers_match_reference(adj)


def test_edgeless_graph_has_only_the_empty_cover():
    edgeless = WeightedGraph(5, ())
    assert list(_minimal_covers(_adjacency(edgeless))) == [0]
    assert is_unmixed_ideal(edgeless)


def test_deep_star_covers_without_recursion():
    """K_{1,2000} needs a 2,000-deep branch; the enumeration keeps its own
    stack, so the default recursion limit is enough."""
    assert sys.getrecursionlimit() <= 1000
    leaves = ((1 << 2000) - 1) << 1  # y_1..y_2000
    star = bipartite(1, 2000, ((1, j) for j in range(1, 2001)))
    start = time.perf_counter()
    assert covers(star) == {0b1, leaves}
    assert not is_unmixed_ideal(star)
    assert time.perf_counter() - start < 2.0


def test_shedding_test_matches_cover_based_check():
    """Every (graph, vertex) pair of the shapes with <= 8 boxes."""
    pairs = 0
    for s in shapes_up_to(8):
        adj = _adjacency(from_shape(s))
        for v in range(len(adj)):
            assert _is_shedding(adj, v) == is_shedding_reference(adj, v), (s, v)
            pairs += 1
    assert pairs == 40448


def test_shedding_test_matches_cover_based_check_off_bipartite():
    """On bipartite graphs every distance-2 set is independent, so only
    graphs with odd cycles exercise the search's independence check."""
    rng = random.Random(2009)
    for _ in range(400):
        nverts = rng.randint(3, 8)
        adj = [0] * nverts
        for a in range(nverts):
            for b in range(a + 1, nverts):
                if rng.random() < 0.4:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        adj = tuple(adj)
        for v in range(nverts):
            if adj[v]:
                assert _is_shedding(adj, v) == is_shedding_reference(adj, v), (adj, v)


def test_vd_matches_reference():
    clear_caches()
    cache = {}
    for s in shapes_up_to(8):
        adj = _adjacency(from_shape(s))
        assert _vd(adj) == vd_reference(adj, cache), s


def random_connected_graph(rng, nverts, bipartite):
    """Adjacency bitmasks of a seeded random connected graph: a random tree
    plus extra edges, only between the tree's two colour classes when
    ``bipartite``."""
    adj = [0] * nverts
    colour = [0] * nverts
    for v in range(1, nverts):
        u = rng.randrange(v)
        colour[v] = 1 - colour[u]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for u in range(nverts):
        for v in range(u + 1, nverts):
            if rng.random() < 0.3 and (not bipartite or colour[u] != colour[v]):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def disjoint_unions(seed, count):
    """(adjacency, pieces, in order) of ``count`` disjoint unions of 1-3
    seeded random connected graphs of 2-5 vertices, half of them drawn with
    no bipartite constraint, and an isolated vertex before some pieces.
    Odd unions take the pieces as consecutive vertex blocks, in order; even
    ones scatter every vertex to a random label, so the components
    interleave."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        pieces = [random_connected_graph(rng, rng.randint(2, 5), rng.random() < 0.5)
                  for _ in range(rng.randint(1, 3))]
        blocks = []  # each piece's vertex labels before the scatter
        nverts = 0
        for piece in pieces:
            nverts += rng.randint(0, 1)  # an isolated vertex before it
            blocks.append(range(nverts, nverts + len(piece)))
            nverts += len(piece)
        label = list(range(nverts))
        if k % 2 == 0:
            rng.shuffle(label)
        adj = [0] * nverts
        for piece, block in zip(pieces, blocks):
            for v, mask in zip(block, piece):
                adj[label[v]] = sum(1 << label[block[w]] for w in range(len(piece))
                                    if mask >> w & 1)
        out.append((tuple(adj), pieces, k % 2 == 1))
    return out


def is_bipartite(adj):
    try:
        _bipartition(adj)
    except ValueError:
        return False
    return True


def cover_size_reference(adj):
    """The one size of the minimal vertex covers of the whole graph, from
    the edge-branching reference, or None when they have two sizes."""
    sizes = {c.bit_count() for c in _minimal_cover_masks(adj)}
    return sizes.pop() if len(sizes) == 1 else None


def test_split_oracles_match_whole_graph_references():
    """``_vd`` and ``_cover_size`` decide a graph one connected component at
    a time and memoize each component; ``vd_reference`` and the cover sizes
    of ``_minimal_cover_masks`` search the whole graph, unsplit.  They agree
    on disjoint unions of random graphs from cold memos, then with the memos
    warm, walked forward and backward, and on induced subgraphs on random
    vertex masks, cold and warm.  The last component alone decides some of
    the unions with the blocks in order, so a split that lost a component
    would fail here, and some pure unions have two pure components with
    edges, whose sizes add, so a split that took the largest size would
    fail too."""
    unions = disjoint_unions(1980, 400)
    assert sum(not all(adj) for adj, _, _ in unions) > 100  # isolated vertices
    assert sum(not is_bipartite(adj) for adj, _, _ in unions) > 100
    cache = {}
    want = [(vd_reference(adj, cache), cover_size_reference(adj)) for adj, _, _ in unions]
    assert 0 < sum(vd for vd, _ in want) < len(want)
    assert 0 < sum(size is None for _, size in want) < len(want)
    last_only = [0, 0]  # unions in block order decided by their last component
    summed = 0  # pure unions of two or more components
    for (adj, pieces, in_order), (vd, size) in zip(unions, want):
        head = [(vd_reference(tuple(p), cache), cover_size_reference(tuple(p))) for p in pieces]
        if in_order and len(pieces) > 1:
            last_only[0] += all(v for v, _ in head[:-1]) and not vd
            last_only[1] += all(s is not None for _, s in head[:-1]) and size is None
        summed += len(pieces) > 1 and size is not None
        assert size == (None if None in (s for _, s in head) else sum(s for _, s in head))
    assert min(last_only) > 0 and summed > 0, (last_only, summed)

    for (adj, _, _), verdicts in zip(unions, want):  # each from a cold memo
        clear_caches()
        assert (_vd(adj), _cover_size(adj)) == verdicts, adj
    clear_caches()
    for walk in (range(len(unions)), reversed(range(len(unions)))):
        for k in walk:
            adj = unions[k][0]
            assert (_vd(adj), _cover_size(adj)) == want[k], adj
    rng = random.Random(1981)
    masks = [(adj, rng.getrandbits(len(adj))) for adj, _, _ in unions]
    sizes = [cover_size_reference(_restrict(adj, keep)) for adj, keep in masks]
    assert 0 < sum(size is None for size in sizes) < len(sizes)
    for (adj, keep), size in zip(masks, sizes):  # each from a cold memo
        clear_caches()
        assert _cover_size(adj, keep) == size, (adj, keep)
    for (adj, keep), size in zip(masks, sizes):  # the memos warm
        assert _vd(adj, keep) == vd_reference(_restrict(adj, keep), cache), (adj, keep)
        assert _cover_size(adj, keep) == size, (adj, keep)

    assert is_scm_weighted_oracle(WeightedGraph(2, ((0, 1, 2),)))  # fills the G - U memo
    assert graphs._vd_cache and graphs._cover_cache and graphs._vd_minus_cache
    clear_caches()
    assert not graphs._vd_cache and not graphs._cover_cache and not graphs._vd_minus_cache


def test_vd_of_a_deep_ribbon_under_the_default_recursion_limit():
    """``_vd`` recurses one frame per level, split included, so the graph of
    a 150-row width-2 ribbon (301 vertices) decides at the default limit."""
    assert sys.getrecursionlimit() <= 1000
    clear_caches()
    ribbon = SkewShape(tuple(range(151, 1, -1)), tuple(range(149, -1, -1)))
    assert is_scm_weighted_oracle(from_shape(ribbon))


def test_is_unmixed_graph():
    assert is_unmixed_ideal(complete_bipartite(2, 2))
    assert not is_unmixed_ideal(from_shape(SkewShape((3, 2))))
    assert is_unmixed_ideal(from_shape(SkewShape((6, 6, 6, 6, 2, 2), (5, 4, 1, 1, 1, 0))))


def test_vertex_decomposable_examples():
    assert not is_scm_weighted_oracle(complete_bipartite(2, 2))
    assert is_scm_weighted_oracle(WeightedGraph(5, ()))
    assert is_scm_weighted_oracle(from_shape(SkewShape((3, 3, 2, 1))))


def test_complete_bipartite_never_vd():
    for n in range(2, 5):
        for m in range(2, 5):
            assert not is_scm_weighted_oracle(complete_bipartite(n, m))


def test_vd_conjugation_invariance():
    for s in shapes_up_to(7, connected_only=True):
        assert (is_scm_weighted_oracle(from_shape(s))
                == is_scm_weighted_oracle(from_shape(s.conjugate())))


def test_disjoint_union_properties():
    pieces = [SkewShape((2, 2)), SkewShape((2, 1)), SkewShape((3, 2)), SkewShape((2,))]
    for a in pieces:
        for b in pieces:
            ga, gb = from_shape(a), from_shape(b)
            k = ga.nverts  # gb's vertices follow ga's
            union = WeightedGraph(k + gb.nverts,
                                  ga.edges + tuple((u + k, v + k, w) for u, v, w in gb.edges))
            assert is_scm_weighted_oracle(union) == (
                is_scm_weighted_oracle(ga) and is_scm_weighted_oracle(gb))
            sizes_a = {c.bit_count() for c in covers(ga)}
            sizes_b = {c.bit_count() for c in covers(gb)}
            assert is_unmixed_ideal(union) == (len(sizes_a) == 1 and len(sizes_b) == 1)


def test_is_buchsbaum_graph_examples():
    """Buchsbaum iff pure with CM vertex links: K_{2,2} is, two disjoint
    copies or a copy beside an edge are not (their rings are not CM), and a
    path on four vertices is CM; (3,2) is not even unmixed."""
    assert is_buchsbaum_graph(complete_bipartite(2, 2))
    assert is_buchsbaum_graph(bipartite(2, 2, {(1, 1), (1, 2), (2, 2)}))
    for lam, mu in (((4, 4, 2, 2), (2, 2, 0, 0)), ((3, 3, 1), (1, 1, 0)), ((3, 2), (0, 0))):
        assert not is_buchsbaum_graph(from_shape(SkewShape(lam, mu))), (lam, mu)
