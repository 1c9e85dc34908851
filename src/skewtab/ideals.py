"""Weighted edge ideals: the threshold sets of their associated radicals
and the unmixed and SCM brute-force oracles.

Every instance is a ``graphs.WeightedGraph``, a bare shape being its
all-ones filling, and I(G,w) is generated by the (x_u x_v)^w over its
edges.  No oracle builds an ideal: both read G's neighbour bitmasks and the
threshold sets below.  When every weight is 1, I(G) is squarefree and both
oracles decide on G alone, without the threshold sets.

Each associated radical of I(G,w) is I(G - U) + (x_i | i in U) for a
threshold set U, and ``_threshold_u_sets`` finds the sets U, as vertex
bitmasks, by a search over the vertices.  A vertex v with exponent a_v
dominates its edges of weight <= a_v; x^a lies in I(G,w) iff some edge is
dominated from both ends, and otherwise U is the union of the dominated
neighbourhoods.  So the search carries, per vertex not yet placed, a cap:
the least weight of its edges already dominated from the other end, below
which its exponent must stay.  The oracles mask the adjacency by each U to
get G - U: the SCM oracle asks that every G - U be vertex decomposable
(memoized per adjacency and U), the unmixed oracle that |U| + |C| be one
number over the minimal vertex covers C of every G - U, whose one size
``graphs._cover_size`` reads per connected component.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import WeightedGraph, _adjacency, _cover_size, _vd, _vd_minus_cache


def _threshold_u_sets(g: WeightedGraph) -> Iterator[int]:
    """The vertex sets U with sqrt(I(G,w) : x^a) = I(G\\U) + (x_i | i in U),
    as vertex bitmasks, each yielded once.

    Say that v, with exponent a_v, dominates its edges of weight <= a_v.
    x^a lies in I(G,w) iff some edge is dominated from both ends.  For x^a
    outside the ideal, U is the set of vertices u with an edge uv of weight
    w <= a_v and a_u < w; as uv is not dominated from both ends, a_v >= w
    already forces a_u < w, so U is the union of the dominated
    neighbourhoods.  Exponents only matter through these comparisons, so
    a_v ranges over 0 and the weights at v.

    The search places the vertices in index order.  A state is the U mask
    so far and a cap per vertex not yet placed: the least weight of its
    edges that a placed neighbour dominates.  A vertex takes only the
    exponents below its cap (else an edge is dominated from both ends), so
    every state comes from some x^a outside the ideal, and every such a is
    reached.  Dominating an edge to a later vertex lowers that vertex's cap
    to the edge's weight.  States are deduplicated after each vertex, as
    equal states have equal completions.
    """
    n = g.nverts
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for iu, iv, w in g.edges:
        nbrs[iu].append((w, iv))
        nbrs[iv].append((w, iu))
    free = max((w for _, _, w in g.edges), default=0) + 1  # above every weight: no cap
    states: dict[tuple[int, tuple[int, ...]], None] = {(0, (free,) * n): None}
    for v in range(n):
        # per exponent c of v: the neighbours it dominates, and the caps it
        # lowers as (position among the later vertices, weight); built in
        # one pass over the neighbours by weight, closing an option per weight
        options = [(0, 0, ())]
        reach = 0
        drops: list[tuple[int, int]] = []
        nb = sorted(nbrs[v])
        for k, (w, z) in enumerate(nb):
            reach |= 1 << z
            if z > v:
                drops.append((z - v - 1, w))
            if k + 1 == len(nb) or nb[k + 1][0] != w:
                options.append((w, reach, tuple(drops)))
        nxt: dict[tuple[int, tuple[int, ...]], None] = {}
        for u_mask, caps in states:
            cap, rest = caps[0], caps[1:]
            for c, dominated, lowered in options:
                if c >= cap:
                    break
                if lowered:
                    new = list(rest)
                    for k, w in lowered:
                        if w < new[k]:
                            new[k] = w
                    nxt[(u_mask | dominated, tuple(new))] = None
                else:
                    nxt[(u_mask | dominated, rest)] = None
        states = nxt
    for u_mask, _ in states:
        yield u_mask


# -- weighted oracles -----------------------------------------------------------


def is_unmixed_ideal(g: WeightedGraph) -> bool:
    """True iff all associated primes of I = I(G,w) have one size.

    Dimensions are taken over all of G's variables, so comparing prime sizes
    is comparing dimensions.  The primes come from the threshold sets.  For
    any f, multiplication by f gives R/(I : f) = (fR + I)/I inside R/I, so
    Min(I : f) lies in Ass(R/(I : f)), which lies in Ass(I).  Conversely
    every P in Ass(I) is (I : f) for some f, a monomial f as I is monomial,
    and then P is in Min(I : f).  So Ass(I) is the union of the Min(I : x^a)
    over the x^a outside I.  Min(I : x^a) is Min(sqrt(I : x^a)) =
    Min(I(G - U) + (x_U)), the primes (x_U) + (x_C) over the minimal vertex
    covers C of G - U.  So I is unmixed iff |U| + |C| is one number over
    every threshold set U and every such C.

    U = {} gives Min(I), the minimal covers of G, so they fix that number,
    and a G whose minimal covers have two sizes is mixed at once; so is a
    G - U whose covers have two sizes.  When every weight is 1, as for a
    bare shape, I = I(G) is squarefree, hence radical, so Ass(I) = Min(I)
    and G's covers alone decide.  An edgeless G, the empty filling's
    included, gives the zero ideal, whose one prime is (0): unmixed.
    """
    adj = _adjacency(g)
    size = _cover_size(adj)
    if size is None or all(w == 1 for _, _, w in g.edges):
        return size is not None
    return all(_cover_size(adj, ~u) == size - u.bit_count() for u in _threshold_u_sets(g))


def _bipartition(adj: tuple[int, ...]) -> None:
    """Raise unless the graph is bipartite (2-colorable).

    Each component is walked in breadth-first layers from its lowest
    vertex; the layers alternate in colour, and an edge inside a layer is
    an odd cycle.
    """
    unseen = (1 << len(adj)) - 1
    while unseen:
        layer = unseen & -unseen
        while layer:
            unseen &= ~layer
            nxt = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                nxt |= adj[low.bit_length() - 1]
            if nxt & layer:
                raise ValueError("graph is not bipartite")
            layer = nxt & unseen


def is_scm_weighted_oracle(g: WeightedGraph) -> bool:
    """Sequentially Cohen-Macaulay test for a bipartite edge-weighted graph.

    Every associated radical of I(G,w) is the edge ideal of an induced
    subgraph plus variables; the ideal is SCM iff each of those induced
    subgraphs is vertex decomposable.  G - U is G's adjacency masked by U.

    When every weight is 1, as for a bare shape, x^a lies outside I(G)
    exactly when the support S of a is independent, and then U = N(S).  In
    G - N(S) the vertices of S are isolated and the rest is G - N[S], so
    Ind(G - N(S)) is the link of S in Ind(G) coned over S.  U = {} gives G
    itself, and links of a vertex decomposable complex are vertex
    decomposable (Provan-Billera 1980), as are cones over them, so ``_vd``
    of G alone decides.

    Otherwise each verdict VD(G - U) is memoized on G's adjacency, then U
    (``graphs._vd_minus_cache``), which is sound as G - U is a function of
    the two.  The fillings of one shape share an adjacency, and their
    threshold sets repeat, so a hit skips building G - U at all.
    """
    adj = _adjacency(g)
    _bipartition(adj)
    if all(w == 1 for _, _, w in g.edges):
        return _vd(adj)
    memo = _vd_minus_cache.setdefault(adj, {})
    for u_mask in _threshold_u_sets(g):
        vd = memo.get(u_mask)
        if vd is None:
            vd = memo[u_mask] = _vd(adj, ~u_mask)
        if not vd:
            return False
    return True
