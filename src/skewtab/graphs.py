"""Graphs of skew shapes and fillings, and the squarefree brute-force searches.

A ``WeightedGraph`` is a graph on the vertices 0..nverts-1 with a positive
integer weight on every edge.  ``from_shape`` builds the one of a shape or a
filling: box (i, j) is the edge x_i y_j, with x_i the vertex i-1 and y_j the
vertex n+j-1, weighted by the filling or by 1; a bare shape is its all-ones
filling.  Everything else reads the neighbour bitmasks of ``_adjacency``.

Both searches decide a graph one connected component at a time: the
minimal covers of a disjoint union have one size iff each part's do, the
sizes adding, and it is vertex decomposable iff each part is (proofs in
``_cover_size`` and ``_vd``).  ``_components`` finds the components with
an edge in one bitmask pass and relabels each densely, which makes it the
memo key.

``_cover_size`` returns the one size of the minimal vertex covers, or None
for two, stopping at the first cover of a second size that the generator
``_minimal_covers`` draws.  Minimal covers are the complements of maximal
independent sets, enumerated once each by Bron-Kerbosch with a pivot on an
explicit stack.  ``_vd`` decides vertex decomposability by the definition;
a shedding vertex v is recognised by a short search for an independent set
at distance 2 from v that dominates N(v) (Woodroofe 2009), not by
enumerating covers.  ``_cover_cache`` and ``_vd_cache`` memoize them per
component, and ``_vd_minus_cache`` memoizes ``_vd`` on an adjacency and a
removed vertex mask U, for the SCM oracle's many G - U; ``clear_caches``
empties all three.  The unmixed and SCM oracles of :mod:`skewtab.ideals`
rest on both searches, and ``is_buchsbaum_graph``, the
Buchsbaum/generalized CM oracle of a bare shape, runs both on every vertex
link.  Everything here is definitional and independent of the combinatorial
classifiers, so the two routes can referee each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .shapes import Rows, SkewShape


@dataclass(frozen=True)
class WeightedGraph:
    """Simple graph on the vertices 0..nverts-1 with a positive integer
    weight on every edge.

    Built unchecked: ``from_shape`` makes one edge per box of a validated
    shape or filling, so there are no loops and no repeated pairs.
    """

    nverts: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight)


def from_shape(s: SkewShape, rows: Rows = None) -> WeightedGraph:
    """Skew Ferrers graph of a shape, or of its filling with weight rows
    ``rows``: box (i, j) is the edge (i-1, n+j-1) of weight rows[i-1][k] for
    the box's position k in its row, or 1 when ``rows`` is None.  The edges
    come in row-major box order, which is their sorted order."""
    n = s.n
    return WeightedGraph(n + s.m, tuple(
        (i, n + j, 1 if rows is None else rows[i][j - s.mu[i]])
        for i in range(n) for j in range(s.mu[i], s.lam[i])))


# -- bitmask core ----------------------------------------------------------


def _adjacency(g: WeightedGraph) -> tuple[int, ...]:
    """Neighbour bitmasks of G, weights dropped."""
    adj = [0] * g.nverts
    for u, v, _ in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _minimal_covers(adj: tuple[int, ...]) -> Iterator[int]:
    """Yield every inclusion-minimal vertex cover exactly once, as a bitmask.

    A minimal cover is the complement, within the non-isolated vertices, of
    a maximal independent set; those sets are enumerated by Bron-Kerbosch
    with a pivot on an explicit stack.  A frame holds the independent set R,
    the candidates P (vertices outside N[R]) and the excluded vertices X
    (candidates that an earlier sibling branch already added).  R is
    maximal, and met for the first time, exactly when P and X are empty.
    Every maximal extension of R meets N[u] for any u in P | X, so a frame
    branches only over P & N[u] for the pivot u minimising that set.
    """
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    live = sum(1 << v for v, a in enumerate(adj) if a)
    stack = [(0, live, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield live & ~r
            continue
        branch = p
        best = p.bit_count()
        rest = p | x
        while rest and best > 1:
            low = rest & -rest
            rest ^= low
            hits = closed[low.bit_length() - 1] & p
            if hits.bit_count() < best:
                branch, best = hits, hits.bit_count()
        while branch:
            low = branch & -branch
            branch ^= low
            nv = closed[low.bit_length() - 1]
            stack.append((r | low, p & ~nv, x & ~nv))
            p ^= low
            x |= low


def _is_shedding(adj: tuple[int, ...], v: int) -> bool:
    """Whether v is a shedding vertex of Ind(G) (Woodroofe 2009).

    v is shedding iff no face of lk(v) = Ind(G - N[v]) is a facet of
    del(v) = Ind(G - v).  A maximal independent set S of G - N[v] is
    such a facet exactly when every w in N(v) has a neighbour in S, since
    the rest of G - v is dominated by S already.  An independent set T of
    G - N[v] that meets N(w) for every w in N(v) extends to a maximal one
    that still does.  So v is shedding iff no independent T meets every
    N(w) - N[v], w in N(v); only vertices at distance 2 from v matter.

    The search branches over the candidates in N(w) - N[v] for the first w
    not yet hit, drops candidates adjacent to T, and stops at the first
    witness.  A candidate tried in one branch is excluded from its later
    siblings, so no T is visited twice.  On a bipartite graph the targets
    lie on v's side, so the search never backtracks.
    """
    closed_v = adj[v] | (1 << v)
    targets = []
    avail = 0
    nb = adj[v]
    while nb:
        low = nb & -nb
        nb ^= low
        target = adj[low.bit_length() - 1] & ~closed_v
        if not target:
            return True  # this neighbour can never be dominated
        targets.append(target)
        avail |= target
    stack = [(0, avail)]
    while stack:
        t, avail = stack.pop()
        branch = next((target for target in targets if not target & t), None)
        if branch is None:
            return False  # witness: T meets every N(w)
        branch &= avail
        while branch:
            low = branch & -branch
            branch ^= low
            stack.append((t | low, avail & ~(adj[low.bit_length() - 1] | low)))
            avail ^= low
    return True


def _components(adj: tuple[int, ...], keep: int = -1) -> list[tuple[int, ...]]:
    """The connected components with an edge of the subgraph induced on the
    vertex mask ``keep``, each densely relabelled, in the order of their
    lowest vertices; isolated vertices are dropped.

    A component grows from its lowest unseen vertex by breadth-first layers
    of neighbour masks.  It is relabelled run by run: a maximal run of
    consecutive vertices in it keeps its order, so a neighbour mask maps
    to the new labels by one shift per run.
    """
    parts = []
    unseen = keep & ((1 << len(adj)) - 1)
    while unseen:
        low = unseen & -unseen
        unseen ^= low
        layer = adj[low.bit_length() - 1] & unseen
        if not layer:
            continue  # isolated
        comp = low
        while layer:
            comp |= layer
            unseen &= ~layer
            nxt = 0
            while layer:
                bit = layer & -layer
                layer ^= bit
                nxt |= adj[bit.bit_length() - 1]
            layer = nxt & unseen
        runs = []  # per run: its first vertex, a mask of its length, its first new label
        rest, width = comp, 0
        while rest:
            first = (rest & -rest).bit_length() - 1
            tail = rest >> first
            ones = tail ^ (tail & (tail + 1))
            runs.append((first, ones, width))
            width += ones.bit_length()
            rest ^= ones << first
        key = []
        for start, span, _ in runs:
            for a in adj[start:start + span.bit_length()]:
                a &= comp
                mask = 0
                for first, ones, at in runs:
                    mask |= (a >> first & ones) << at
                key.append(mask)
        parts.append(tuple(key))
    return parts


# component -> its _vd verdict, and its _cover_size (an int, or None)
_vd_cache: dict[tuple[int, ...], bool] = {}
_cover_cache: dict[tuple[int, ...], int | None] = {}
# adjacency -> U bitmask -> _vd(adj, ~U)
_vd_minus_cache: dict[tuple[int, ...], dict[int, bool]] = {}


def _vd(adj: tuple[int, ...], keep: int = -1) -> bool:
    """Vertex decomposability of the subgraph induced on ``keep``, by the
    definition, memoized per connected component.

    Isolated vertices are immaterial: the independence complex is a cone
    over them.  The independence complex of a disjoint union is the join
    of its parts' complexes, and a join is vertex decomposable iff each
    factor is (Provan-Billera 1980).  So a graph is vertex decomposable iff
    each component with an edge is, and ``_vd_cache`` is keyed on those
    components as ``_components`` relabels them.  A component is decided
    by a shedding vertex v with G - v and G - N[v] vertex decomposable,
    both of which split again.  The search recurses through this one
    function, one frame per level.
    """
    for key in _components(adj, keep):
        hit = _vd_cache.get(key)
        if hit is None:
            hit = False
            for v in range(len(key)):
                if (_is_shedding(key, v) and _vd(key, ~(1 << v))
                        and _vd(key, ~(key[v] | 1 << v))):
                    hit = True
                    break
            _vd_cache[key] = hit
        if not hit:
            return False
    return True


def clear_caches() -> None:
    _vd_cache.clear()
    _cover_cache.clear()
    _vd_minus_cache.clear()


# -- public oracle surface --------------------------------------------------


def _cover_size(adj: tuple[int, ...], keep: int = -1) -> int | None:
    """The one size of the minimal vertex covers of the subgraph induced on
    ``keep``, or None when they have two sizes (Ind(G) is not pure),
    memoized per connected component.

    The minimal covers of a disjoint union are the unions of one minimal
    cover per part: a set covers the union iff its trace on each part covers
    that part, and it is minimal iff each trace is.  So their sizes are the
    sums of one size per part, and the union's covers have one size iff
    each part's do, that size the sum.  Isolated vertices lie in no minimal
    cover.  A component's size is that of the first cover drawn from
    ``_minimal_covers``; the walk stops at a second size.  A component has
    an edge, so no size is 0, and 0 marks a miss in ``_cover_cache``.
    """
    total = 0
    for key in _components(adj, keep):
        size = _cover_cache.get(key, 0)
        if size == 0:
            covers = _minimal_covers(key)
            size = next(covers).bit_count()
            if any(c.bit_count() != size for c in covers):
                size = None
            _cover_cache[key] = size
        if size is None:
            return None
        total += size
    return total


def is_buchsbaum_graph(g: WeightedGraph) -> bool:
    """Whether S/I(G) is Buchsbaum, which for a squarefree ideal is the same
    as generalized Cohen-Macaulay; the weights are not read, so this is the
    oracle of a bare shape.

    Schenzel (1981): a Stanley-Reisner ring is Buchsbaum iff its complex is
    pure and the link of every vertex is CM.  In Ind(G) the link of v is
    Ind(G - N[v]), pure when Ind(G) is, and a pure bipartite graph is CM iff
    it is vertex decomposable (Van Tuyl-Villarreal 2008).
    """
    adj = _adjacency(g)
    return _cover_size(adj) is not None and all(
        _vd(adj, ~(adj[v] | 1 << v)) for v in range(len(adj)))
