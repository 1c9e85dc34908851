"""Graphs of skew shapes and fillings, and the squarefree brute-force searches.

A ``WeightedGraph`` is a graph on the vertices 0..nverts-1 with a positive
integer weight on every edge.  ``from_shape`` builds the one of a shape or a
filling: box (i, j) is the edge x_i y_j, with x_i the vertex i-1 and y_j the
vertex n+j-1, weighted by the filling or by 1; a bare shape is its all-ones
filling.  Everything else reads the neighbour bitmasks of ``_adjacency``.

``_pure`` checks that all minimal vertex covers have one size, drawing them
from the generator ``_minimal_covers`` and stopping at the first cover of a
second size.  Minimal covers are the complements of maximal independent
sets, enumerated once each by Bron-Kerbosch with a pivot on an explicit
stack.  ``_vd`` decides vertex decomposability by the definition; a
shedding vertex v is recognised by a short search for an independent set at
distance 2 from v that dominates N(v) (Woodroofe 2009), not by enumerating
covers.  ``_vd_cache`` memoizes it on the relabelled graph, and
``_vd_minus_cache`` on an adjacency and a removed vertex mask U, for the
SCM oracle's many G - U; ``clear_caches`` empties both.  The unmixed and
SCM oracles of :mod:`skewtab.ideals` rest on both searches, and
``is_buchsbaum_graph``, the Buchsbaum/generalized CM oracle of a bare
shape, runs both on every vertex link.  Everything here is definitional and
independent of the combinatorial classifiers, so the two routes can referee
each other.
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
    branches only over P & N[u] for the pivot u minimising that set.  A
    frame where some vertex of X has no closed neighbour left in P is cut:
    adding a candidate never removes that vertex from X, so no extension
    of R is maximal.
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
        rest = x
        while rest:
            low = rest & -rest
            if not closed[low.bit_length() - 1] & p:
                break  # the cut: no extension of R is maximal
            rest ^= low
        if rest:
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


def _restrict(adj: tuple[int, ...], keep: int) -> tuple[int, ...]:
    """Induced subgraph on the kept vertex mask (dead rows zeroed)."""
    return tuple(adj[v] & keep if (keep >> v) & 1 else 0 for v in range(len(adj)))


_vd_cache: dict[tuple[int, ...], bool] = {}
# adjacency -> U bitmask -> _vd(_restrict(adj, ~U))
_vd_minus_cache: dict[tuple[int, ...], dict[int, bool]] = {}


def _canonical(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Densely relabeled adjacency of the non-isolated part."""
    live = [v for v in range(len(adj)) if adj[v]]
    pos = {v: k for k, v in enumerate(live)}
    out = []
    for v in live:
        mask = 0
        nb = adj[v]
        while nb:
            w = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            mask |= 1 << pos[w]
        out.append(mask)
    return tuple(out)


def _vd(adj: tuple[int, ...]) -> bool:
    """Vertex decomposability by the definition, memoized.

    Isolated vertices are immaterial (the independence complex is a cone
    over them), so the memo key is the compacted non-isolated part.
    """
    key = _canonical(adj)
    if not key:
        return True  # totally disconnected
    hit = _vd_cache.get(key)
    if hit is not None:
        return hit

    adj = key
    nverts = len(adj)
    all_mask = (1 << nverts) - 1
    result = False
    for v in range(nverts):
        if not _is_shedding(adj, v):
            continue
        del_v = _restrict(adj, all_mask & ~(1 << v))
        del_nv = _restrict(adj, all_mask & ~(adj[v] | (1 << v)))
        if _vd(del_v) and _vd(del_nv):
            result = True
            break
    _vd_cache[key] = result
    return result


def clear_caches() -> None:
    _vd_cache.clear()
    _vd_minus_cache.clear()


# -- public oracle surface --------------------------------------------------


def _pure(adj: tuple[int, ...]) -> bool:
    """Whether all minimal vertex covers have one size (Ind(G) is pure)."""
    covers = _minimal_covers(adj)
    size = next(covers).bit_count()
    return all(c.bit_count() == size for c in covers)


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
    everything = (1 << len(adj)) - 1
    return _pure(adj) and all(_vd(_restrict(adj, everything & ~(adj[v] | 1 << v)))
                              for v in range(len(adj)))
