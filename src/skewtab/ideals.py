"""Monomial ideal engine: weighted edge ideals, the threshold sets of
their associated radicals, irreducible decomposition and the weighted
brute-force oracles.

Monomials are exponent tuples over an ordered variable list.  Generating
sets are stored minimally (no generator divides another).  The unit ideal
is represented explicitly by the zero exponent vector.
``MonomialIdeal.make`` checks and minimalizes generators from outside the
package; the weighted edge ideal is minimal as built and skips it.  A
``WeightedGraph`` carries its edges as (index of u, index of v, weight)
triples, so no oracle maps names again.  Each associated radical of
I(G,w) is I(G - U) + (x_i | i in U) for a threshold set U of
``_threshold_u_sets``; the SCM oracle takes the sets U as they are, as
neighbour bitmasks of G - U, and builds no radical ideal.

Inside the irreducible decomposition an irreducible ideal is one
pure-power vector p: the ideal (x_k^(p_k) | p_k > 0), with p_k = 0 meaning
x_k is absent.  A monomial g lies in it iff some k has 0 < p_k <= g_k, and
the ideal of c contains that of d iff every k with d_k > 0 has
0 < c_k <= d_k, so membership and containment are O(n) vector tests.
``irreducible_decomposition`` builds ``MonomialIdeal`` objects only for the
components it returns; ``associated_primes`` and ``is_unmixed_ideal`` read
the supports, and their sizes, straight off the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import _vd


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize(gens: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    gens = set(gens)
    out = set()
    for g in sorted(gens, key=sum):
        if not any(_divides(h, g) for h in out):
            out.add(g)
    return frozenset(out)


@dataclass(frozen=True)
class MonomialIdeal:
    variables: tuple[str, ...]
    generators: frozenset[tuple[int, ...]]

    @classmethod
    def make(cls, variables: Sequence[str], gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        variables = tuple(variables)
        exps = []
        for g in gens:
            g = tuple(g)
            if len(g) != len(variables) or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g} for {variables}")
            exps.append(g)
        return cls(variables, _minimalize(exps))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        zero = (0,) * len(self.variables)
        return zero in self.generators

    def format(self) -> str:
        """Debug format: one generator per line as var^exp tokens."""
        lines = []
        for g in sorted(self.generators):
            toks = [v if e == 1 else f"{v}^{e}"
                    for v, e in zip(self.variables, g) if e]
            lines.append(" ".join(toks) if toks else "1")
        return "\n".join(lines)


# -- weighted graphs ---------------------------------------------------------


@dataclass(frozen=True)
class WeightedGraph:
    """Simple graph with a positive integer weight on every edge."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # (index of u, index of v, w), u and v as given

    @classmethod
    def make(cls, vertices: Sequence[str],
             weights: Mapping[tuple[str, str], int]) -> "WeightedGraph":
        vertices = tuple(vertices)
        index = {v: k for k, v in enumerate(vertices)}
        seen = set()
        edges = []
        for (u, v), w in weights.items():
            if u not in index or v not in index or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if type(w) is not int or w < 1:
                raise ValueError(f"edge weight must be a positive integer: {w}")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            edges.append((index[u], index[v], w))
        return cls(vertices, tuple(sorted(edges)))


def weighted_edge_ideal(g: WeightedGraph) -> MonomialIdeal:
    """I(G,w) = ((x_u x_v)^w(u,v) over the edges of G).

    The generators are minimal as built: ``WeightedGraph.make`` rejects
    loops and repeated pairs and a filling's graph has one x-y edge per box,
    so they have distinct 2-element supports, and a monomial divides
    another only if its support lies in the other's.
    """
    gens = []
    for iu, iv, w in g.edges:
        e = [0] * len(g.vertices)
        e[iu] = e[iv] = w
        gens.append(tuple(e))
    return MonomialIdeal(g.vertices, frozenset(gens))


def _threshold_u_sets(g: WeightedGraph) -> Iterator[frozenset[int]]:
    """The vertex sets U with sqrt(I(G,w) : x^a) = I(G\\U) + (x_i | i in U).

    The radical depends on a only through the comparisons a_i < w(i,j) <= a_j,
    so each coordinate ranges over {0} and the distinct weights incident to
    that vertex.  Vectors with x^a in the ideal are skipped; each distinct U
    (as vertex indices) is yielded once, in the order of first appearance.
    """
    candidates: list[list[int]] = [[0] for _ in g.vertices]
    for iu, iv, w in g.edges:
        for k in (iu, iv):
            if w not in candidates[k]:
                candidates[k].append(w)
    seen: set[frozenset[int]] = set()
    for a in product(*candidates):
        u_set = set()
        for iu, iv, w in g.edges:
            au, av = a[iu], a[iv]
            if au >= w and av >= w:
                break  # x^a lies in I(G, w)
            if au < w <= av:
                u_set.add(iu)
            if av < w <= au:
                u_set.add(iv)
        else:
            key = frozenset(u_set)
            if key not in seen:
                seen.add(key)
                yield key


# -- irreducible decomposition ----------------------------------------------


def _in_pure_power(p: tuple[int, ...], support: tuple[tuple[int, int], ...]) -> bool:
    """Is the monomial with nonzero exponents ``support`` in the ideal of p?"""
    return any(0 < p[k] <= e for k, e in support)


def _pure_powers(p: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Generators x_k^(p_k) of the irreducible ideal of the vector p."""
    zero = (0,) * len(p)
    return frozenset(zero[:k] + (e,) + zero[k + 1:] for k, e in enumerate(p) if e)


def _irreducible_vectors(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """The pure-power vectors p of the irredundant irreducible components,
    each standing for the ideal (x_k^(p_k) | p_k > 0).  The splitting rests on
    (m*m') + J = ((m) + J) cap ((m') + J) for coprime monomials m, m'.
    Starting from p = 0, take the first remaining generator not already in
    (p) and branch once per variable x_k of its support, setting p_k to its
    exponent there; when every generator lies in (p), p is a leaf.  As (p)
    only grows along a branch, generators once in (p) stay there, so no
    node re-minimalizes.  Leaves containing another leaf are dropped, and
    what is left is irredundant: an irreducible monomial ideal Q is
    meet-prime, since for u in I minus Q and v in J minus Q, lcm(u, v) lies
    in (I cap J) minus Q (each exponent of the lcm stays below Q's pure
    powers).  So a leaf Q containing the meet of the others would contain
    one of them.  Raises ``ValueError`` on the zero and the unit ideal.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("irreducible decomposition needs a proper nonzero ideal")
    nvars = len(ideal.variables)
    gens = [tuple((k, e) for k, e in enumerate(g) if e) for g in sorted(ideal.generators)]
    leaves: set[tuple[int, ...]] = set()
    stack = [((0,) * nvars, 0)]
    while stack:
        p, i = stack.pop()
        while i < len(gens) and _in_pure_power(p, gens[i]):
            i += 1
        if i == len(gens):
            leaves.add(p)
            continue
        for k, e in gens[i]:
            # g is not in (p), so p_k is 0 or above e: the new power is e
            stack.append((p[:k] + (e,) + p[k + 1:], i + 1))

    # drop leaves containing another leaf: C_c >= C_d iff supp(d) lies in
    # supp(c) (a bit test) and c_k <= d_k on supp(d)
    supports = {d: tuple((k, e) for k, e in enumerate(d) if e) for d in leaves}
    masks = {d: sum(1 << k for k, _ in sd) for d, sd in supports.items()}
    kept = [c for c in leaves
            if not any(d != c and not md & ~masks[c]
                       and all(c[k] <= e for k, e in supports[d])
                       for d, md in masks.items())]
    # order as the sorted generator lists: x_k^e sorts before x_j^f iff
    # k > j, or k == j and e < f
    kept.sort(key=lambda c: [(-k, e) for k, e in reversed(supports[c])])
    return kept


def irreducible_decomposition(ideal: MonomialIdeal) -> list[MonomialIdeal]:
    """Irredundant irreducible components (ideals of pure variable powers),
    one per vector of :func:`_irreducible_vectors`, in its order."""
    return [MonomialIdeal(ideal.variables, _pure_powers(c)) for c in _irreducible_vectors(ideal)]


def associated_primes(ideal: MonomialIdeal) -> frozenset[frozenset[str]]:
    """Supports of the irredundant irreducible components."""
    return frozenset(frozenset(v for v, e in zip(ideal.variables, c) if e)
                     for c in _irreducible_vectors(ideal))


def is_unmixed_ideal(ideal: MonomialIdeal) -> bool:
    """True iff all associated primes have equal cardinality.

    Dimensions are taken over the full ambient variable list carried by the
    ideal, so comparing prime cardinalities is comparing dimensions.
    """
    return len({len(c) - c.count(0) for c in _irreducible_vectors(ideal)}) <= 1


# -- weighted SCM oracle ------------------------------------------------------


def _bipartition(g: WeightedGraph) -> None:
    """Raise unless the graph is bipartite (2-colorable)."""
    color: dict[int, int] = {}
    nbr: list[list[int]] = [[] for _ in g.vertices]
    for iu, iv, _ in g.edges:
        nbr[iu].append(iv)
        nbr[iv].append(iu)
    for root in range(len(g.vertices)):
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in nbr[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    raise ValueError("graph is not bipartite")


def is_scm_weighted_oracle(g: WeightedGraph) -> bool:
    """Sequentially Cohen-Macaulay test for a bipartite edge-weighted graph.

    Every associated radical of I(G,w) is the edge ideal of an induced
    subgraph plus variables; the ideal is SCM iff each of those induced
    subgraphs is vertex decomposable.
    """
    _bipartition(g)
    for u_set in _threshold_u_sets(g):
        adj = [0] * len(g.vertices)
        for iu, iv, _ in g.edges:
            if iu not in u_set and iv not in u_set:
                adj[iu] |= 1 << iv
                adj[iv] |= 1 << iu
        if not _vd(tuple(adj)):
            return False
    return True
