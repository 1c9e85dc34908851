"""Monomial ideal engine: weighted edge ideals, the threshold sets of
their associated radicals, irreducible decomposition and the weighted
brute-force oracles.

Monomials are exponent tuples over an ordered variable list.  Generating
sets are stored minimally (no generator divides another).  The unit ideal
is represented explicitly by the zero exponent vector.
``MonomialIdeal.make`` checks and minimalizes generators from outside the
package; the weighted edge ideal is minimal as built and skips it.  A
``WeightedGraph`` carries its edges as (index of u, index of v, weight)
triples, so no oracle maps names again.

Each associated radical of I(G,w) is I(G - U) + (x_i | i in U) for a
threshold set U, and ``_threshold_u_sets`` finds the sets U, as vertex
bitmasks, by a search over the vertices.  A vertex v with exponent a_v
dominates its edges of weight <= a_v; x^a lies in I(G,w) iff some edge is
dominated from both ends, and otherwise U is the union of the dominated
neighbourhoods.  So the search carries, per vertex not yet placed, a cap:
the least weight of its edges already dominated from the other end, below
which its exponent must stay.  The SCM oracle masks one adjacency by each U
to get G - U and builds no radical ideal.

Inside the irreducible decomposition an irreducible ideal is one
pure-power vector p: the ideal (x_k^(p_k) | p_k > 0), with p_k = 0 meaning
x_k is absent.  The search packs p into one integer, a bitmask per
generator exponent level t holding the k with 0 < p_k <= t, so that
membership of a generator and containment of two such ideals are single
AND tests.  ``irreducible_decomposition`` builds ``MonomialIdeal`` objects
only for the components it returns; ``associated_primes`` reads the
supports off the vectors and ``is_unmixed_ideal`` their sizes off the top
level masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import _restrict, _vd


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
    n = len(g.vertices)
    nbrs: list[list[tuple[int, int]]] = [[] for _ in g.vertices]
    for iu, iv, w in g.edges:
        nbrs[iu].append((w, iv))
        nbrs[iv].append((w, iu))
    free = max((w for _, _, w in g.edges), default=0) + 1  # above every weight: no cap
    states: dict[tuple[int, tuple[int, ...]], None] = {(0, (free,) * n): None}
    for v in range(n):
        # per exponent c of v: the neighbours it dominates, and the caps it
        # lowers as (position among the later vertices, weight)
        options = []
        for c in sorted({0}.union(w for w, _ in nbrs[v])):
            dominated = sum(1 << z for w, z in nbrs[v] if w <= c)
            lowered = [(z - v - 1, w) for w, z in nbrs[v] if w <= c and z > v]
            options.append((c, dominated, lowered))
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


# -- irreducible decomposition ----------------------------------------------


def _irreducible_masks(ideal: MonomialIdeal) -> tuple[tuple[int, ...], list[int]]:
    """The irredundant irreducible components, as level masks.

    A component is a pure-power vector p, standing for the ideal
    (x_k^(p_k) | p_k > 0).  Its exponents are exponents of generators, so
    with the distinct generator exponents e_0 < e_1 < ... as levels, p is
    the packed mask with bit t*n + k set iff 0 < p_k <= e_t (n variables);
    returned with the levels.  A generator g lies in (p) iff some k has
    0 < p_k <= g_k, one AND with the mask of the bits (level of g_k, k).
    (c) contains (d) iff d_k > 0 implies 0 < c_k <= d_k, that is iff the
    mask of d is a subset of the mask of c.

    The splitting rests on (m*m') + J = ((m) + J) cap ((m') + J) for
    coprime monomials m, m'.  Starting from p = 0, take the first
    remaining generator not already in (p) and branch once per variable x_k
    of its support, setting p_k to its exponent there; when every generator
    lies in (p), p is a leaf.  As (p) only grows along a branch, generators
    once in (p) stay there, so no node re-minimalizes.  Leaves containing
    another leaf are dropped, and what is left is irredundant: an
    irreducible monomial ideal Q is meet-prime, since for u in I minus Q
    and v in J minus Q, lcm(u, v) lies in (I cap J) minus Q (each exponent
    of the lcm stays below Q's pure powers).  So a leaf Q containing the
    meet of the others would contain one of them.  Raises ``ValueError``
    on the zero and the unit ideal.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("irreducible decomposition needs a proper nonzero ideal")
    n = len(ideal.variables)
    levels = tuple(sorted({e for g in ideal.generators for e in g if e}))
    level = {e: t for t, e in enumerate(levels)}
    # per generator: its membership mask, and per variable of its support
    # the bits that set p_k to its exponent (p_k is 0 or above it, as g is
    # not in (p), so the new power is that exponent)
    gens = []
    for g in sorted(ideal.generators):
        member = 0
        branches = []
        for k, e in enumerate(g):
            if e:
                member |= 1 << (level[e] * n + k)
                branches.append(sum(1 << (t * n + k) for t in range(level[e], len(levels))))
        gens.append((member, branches))
    leaves: set[int] = set()
    stack = [(0, 0)]
    while stack:
        p, i = stack.pop()
        while i < len(gens) and p & gens[i][0]:
            i += 1
        if i == len(gens):
            leaves.add(p)
            continue
        for bits in gens[i][1]:
            stack.append((p | bits, i + 1))

    # a leaf strictly inside another has fewer bits, so in order of bit
    # count a leaf contains a leaf iff it contains a kept one
    kept: list[int] = []
    for c in sorted(leaves, key=int.bit_count):
        outside = ~c
        if all(d & outside for d in kept):
            kept.append(c)
    return levels, kept


def _pure_powers(p: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Generators x_k^(p_k) of the irreducible ideal of the vector p."""
    zero = (0,) * len(p)
    return frozenset(zero[:k] + (e,) + zero[k + 1:] for k, e in enumerate(p) if e)


def _irreducible_vectors(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """The pure-power vectors of the components of :func:`_irreducible_masks`,
    ordered as their sorted generator lists: x_k^e sorts before x_j^f iff
    k > j, or k == j and e < f."""
    levels, kept = _irreducible_masks(ideal)
    n = len(ideal.variables)
    vectors = []
    for c in kept:
        p = [0] * n
        for t in reversed(range(len(levels))):  # the lowest level holding k sets p_k
            for k in range(n):
                if c >> (t * n + k) & 1:
                    p[k] = levels[t]
        vectors.append(tuple(p))
    vectors.sort(key=lambda p: [(-k, p[k]) for k in reversed(range(n)) if p[k]])
    return vectors


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
    ideal, so comparing prime cardinalities is comparing dimensions.  The
    zero ideal has no associated primes, so it is unmixed.  A component's
    support is its top-level mask.
    """
    if ideal.is_zero:
        return True
    levels, kept = _irreducible_masks(ideal)
    top = (len(levels) - 1) * len(ideal.variables)
    return len({(c >> top).bit_count() for c in kept}) <= 1


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
    subgraphs is vertex decomposable.  G - U is G's adjacency masked by U.
    """
    _bipartition(g)
    adj = [0] * len(g.vertices)
    for iu, iv, _ in g.edges:
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
    base = tuple(adj)
    return all(_vd(_restrict(base, ~u_mask)) for u_mask in _threshold_u_sets(g))
