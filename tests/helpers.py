"""Shared brute-force helpers for the test suite.

Everything here recomputes facts from first principles (box sets, graph
searches, exhaustive subset enumeration) so the library code has something
independent to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from operator import le
from typing import Iterable, Iterator, Mapping, Sequence

from skewtab import Component, SkewShape, SkewTableau, WeightedGraph, enumerate_skew_shapes
from skewtab.classify import _runs, connected_parts, scm_pivots
from skewtab.graphs import _adjacency, _minimal_covers, _vd
from skewtab.ideals import _threshold_u_sets
from skewtab.shapes import _deleted


def boxes_of(s: SkewShape) -> set[tuple[int, int]]:
    return {(i, j) for i in range(1, s.n + 1)
            for j in range(s.mu[i - 1] + 1, s.lam[i - 1] + 1)}


def shape_from_boxes(boxes: set[tuple[int, int]]) -> SkewShape:
    """Rebuild the normal-form shape of a box set (rows/cols renumbered)."""
    rows = sorted({i for i, _ in boxes})
    cols = sorted({j for _, j in boxes})
    rmap = {r: k + 1 for k, r in enumerate(rows)}
    cmap = {c: k + 1 for k, c in enumerate(cols)}
    per_row = {}
    for i, j in boxes:
        per_row.setdefault(rmap[i], set()).add(cmap[j])
    lam, mu = [], []
    for r in range(1, len(rows) + 1):
        js = sorted(per_row[r])
        assert js == list(range(js[0], js[-1] + 1)), "box set is not row-contiguous"
        lam.append(js[-1])
        mu.append(js[0] - 1)
    return SkewShape(lam, mu)


def bfs_connected(s: SkewShape) -> bool:
    """Connectivity of the row/column incidence graph of the box set."""
    boxes = boxes_of(s)
    if not boxes:
        return True
    verts = {("r", i) for i, _ in boxes} | {("c", j) for _, j in boxes}
    start = next(iter(verts))
    seen = {start}
    frontier = [start]
    while frontier:
        kind, idx = frontier.pop()
        for i, j in boxes:
            other = ("c", j) if (kind, idx) == ("r", i) else (("r", i) if (kind, idx) == ("c", j) else None)
            if other is not None and other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen == verts


def brute_minimal_covers(s: SkewShape) -> set[int]:
    """Inclusion-minimal vertex covers by full subset enumeration, as
    bitmasks over x_1..x_n, y_1..y_m (the vertex order of
    ``skewtab.graphs._adjacency``)."""
    edges = [(i - 1, s.n + j - 1) for i, j in boxes_of(s)]
    covers = [mask for mask in range(1 << (s.n + s.m))
              if all((mask >> a) & 1 or (mask >> b) & 1 for a, b in edges)]
    return {c for c in covers if not any(d != c and d & c == d for d in covers)}


def scm_all_pivots_reference(s: SkewShape, rows=None, memo: dict | None = None) -> bool:
    """The pendant-pivot SCM recursion trying every pivot of every shape.

    Reference for ``skewtab.classify.is_scm``, which decides every shape
    and filling by its first pivot alone: every threshold set of a derived
    filling's graph, with the deleted lines added, is a threshold set of
    the parent's, so under the theorem the weighted oracle rests on (I(G,w)
    is SCM iff G - U is vertex decomposable for every threshold set U) all
    pivots agree.  The search uses the package's pivots and deletions with
    its own memo on (lam, mu, rows), never the package's memo or its
    transpose keys.
    """
    if memo is None:
        memo = {}
    for key in connected_parts(s, rows):
        if key not in memo:
            memo[key] = any(all(scm_all_pivots_reference(SkewShape(lam, mu), u_rows, memo)
                                for group in pivot_groups(*key, piv)
                                for lam, mu, u_rows in group)
                            for piv in scm_pivots(*key))
        if not memo[key]:
            return False
    return True


def pivot_groups(lam, mu, rows, piv: dict) -> list[list[tuple]]:
    """A pivot's derived groups as the SCM search reads them: for each of
    its deletions, the component keys (lam, mu, rows) that
    ``skewtab.shapes._deleted`` leaves of the connected key (lam, mu,
    rows)."""
    return [list(_deleted(lam, mu, rows, *dead)) for dead in piv["deletions"]]


def scm_pivots_reference(s: SkewShape, rows=None) -> list[dict]:
    """Every SCM pivot of a connected shape or filling, as a list with each
    pivot's deletion sets built at once: the list form that
    ``skewtab.classify.scm_pivots``, a generator, must match in pivots,
    order, levels and deletions.  Boundary cases 1-4 come first, then the
    interior pivots as found, rows before columns."""
    lam, mu = s.lam, s.mu
    lamc, muc = s.lam_conj(), s.mu_conj()
    pivots = []

    def add(kind, line, case, nbhd, weights) -> None:
        if weights is None:
            levels, cuts = [1], [set(nbhd)]
        else:
            levels = sorted(set(weights))
            cuts = [{k for k, w in zip(nbhd, weights) if w <= c} for c in levels]
        row = kind == "row"
        deletions = [({line}, set()) if row else (set(), {line})]
        deletions += [(set(), cut) if row else (cut, set()) for cut in cuts]
        pivots.append({"pivot": (kind, line), "boundary_case": case, "levels": levels,
                       "deletions": deletions})

    for i in sorted({lamc[j] for j in range(s.m) if lamc[j] - muc[j] == 1}):
        add("row", i, 1 if i == 1 else (4 if i == s.n else None),
            range(mu[i - 1] + 1, lam[i - 1] + 1), None if rows is None else rows[i - 1])
    for j in sorted({lam[i] for i in range(s.n) if lam[i] - mu[i] == 1}):
        nbhd = range(muc[j - 1] + 1, lamc[j - 1] + 1)
        add("col", j, 2 if j == s.m else (3 if j == 1 else None), nbhd,
            None if rows is None else [rows[i - 1][j - mu[i - 1] - 1] for i in nbhd])
    return sorted(pivots, key=lambda p: p["boundary_case"] or 5)


def shape_images(s: SkewShape) -> tuple[SkewShape, SkewShape, SkewShape, SkewShape]:
    """``s``, its transpose, its half turn and the transpose of its half
    turn, built as shapes by ``conjugate()`` and ``rotate180()``: the
    reference for ``skewtab.harness._orbit``, which reads an orbit's keys
    off one shape without building an image."""
    rot = s.rotate180()
    return s, s.conjugate(), rot, rot.conjugate()


def constant_filling(s: SkewShape, w: int = 1) -> SkewTableau:
    return SkewTableau(s, [[w] * (s.lam[i] - s.mu[i]) for i in range(s.n)])


def random_connected_filling(rng, boxes: int, max_weight: int, width: int = 4) -> SkewTableau:
    """A connected filling with exactly ``boxes`` boxes, rows of at most
    ``width`` boxes and weights drawn from 1..max_weight.  The rows are
    laid from the bottom up as column intervals; each new row starts
    within the row below and ends at or right of it, so the two share a
    column."""
    first, last = 1, rng.randint(1, min(boxes, width))
    spans = [(first, last)]
    left = boxes - last
    while left:
        length = min(left, rng.randint(1, width))
        first = rng.randint(max(first, last - length + 1), last)
        last = first + length - 1
        spans.append((first, last))
        left -= length
    spans.reverse()
    shape = SkewShape(tuple(b for _, b in spans), tuple(a - 1 for a, _ in spans))
    return SkewTableau(shape, [[rng.randint(1, max_weight) for _ in range(a, b + 1)]
                               for a, b in spans])


def line_ranks(t: SkewTableau) -> tuple[tuple[int, ...], ...]:
    """Each row, then each column, of ``t`` as the dense ranks of its
    weights: two fillings of one shape have the same weak order on every
    line exactly when their line ranks are equal."""
    w = t.weights()
    lines = [[(i, j) for j in range(t.shape.mu[i - 1] + 1, t.shape.lam[i - 1] + 1)]
             for i in range(1, t.shape.n + 1)]
    lines += [[(i, j) for i in range(t.shape.mu_conj()[j - 1] + 1, t.shape.lam_conj()[j - 1] + 1)]
              for j in range(1, t.shape.m + 1)]
    return tuple(tuple(sorted({w[b] for b in line}).index(w[b]) for b in line) for line in lines)


def order_preserving_refill(rng, t: SkewTableau, max_gap: int = 3) -> SkewTableau:
    """A random filling of ``t.shape`` with the same weak order as ``t`` on
    every row and column.  Boxes of equal weight on a line are merged into
    one class; in order of their weights, each class gets a value above
    every class below it on a line, by a random gap of 1 to ``max_gap``."""
    w = t.weights()
    parent = {b: b for b in w}

    def root(b):
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        return b

    lines: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for i, j in w:
        lines.setdefault(("row", i), []).append((i, j))
        lines.setdefault(("col", j), []).append((i, j))
    for line in lines.values():
        first = {}
        for b in line:
            parent[root(b)] = root(first.setdefault(w[b], b))
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for b in sorted(w, key=w.get):
        classes.setdefault(root(b), []).append(b)
    new = {}
    for boxes in classes.values():  # by weight: every class below has its value
        floor = max((new[c] for i, j in boxes for c in (*lines["row", i], *lines["col", j])
                     if w[c] < w[i, j]), default=0)
        value = floor + rng.randint(1, max_gap)
        new.update(dict.fromkeys(boxes, value))
    return SkewTableau.from_weights(t.shape, new)


def polarize(weights: dict[tuple[int, int], int]) -> list[frozenset[str]]:
    """Supports of the polarized generators of the ideal ((x_i y_j)^w).

    Polarization sends v^e to v_1 ... v_e, so x_i^w y_j^w becomes the
    squarefree monomial on x{i}_1..x{i}_w and y{j}_1..y{j}_w.  Distinct boxes
    give supports that are not contained in one another, so these are the
    minimal non-faces of the Stanley-Reisner complex of the polarization.
    """
    return [frozenset({f"x{i}_{k}" for k in range(1, w + 1)}
                      | {f"y{j}_{k}" for k in range(1, w + 1)})
            for (i, j), w in weights.items()]


def is_face(gens: list[frozenset[str]], vertices) -> bool:
    """A vertex set is a face of the Stanley-Reisner complex iff it contains
    no generator support."""
    return not any(g <= vertices for g in gens)


def pure_skeleton_link(gens: list[frozenset[str]], face: frozenset[str],
                       size: int) -> list[frozenset[str]]:
    """Facets of the link of `face` in the pure skeleton spanned by the
    `size`-vertex faces: every G disjoint from `face` with |face | G| = size
    and face | G a face.  Empty when `face` lies in no such face."""
    rest = sorted(set().union(*gens) - face)
    return [frozenset(c) for c in combinations(rest, size - len(face))
            if is_face(gens, face.union(c))]


def count_components(facets: list[frozenset[str]]) -> int:
    """Connected components of the complex spanned by `facets` (two vertices
    are joined when they lie in a common facet)."""
    parent: dict[str, str] = {}

    def root(v: str) -> str:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for facet in facets:
        first, *others = sorted(facet)
        for v in others:
            parent[root(v)] = root(first)
    return len({root(v) for v in parent})


def partitions_up_to(total: int):
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - p, p):
                yield (p,) + tail
    for n in range(1, total + 1):
        yield from rec(n, n)


def enumerate_skew_shapes_reference(max_boxes: int, connected_only: bool = False):
    """The plain enumerator: every row interval nested in the one above,
    each shape built from the list of rows it ends on, no pruning.  The
    package's enumerator must yield the same shapes in the same order."""
    if max_boxes < 1:
        raise ValueError("max_boxes must be >= 1")

    def rec(rows: list[tuple[int, int]], boxes: int):
        lo, hi = rows[-1]
        if lo == 1:
            s = SkewShape._trusted(tuple(b for _, b in rows), tuple(a - 1 for a, _ in rows))
            if not connected_only or s.is_connected():
                yield s
        for nhi in range(hi, 0, -1):
            if nhi < lo - 1:
                break  # would leave an empty column
            for nlo in range(1, min(nhi, lo) + 1):
                size = nhi - nlo + 1
                if boxes + size <= max_boxes:
                    yield from rec(rows + [(nlo, nhi)], boxes + size)

    for hi in range(1, max_boxes + 1):
        for lo in range(1, hi + 1):
            if hi - lo + 1 <= max_boxes:
                yield from rec([(lo, hi)], hi - lo + 1)


def shapes_up_to(max_boxes: int, connected_only: bool = False):
    yield from enumerate_skew_shapes(max_boxes, connected_only=connected_only)


def normalize(rows) -> list[Component]:
    """Rebuild normal-form components from leftover row contents.

    Each entry of ``rows`` is the surviving column content of one row:
    ``None`` or empty for a dead row, a pair ``(lo, hi)`` for an inclusive
    interval, or an explicit collection of column indices.  Empty rows are
    dropped, globally empty columns deleted, indices compacted, and the
    result split into connected components, whose maps refer to the row
    positions and column indices of ``rows``.  Rows that are not contiguous
    after column deletion are rejected.
    """
    cols_per_row: list[set[int]] = []
    for content in rows:
        if content is None:
            cols_per_row.append(set())
        elif isinstance(content, tuple) and len(content) == 2:
            lo, hi = content
            cols_per_row.append(set(range(lo, hi + 1)))
        else:
            cols_per_row.append(set(content))
    used_cols = sorted(set().union(*cols_per_row)) if cols_per_row else []
    new_col = {c: k + 1 for k, c in enumerate(used_cols)}

    intervals: list[tuple[int, int]] = []
    kept_rows: list[int] = []
    for rid, content in enumerate(cols_per_row, start=1):
        if not content:
            continue
        cols = sorted(new_col[c] for c in content)
        if cols[-1] - cols[0] + 1 != len(cols):
            raise ValueError(f"row {rid} is not a contiguous interval: {sorted(content)}")
        intervals.append((cols[0], cols[-1]))
        kept_rows.append(rid)

    for k in range(len(intervals) - 1):
        if intervals[k][0] < intervals[k + 1][0] or intervals[k][1] < intervals[k + 1][1]:
            raise ValueError("rows do not come from a skew shape (intervals not nested)")
    # A component ends at a row sharing no column with the next one; it
    # spans columns lo..hi, lo from its last row and hi from its first.  The
    # shapes are built unchecked; callers validate the ones they keep.
    comps, start = [], 0
    for k in range(1, len(intervals) + 1):
        if k < len(intervals) and intervals[k][1] >= intervals[k - 1][0]:
            continue
        lo, hi = intervals[k - 1][0], intervals[start][1]
        piece = intervals[start:k]
        shape = SkewShape._trusted(tuple([b - lo + 1 for _, b in piece]),
                                   tuple([a - lo for a, _ in piece]))
        comps.append(Component(shape, tuple(kept_rows[start:k]), tuple(used_cols[lo - 1:hi])))
        start = k
    return comps


def delete_rows_cols_reference(s: SkewShape, rows=(), cols=()) -> list[Component]:
    """Remove whole rows/columns and renormalize; maps refer to ``s``.

    Reference for ``skewtab.shapes.delete_rows_cols``: it rebuilds every
    surviving row as a set of columns and hands the sets to ``normalize``,
    which sorts and compacts them, where the library works on intervals.
    """
    dead_rows = set(rows)
    dead_cols = set(cols)
    if not all(1 <= r <= s.n for r in dead_rows) or not all(1 <= c <= s.m for c in dead_cols):
        raise ValueError("row/column index out of range")
    contents = []
    for i in range(1, s.n + 1):
        if i in dead_rows:
            contents.append(None)
        else:
            contents.append(set(range(s.mu[i - 1] + 1, s.lam[i - 1] + 1)) - dead_cols)
    return normalize(contents)


def deleted_reference(lam, mu, rows, dead_rows, dead_cols) -> list[tuple]:
    """``skewtab.shapes._deleted`` by the set-based reference: the component
    keys (lam, mu, rows) of lam/mu with the rows ``dead_rows`` and the
    columns ``dead_cols`` deleted, each weight row read box by box through
    the reference's index maps."""
    return [(c.shape.lam, c.shape.mu,
             None if rows is None else
             tuple(tuple(rows[r - 1][j - mu[r - 1] - 1] for j in c.col_map[cm:cl])
                   for r, cl, cm in zip(c.row_map, c.shape.lam, c.shape.mu)))
            for c in delete_rows_cols_reference(SkewShape(lam, mu), dead_rows, dead_cols)]


def blocks_reference(s: SkewShape) -> list[tuple[tuple[int, int], tuple[int, int], bool]]:
    """Band grid of a connected shape, as (row band, column band, corner)
    triples; bands are 1-based inclusive intervals.

    It tests every (row band, column band) pair for a box of the shape,
    O(bands^2); a corner block has no block right of it or below it.  The
    referee for the classifier's block constancy, which never lists blocks.
    """
    if s.is_empty:
        return []
    if not s.is_connected():
        raise ValueError("blocks are defined for connected shapes")
    row_bands = _runs(list(zip(s.lam, s.mu)))
    col_bands = _runs(list(zip(s.lam_conj(), s.mu_conj())))

    def inside(rb: int, cb: int) -> bool:
        if not (0 <= rb < len(row_bands) and 0 <= cb < len(col_bands)):
            return False
        return s.contains(row_bands[rb][0], col_bands[cb][0])

    out = []
    for rb in range(len(row_bands)):
        for cb in range(len(col_bands)):
            if inside(rb, cb):
                corner = not inside(rb, cb + 1) and not inside(rb + 1, cb)
                out.append((row_bands[rb], col_bands[cb], corner))
    return out


def piece_blocks_reference(boxes: set[tuple[int, int]], orientation: str) -> list[frozenset]:
    """Reference for ``PrimeShapePiece.blocks``, from the piece's box set
    alone: consecutive rows with the same columns make a row band,
    consecutive columns with the same rows a column band, and a block is a
    band product inside the piece.  An upper piece lists them by row band
    from the top, then column band from the left; a lower piece by column
    band from the right, then row band from the bottom."""
    def bands(lines: dict[int, frozenset]) -> list[list[int]]:
        out: list[list[int]] = []
        for k in sorted(lines):
            if out and lines[out[-1][-1]] == lines[k]:
                out[-1].append(k)
            else:
                out.append([k])
        return out
    row_bands = bands({i: frozenset(j for r, j in boxes if r == i) for i, _ in boxes})
    col_bands = bands({j: frozenset(i for i, c in boxes if c == j) for _, j in boxes})
    pairs = ([(rb, cb) for rb in row_bands for cb in col_bands] if orientation == "upper"
             else [(rb, cb) for cb in reversed(col_bands) for rb in reversed(row_bands)])
    return [frozenset((i, j) for i in rb for j in cb) for rb, cb in pairs
            if (rb[0], cb[0]) in boxes]


# -- monomial ideals: colon, radical, intersection, associated radicals --------
#
# Monomials are exponent tuples over an ordered variable list.  Generating
# sets are stored minimally (no generator divides another).  The unit ideal
# is represented explicitly by the zero exponent vector.
# ``MonomialIdeal.make`` checks and minimalizes generators; the weighted edge
# ideal is minimal as built and skips it.


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


def make_weighted_graph(vertices: Sequence[str],
                        weights: Mapping[tuple[str, str], int]) -> WeightedGraph:
    """A ``WeightedGraph`` from named edges, checked: no loops, no repeated
    pairs, positive integer weights; the edges sorted.  The k-th name is
    vertex k."""
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
    return WeightedGraph(len(vertices), tuple(sorted(edges)))


def vertex_names(g: WeightedGraph) -> tuple[str, ...]:
    """The variable names v0, v1, ... of G's vertices."""
    return tuple(f"v{k}" for k in range(g.nverts))


def weighted_edge_ideal(g: WeightedGraph, names: Sequence[str] | None = None) -> MonomialIdeal:
    """I(G,w) = ((x_u x_v)^w(u,v) over the edges of G), in the variables
    ``names``, one per vertex (default :func:`vertex_names`).

    The generators are minimal as built: ``make_weighted_graph`` rejects
    loops and repeated pairs and a filling's graph has one x-y edge per box,
    so they have distinct 2-element supports, and a monomial divides
    another only if its support lies in the other's.
    """
    gens = []
    for iu, iv, w in g.edges:
        e = [0] * g.nverts
        e[iu] = e[iv] = w
        gens.append(tuple(e))
    return MonomialIdeal(tuple(names or vertex_names(g)), frozenset(gens))


def contains(ideal: MonomialIdeal, monomial: Sequence[int]) -> bool:
    monomial = tuple(monomial)
    return any(_divides(g, monomial) for g in ideal.generators)


def contains_ideal(ideal: MonomialIdeal, other: MonomialIdeal) -> bool:
    """ideal >= other as ideals."""
    return all(contains(ideal, g) for g in other.generators)


def colon(ideal: MonomialIdeal, u: Sequence[int]) -> MonomialIdeal:
    """I : u for a monomial u."""
    u = tuple(u)
    gens = (tuple(max(e - v, 0) for e, v in zip(g, u)) for g in ideal.generators)
    return MonomialIdeal(ideal.variables, _minimalize(gens))


def radical(ideal: MonomialIdeal) -> MonomialIdeal:
    gens = (tuple(1 if e else 0 for e in g) for g in ideal.generators)
    return MonomialIdeal(ideal.variables, _minimalize(gens))


def intersect(ideal: MonomialIdeal, other: MonomialIdeal) -> MonomialIdeal:
    gens = (tuple(max(a, b) for a, b in zip(g, h))
            for g in ideal.generators for h in other.generators)
    return MonomialIdeal(ideal.variables, _minimalize(gens))


def associated_radical(ideal: MonomialIdeal, u: Sequence[int]) -> MonomialIdeal:
    """sqrt(I : u) for a monomial u not in I."""
    if contains(ideal, u):
        raise ValueError("u lies in the ideal; I : u would be the unit ideal")
    return radical(colon(ideal, u))


def threshold_u_sets_reference(g: WeightedGraph) -> Iterator[frozenset[int]]:
    """The vertex sets U with sqrt(I(G,w) : x^a) = I(G\\U) + (x_i | i in U).

    Reference for ``skewtab.ideals._threshold_u_sets``: it walks the whole
    product of candidate exponent vectors, where the package searches the
    vertices with a frontier of domination states.

    The radical depends on a only through the comparisons a_i < w(i,j) <= a_j,
    so each coordinate ranges over {0} and the distinct weights incident to
    that vertex.  Vectors with x^a in the ideal are skipped; each distinct U
    (as vertex indices) is yielded once, in the order of first appearance.
    """
    candidates: list[list[int]] = [[0] for _ in range(g.nverts)]
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


def associated_radicals_weighted(g: WeightedGraph) -> frozenset[MonomialIdeal]:
    """All associated radicals of I(G,w), one per threshold U-set, in the
    variables :func:`vertex_names`.

    The generators are minimal as built: x_u x_v for the edges with u, v not
    in U, which are distinct squarefree pairs, and x_i for i in U.  x_i
    cannot divide such an x_u x_v, as i is neither u nor v, and a degree-2
    monomial cannot divide a variable.
    """
    nvars = g.nverts
    out = set()
    for u_mask in _threshold_u_sets(g):
        gens = []
        for iu, iv, _ in g.edges:
            if not (u_mask >> iu | u_mask >> iv) & 1:
                e = [0] * nvars
                e[iu] = e[iv] = 1
                gens.append(tuple(e))
        for i in range(nvars):
            if u_mask >> i & 1:
                e = [0] * nvars
                e[i] = 1
                gens.append(tuple(e))
        out.add(MonomialIdeal(vertex_names(g), frozenset(gens)))
    return frozenset(out)


def _restrict(adj: tuple[int, ...], keep: int) -> tuple[int, ...]:
    """Induced subgraph on the kept vertex mask (dead rows zeroed)."""
    return tuple(adj[v] & keep if (keep >> v) & 1 else 0 for v in range(len(adj)))


def unmixed_walk_reference(g: WeightedGraph) -> bool:
    """``skewtab.ideals.is_unmixed_ideal`` with no early exit and no split
    into components: |U| + |C| is one number over every threshold set U,
    the empty one included, and every minimal cover C of the whole G - U,
    also when every weight is 1."""
    adj = _adjacency(g)
    return len({u.bit_count() + c.bit_count() for u in _threshold_u_sets(g)
                for c in _minimal_covers(_restrict(adj, ~u))}) == 1


def scm_walk_reference(g: WeightedGraph) -> bool:
    """``skewtab.ideals.is_scm_weighted_oracle`` with no early exit: G - U
    vertex decomposable for every threshold set U, also when every weight
    is 1."""
    adj = _adjacency(g)
    return all(_vd(_restrict(adj, ~u)) for u in _threshold_u_sets(g))


def irreducible_decomposition_reference(ideal: MonomialIdeal) -> list[MonomialIdeal]:
    """Irredundant irreducible components (ideals of pure variable powers).

    The referee of ``skewtab.ideals.is_unmixed_ideal``: the supports of
    these components are the associated primes, which the package lists
    from threshold sets and minimal vertex covers without building an ideal.

    Recursive generator splitting: a generator x^a*y^b*... with two or more
    variables splits the ideal as (rest, x^a) and (rest, monomial/x^a).
    Redundant components are dropped with a witness-monomial test.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("irreducible decomposition needs a proper nonzero ideal")
    nvars = len(ideal.variables)
    seen: set[frozenset[tuple[int, ...]]] = set()
    parts: set[frozenset[tuple[int, ...]]] = set()

    def rec(gens: frozenset[tuple[int, ...]]) -> None:
        if gens in seen:
            return
        seen.add(gens)
        split_gen = next((g for g in sorted(gens)
                          if sum(1 for e in g if e) >= 2), None)
        if split_gen is None:
            parts.add(gens)
            return
        v = next(k for k, e in enumerate(split_gen) if e)
        pure = tuple(split_gen[k] if k == v else 0 for k in range(nvars))
        rest = tuple(0 if k == v else split_gen[k] for k in range(nvars))
        others = gens - {split_gen}
        rec(_minimalize(others | {pure}))
        rec(_minimalize(others | {rest}))

    rec(ideal.generators)
    comps = [MonomialIdeal(ideal.variables, gens) for gens in parts]

    # drop components containing another component (absorbed in
    # intersections).  A component is generated by pure powers, at most one
    # per variable, so it is its exponent vector, with ``big`` for a missing
    # variable, and C contains D iff C's vector is <= D's in every entry.
    comps.sort(key=lambda c: sorted(c.generators))
    big = max(e for gens in parts for g in gens for e in g) + 1
    vectors = []
    for c in comps:
        vector = [big] * nvars
        for g in c.generators:
            k = next(k for k, e in enumerate(g) if e)
            vector[k] = g[k]
        vectors.append(tuple(vector))
    kept = [c for c, v in zip(comps, vectors)
            if not any(w != v and all(map(le, v, w)) for w in vectors)]

    # witness filter: C is needed iff the maximal monomial outside C lies in
    # every other component; membership only compares against bounded
    # exponents, so the clamp ``big`` above every exponent is a faithful
    # stand-in.
    result = list(kept)
    changed = True
    while changed:
        changed = False
        for c in list(result):
            others = [d for d in result if d is not c]
            if not others:
                continue
            witness = tuple(
                next((g[k] for g in c.generators if g[k]), big) - 1
                if any(g[k] for g in c.generators) else big
                for k in range(nvars)
            )
            if all(contains(d, witness) for d in others):
                continue  # witness shows the intersection escapes c
            result.remove(c)
            changed = True
            break
    return result


def _minimal_cover_masks(adj: tuple[int, ...]) -> list[int]:
    """All inclusion-minimal vertex covers, as bitmasks.

    Reference for ``skewtab.graphs._minimal_covers``: it finds covers by
    edge branching and keeps the minimal ones with a subset filter, sharing
    no logic with the library's maximal-independent-set enumeration.

    Branch on an uncovered edge: either endpoint joins the cover.  The
    search yields every minimal cover (possibly with non-minimal extras),
    which a subset filter then removes.
    """
    nverts = len(adj)
    found: set[int] = set()

    def rec(chosen: int) -> None:
        for v in range(nverts):
            if (chosen >> v) & 1:
                continue
            nb = adj[v] & ~chosen
            if nb:
                u = (nb & -nb).bit_length() - 1
                rec(chosen | (1 << v))
                rec(chosen | (1 << u))
                return
        found.add(chosen)

    rec(0)
    covers = sorted(found, key=lambda c: (bin(c).count("1"), c))
    minimal: list[int] = []
    for c in covers:
        if not any(m & c == m for m in minimal):
            minimal.append(c)
    return minimal


@cache
def _cover_masks_cached(adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_minimal_cover_masks(adj))


def is_shedding_reference(adj: tuple[int, ...], v: int) -> bool:
    """Shedding test by enumerating the minimal covers of G - N[v].

    v is shedding iff every maximal independent set of G - N[v] (the
    complement of a minimal cover there) leaves some neighbour of v
    without a neighbour in it.
    """
    nv = adj[v]
    keep = ((1 << len(adj)) - 1) & ~(nv | (1 << v))
    for cover in _cover_masks_cached(_restrict(adj, keep)):
        s_mask = keep & ~cover
        if all(adj[w] & s_mask for w in range(len(adj)) if (nv >> w) & 1):
            return False
    return True


def _canonical(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Densely relabeled adjacency of the non-isolated part, whole: a
    disconnected graph stays one key, so ``vd_reference`` never splits."""
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


def vd_reference(adj: tuple[int, ...], cache: dict) -> bool:
    """Vertex decomposability by the definition, on the cover-based shedding
    test, searched on the whole graph with no split into components;
    ``cache`` is the caller's memo, keyed on the relabeled whole graph."""
    key = _canonical(adj)
    if not key:
        return True
    if key not in cache:
        all_mask = (1 << len(key)) - 1
        cache[key] = any(
            is_shedding_reference(key, v)
            and vd_reference(_restrict(key, all_mask & ~(1 << v)), cache)
            and vd_reference(_restrict(key, all_mask & ~(key[v] | (1 << v))), cache)
            for v in range(len(key)))
    return cache[key]
