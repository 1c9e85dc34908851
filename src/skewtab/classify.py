"""Combinatorial classifiers for skew Ferrers shapes and their fillings.

Each classifier takes a shape and ``rows``: a filling's weight rows, or
``None`` for the bare shape (the all-ones filling).  ``is_scm`` runs the
pendant-pivot deletion recursion for the sequentially Cohen-Macaulay
property, ``is_unmixed`` the prime-piece test and ``classify_flags`` the
five flags.  Every connected shape or filling gets its SCM verdict from its
first pivot alone: each threshold set of a derived filling's graph, with
the deleted lines added, is one of the parent's, so by the theorem the
weighted oracle rests on, every pivot of an SCM filling succeeds (proof in
``is_scm``).  ``scm_pivots`` yields the pivots lazily, so the recursion
builds the first pivot's deletions alone.  ``unmixed_decomposition`` peels a
connected shape into alternating prime unmixed pieces glued along shared
extremal blocks, returning a checkable certificate either way.  No block
grid is built: a block is a row band (a run of rows with equal (lam_i,
mu_i)) times a column band, so the decomposition reads the blocks it needs
off the bands, and a filling is constant on every block iff the rows of
each row band and the columns of each column band carry equal weights.

A shape's ideal is the sum of its components' ideals in disjoint
variables, so every classifier runs per connected component, read off its
memo key (lam, mu, rows) in normal form.  ``connected_parts`` splits a
shape into these keys.  The SCM search runs on keys alone, with no shape
built: a memo miss reads its first pivot off the key and cuts its children
off it as keys (``shapes._deleted``).  ``scm_trace`` lists the keys the
search settles as its DAG, one node each: a True node's first pivot
derives its children, and a False node names the child that failed, a
chain down to a pendant-free leaf.  Both memos are read off the key alone;
an unmixed miss builds the component's shape.  ``_scm_cache`` memoizes the
verdict on every key the search settles, and once per top-level component
on its transpose's key too; ``_unmixed_cache`` on a key's (lam, mu) whether
the shape decomposes: one boolean, never a certificate, whose box sets
would outlive every large shape classified.  A filling's weights are
checked against the pieces on each call.  ``clear_caches`` empties both.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import neg
from typing import Iterable, Iterator, Sequence

from .shapes import Part, Rows, SkewShape, _cuts, _deleted, _parts, _transpose, conjugate_parts


# -- saturation (Ferrers case) ------------------------------------------------


def is_saturated(parts: Sequence[int]) -> bool:
    """Whether a partition is saturated: strictly decreasing, or its parts
    contain the full staircase below the first repeated part.  A Ferrers
    ideal is sequentially Cohen-Macaulay iff its partition is saturated."""
    for i in range(len(parts) - 1):
        if parts[i] == parts[i + 1]:
            return set(range(1, parts[i] + 1)) <= set(parts)
    return True


# -- weights carried to derived shapes ------------------------------------------


def connected_parts(s: SkewShape, rows: Rows) -> Iterable[Part]:
    """The connected components of ``s`` as memo keys (lam, mu, rows), top
    to bottom: ``((s.lam, s.mu, rows),)`` for a connected shape, ``()`` for
    the empty one, else a generator, so a classifier that stops at a
    failing component builds no key past it.  No shape is built: the
    classifiers read the memos on a key first."""
    lam, mu = s.lam, s.mu
    cuts = _cuts(lam, mu)
    if not cuts:
        return ((lam, mu, rows),) if lam else ()
    return _parts(lam, mu, rows, cuts)


def _as_dict(lam: tuple[int, ...], mu: tuple[int, ...], rows: Rows) -> dict:
    shape = {"lambda": list(lam), "mu": list(mu)}
    return shape if rows is None else {**shape, "rows": [list(r) for r in rows]}


# -- SCM recursion -------------------------------------------------------------


_scm_cache: dict[tuple, bool] = {}


def scm_pivots(lam: tuple[int, ...], mu: tuple[int, ...], rows: Rows = None) -> Iterator[dict]:
    """Deletion pivots for the SCM recursion of a connected key (lam, mu, rows).

    A pivot is a row or column owning a pendant neighbor: a column j some of
    whose rows consist of the single box (i, j), or a row i some of whose
    columns consist of the single box (i, j).  Its derived shapes are the
    pivot line deleted and, for every weight level occurring on the pivot
    line, the neighbors at most that heavy deleted (weights carried along).
    Levels below the heaviest keep the heavier neighbors in play; the top
    level removes the whole neighborhood, and the emptied pivot line drops
    out on renormalizing.  A bare shape weighs 1: one level.  Pendants at
    rows 1/n and columns 1/m give the four boundary cases (labeled 1-4 in
    traces); interior pendants are needed as well, e.g. for
    (3,3,2,2,2)/(1,1,1,0,0), whose only pendant row sits at column 2.

    A generator: the boundary cases come first, in order 1-4, then the
    interior rows and the interior columns, each in ascending order.  A
    pivot's deletion sets are built only when it is reached, so the
    recursion, which uses the first pivot alone, builds no others.  Row i
    owns a pendant iff mu_{i-1} > lam_{i+1} (mu_0 = infinity, lam_{n+1} = 0),
    so cases 1-4 are read off the key's end parts, with no pass over it; a
    column's rows are found by bisection.
    """
    n, m = len(lam), lam[0]

    def lines() -> Iterator[tuple[str, int, int | None]]:
        ends = (("row", 1, 1, n == 1 or lam[0] > lam[1]), ("col", m, 2, lam[0] - mu[0] == 1),
                ("col", 1, 3, m > 1 and lam[-1] == 1), ("row", n, 4, n > 1 and mu[-2] > 0))
        yield from ((kind, line, case) for kind, line, case, found in ends if found)
        yield from (("row", i, None) for i in range(2, n) if mu[i - 2] > lam[i])
        yield from (("col", j, None) for j in sorted({l for l, u in zip(lam, mu) if l - u == 1})
                    if 1 < j < m)

    for kind, line, case in lines():
        row = kind == "row"
        if row:
            nbhd = range(mu[line - 1] + 1, lam[line - 1] + 1)
            weights = None if rows is None else rows[line - 1]
        else:
            below, upto = bisect_right(mu, -line, key=neg), bisect_right(lam, -line, key=neg)
            nbhd = range(below + 1, upto + 1)  # the rows with mu_i < line <= lam_i
            weights = None if rows is None else [rows[i - 1][line - mu[i - 1] - 1] for i in nbhd]
        levels = [1] if weights is None else sorted(set(weights))
        cuts = [set(nbhd)] if weights is None else [
            {k for k, w in zip(nbhd, weights) if w <= c} for c in levels]
        deletions = [({line}, set()) if row else (set(), {line})]
        deletions += [(set(), cut) if row else (cut, set()) for cut in cuts]
        yield {"pivot": (kind, line), "boundary_case": case, "levels": levels,
               "deletions": deletions}


def is_scm(s: SkewShape, rows: Rows) -> bool:
    """Sequentially Cohen-Macaulay test by the pendant-pivot recursion.

    Empty shapes are vacuously true; disconnected shapes are conjunctions
    over their components (mixed sums).  A connected shape or filling is
    SCM iff its first pivot (:func:`scm_pivots`) has all of its derived
    shapes sequentially Cohen-Macaulay, and False when it has no pivot.
    Memoized on (lam, mu, rows) at every node of the search, and each
    component's verdict on its transpose's key too (:func:`_scm_connected`).

    Every pivot gives the same answer, so the first one decides.  Let G be
    the filling's weighted graph (a vertex per line, an edge per box,
    weighted by the box; a bare shape weighs 1 everywhere).  For x^a
    outside I(G,w), the threshold set U(a) is the set of vertices u with an
    edge uv of weight <= a_v and a_u below it, and sqrt(I : x^a) =
    I(G - U(a)) + (x_U(a)).  The proof rests on the theorem the weighted
    oracle (``ideals.is_scm_weighted_oracle``) uses: I(G,w) is SCM iff
    every sqrt(I : x^a) is, that is, iff G - U is vertex decomposable for
    every threshold set U (bipartite SCM iff vertex decomposable, Van Tuyl
    2009).  A pivot is a line x owning a pendant y, N(y) = {x}; isolated
    lines belong to no threshold set and do not change vertex
    decomposability.

    - Level-c child G - Z, Z the neighbours of x of weight <= c: for a
      threshold vector a' of G - Z with set U', put a_x = max(a'_x, c),
      a_z = 0 on Z and a' elsewhere.  Beyond a'_x, x dominates only
      edges into Z, as its other edges weigh more than c, and Z dominates
      nothing, so x^a is outside I and U(a) = U' + Z.
    - Line-deletion child G - x: put a_x = 0 and a_y = w(xy).  Only x is
      newly dominated, so U(a) = U' + {x}.

    So every G_child - U' is some G - U, and on an SCM filling every pivot
    succeeds.  Conversely a succeeding pivot makes the filling SCM, the
    recursion's soundness; for a bare shape x is a shedding vertex, as
    N[y] is inside N[x] (Woodroofe 2009), so G is vertex decomposable when
    G - x and G - N[x] are.
    """
    return _scm_all(connected_parts(s, rows), top=True)


def _scm_all(keys: Iterable[Part], top: bool = False) -> bool:
    """Whether every component key in ``keys`` is SCM, ``top`` as in
    :func:`_scm_connected`: a loop, not all() over a generator, which would
    add a frame per level of the search."""
    for key in keys:
        if not _scm_connected(key, top):
            return False
    return True


def _scm_connected(key: Part, top: bool = False) -> bool:
    """The SCM verdict of the connected component ``key``, read off the
    memo.  A miss reads the first pivot off the key, and its groups come
    from :func:`_deleted` as keys, one by one, so that a failing group
    spares the deletions after it.  A ``top`` component, one that ``is_scm``
    or ``classify_flags`` decides, has its verdict stored under its
    transpose's key too, as the cross-check meets K and its transpose as
    two instances; the search's own nodes are not paired, as that would
    cost each a transpose and save a search almost nothing."""
    hit = _scm_cache.get(key)
    if hit is not None:
        return hit
    lam, mu, rows = key
    piv = next(scm_pivots(lam, mu, rows), None)
    # the first pivot decides (proof in is_scm)
    result = piv is not None and all(_scm_all(_deleted(lam, mu, rows, *dead))
                                     for dead in piv["deletions"])
    _scm_cache[key] = result
    if top:
        _scm_cache[_transpose(lam, mu, rows)] = result
    return result


def scm_trace(s: SkewShape, rows: Rows) -> dict:
    """The SCM search of ``s`` as its DAG, JSON-ready: one node per distinct
    component key, numbered as first met, from the ``components`` of
    ``connected_parts`` on.  A True node lists its first pivot's deletion
    groups as node ids; a False node with a pivot names in ``failed`` the
    first derived key, in search order, that is not SCM; a node with no
    pivot is a pendant-free leaf.  Verdicts are read off the memo."""
    keys: list[Part] = []
    ids: dict[Part, int] = {}

    def node_id(key: Part) -> int:
        if ids.setdefault(key, len(keys)) == len(keys):
            keys.append(key)
        return ids[key]

    trace = {"scm": is_scm(s, rows), "components": [node_id(k) for k in connected_parts(s, rows)],
             "nodes": []}
    for lam, mu, r in keys:  # grows as the nodes meet new keys
        pivots = list(scm_pivots(lam, mu, r))
        node = {"shape" if r is None else "tableau": _as_dict(lam, mu, r),
                "scm": _scm_connected((lam, mu, r)), "pivots": [list(p["pivot"]) for p in pivots]}
        trace["nodes"].append(node)
        if not pivots:
            continue
        piv = pivots[0]
        node["pivot"] = list(piv["pivot"])
        if r is not None:
            node["levels"] = piv["levels"]
        if piv["boundary_case"] is not None:
            node["case"] = piv["boundary_case"]
        groups = (_deleted(lam, mu, r, *dead) for dead in piv["deletions"])
        if node["scm"]:  # the first pivot decides (proof in is_scm)
            node["deletions"] = [[node_id(k) for k in group] for group in groups]
        else:
            node["failed"] = node_id(next(k for group in groups for k in group
                                          if not _scm_connected(k)))
    return trace


def is_scm_skew(s: SkewShape) -> bool:
    """Sequentially Cohen-Macaulay test of a shape (see :func:`is_scm`)."""
    return is_scm(s, None)


# -- unmixed decomposition ------------------------------------------------------


BoxSet = frozenset[tuple[int, int]]


def _runs(values: Sequence) -> list[tuple[int, int]]:
    """Maximal runs of equal consecutive values, as 1-based inclusive
    intervals: on (lam_i, mu_i) the row bands of a shape, on the conjugate
    pairs its column bands.  A block is a row band times a column band."""
    runs = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[start]:
            runs.append((start + 1, k))
            start = k
    return runs


def _rect(rows: tuple[int, int], cols: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """The boxes of the band product rows x cols."""
    return ((i, j) for i in range(rows[0], rows[1] + 1) for j in range(cols[0], cols[1] + 1))


def _partition_grid(nu: tuple[int, ...]) -> list[tuple[tuple[int, int], list]]:
    """The blocks of the partition diagram nu, as (row band, its column
    bands) from the top.  A column band ends where nu' drops, i.e. at a part
    of nu, so a row band holds the column bands up to its length, and the
    last of them is its corner block."""
    col_bands = _runs(conjugate_parts(nu))
    upto = {hi: k + 1 for k, (_, hi) in enumerate(col_bands)}
    return [(rows, col_bands[:upto[nu[rows[0] - 1]]]) for rows in _runs(nu)]


@dataclass(frozen=True)
class PrimeShapePiece:
    """One prime unmixed piece, in ambient coordinates.

    Upper pieces are partition diagrams flush against the top-left of their
    bounding box; lower pieces are half-turned partition diagrams, flush
    bottom-right.  The entry block contains the piece's top-right box, the
    exit block its bottom-left box; consecutive pieces share exit = entry.
    """

    orientation: str  # "upper" | "lower"
    boxes: BoxSet
    entry_block: BoxSet
    exit_block: BoxSet

    @cached_property
    def blocks(self) -> tuple[BoxSet, ...]:
        """The piece's blocks as ambient box sets, by row band, then column
        band.  Built on first use: the classifiers need only the extremal
        blocks, and a staircase piece has a block per box.  The bands of a
        lower piece run along its columns, from the right, as the
        decomposition peels it transposed."""
        nu, to_ambient = _piece_as_partition(self)
        lower = self.orientation == "lower"
        if lower:
            nu = conjugate_parts(nu)
        return tuple(frozenset(to_ambient(j, i) if lower else to_ambient(i, j)
                               for i, j in _rect(rows, cols))
                     for rows, bands in _partition_grid(nu) for cols in bands)

    def to_dict(self) -> dict:
        return {
            "orientation": self.orientation,
            "boxes": sorted(self.boxes),
            "blocks": [sorted(b) for b in self.blocks],
            "entry_block": sorted(self.entry_block),
            "exit_block": sorted(self.exit_block),
        }


@dataclass(frozen=True)
class UnmixedCertificate:
    ok: bool
    pieces: tuple[PrimeShapePiece, ...] = ()
    reason: str = ""
    witness: dict | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        if self.ok:
            return {"unmixed": True, "pieces": [p.to_dict() for p in self.pieces]}
        return {"unmixed": False, "reason": self.reason, "witness": self.witness}


@dataclass(frozen=True)
class _Frame:
    """A working sub-shape plus the map of its boxes back to ambient ones;
    a ``swap`` frame is reflected, its rows ambient columns."""

    shape: SkewShape
    amb_rows: tuple[int, ...]
    amb_cols: tuple[int, ...]
    swap: bool

    def to_ambient(self, i: int, j: int) -> tuple[int, int]:
        if self.swap:
            return self.amb_rows[j - 1], self.amb_cols[i - 1]
        return self.amb_rows[i - 1], self.amb_cols[j - 1]

    def boxset(self, boxes: Iterable[tuple[int, int]]) -> BoxSet:
        return frozenset(self.to_ambient(i, j) for i, j in boxes)

    def step(self, drop: int) -> _Frame:
        """The top ``drop`` rows dropped, the rest reflected along the
        anti-diagonal.  The rows left span the leftmost columns, as the
        bottom row starts in column 1."""
        s = self.shape
        sub = SkewShape._trusted(s.lam[drop:], s.mu[drop:])
        rows, cols = self.amb_rows[drop:], self.amb_cols[:sub.m]
        if self.swap:
            rows, cols = self.amb_rows[:sub.m], self.amb_cols[drop:]
        return _Frame(sub.anti_transpose(), rows[::-1], cols[::-1], not self.swap)


def unmixed_decomposition(s: SkewShape) -> UnmixedCertificate:
    """Alternating prime-piece decomposition of a connected shape.

    Succeeds exactly when the skew Ferrers ideal is unmixed; otherwise the
    certificate carries the first violated condition as a witness.  Each
    pass takes the top prime piece, upper in the frame's coordinates, off
    the frame: its rows down to the first change of mu.  A piece that is
    the whole frame ends the chain; else the frame drops the rows above the
    piece's exit block and flips, so the pieces alternate.  With blocks
    below the top-right corner block, an opening flip starts with a lower
    piece.

    No frame or glue is checked: every frame is square and every piece
    glues to the last.  The first frame is ``s``, checked square, or its
    reflection.  In an n x n frame whose top piece nu has square corner
    blocks, the row band of part v_b, over the parts v_1 > ... > v_p >
    v_{p+1} = 0, has height v_b - v_{b+1}: nu has k = v_1 = n - mu_1 rows
    (row 1 ends in column n) and a v_p x v_p exit block.  The step leaves
    n - k + v_p rows and mu_1 + v_p columns; the reflection keeps this
    square.  The old exit block is now the top-right v_p x v_p square, and
    as mu_1 >= 1 no row below it reaches the last column, so the new top
    row band has h <= v_p rows.  For h < v_p the next row has another mu,
    the piece is h rows at least v_p long and its corner block is not
    square; for h = v_p the entry block, if square, is the old exit block.
    """
    if s.is_empty:
        return UnmixedCertificate(ok=True)
    if not s.is_connected():
        raise ValueError("unmixed_decomposition needs a connected shape")
    if s.n != s.m:
        return UnmixedCertificate(
            False, reason="shape has a different number of rows and columns",
            witness={"rows": s.n, "cols": s.m})
    frame = _Frame(s, tuple(range(1, s.n + 1)), tuple(range(1, s.m + 1)), False)
    # the top-right block: the first row band times the last column band
    top = _runs(list(zip(s.lam, s.mu)))[0]
    right = _runs(list(zip(s.lam_conj(), s.mu_conj())))[-1]
    below = top[1] < s.n and s.contains(top[1] + 1, right[0])
    left = right[0] > 1 and s.contains(1, right[0] - 1)
    if below and left:
        return UnmixedCertificate(
            False, reason="top-right corner block has blocks both below and to its left",
            witness={"block": sorted(_rect(top, right))})
    if below:
        frame = frame.step(0)
    pieces: list[PrimeShapePiece] = []
    while True:
        t = frame.shape
        mu1 = t.mu[0]
        k = t.mu.count(mu1)  # the rows of mu_1 come first: mu decreases
        nu = tuple(l - mu1 for l in t.lam[:k])
        grid = _partition_grid(nu)

        def ambient(rows: tuple[int, int], cols: tuple[int, int]) -> BoxSet:
            return frame.boxset((i, j + mu1) for i, j in _rect(rows, cols))

        for rows, bands in grid:  # a row band's last column band is its corner block
            if rows[1] - rows[0] != bands[-1][1] - bands[-1][0]:
                return UnmixedCertificate(False, reason="nonsquare corner block",
                                          witness={"block": sorted(ambient(rows, bands[-1]))})
        # the entry block holds the top-right box, the exit block the bottom-left one
        entry = ambient(grid[0][0], grid[0][1][-1])
        boxes = frame.boxset((i, j) for i in range(1, k + 1)
                             for j in range(mu1 + 1, t.lam[i - 1] + 1))
        pieces.append(PrimeShapePiece("lower" if frame.swap else "upper", boxes, entry,
                                      ambient(grid[-1][0], grid[-1][1][0])))
        # A square piece that is the whole frame cannot follow another piece:
        # its one block would be its entry, equal to the previous exit block,
        # but the frame also holds the previous frame's rows below that block.
        if k == t.n:
            return UnmixedCertificate(True, tuple(pieces))
        if len(nu) == nu[0] == nu[-1]:
            return UnmixedCertificate(False, reason="square piece with boxes left over",
                                      witness={"piece": sorted(boxes)})
        # The rows below the piece end at or left of its last column, as
        # lam_{k+1} <= lam_k = mu1 + nu_k: no box extends past the exit block.
        frame = frame.step(k - nu.count(nu[-1]))


def _constant_on_blocks(s: SkewShape, rows: Rows) -> bool:
    """Whether a filling is constant on every block of its shape.  A block
    is a row band times a column band, so it is exactly when consecutive
    rows of one row band (equal (lam_i, mu_i)) carry equal weight rows, and
    consecutive columns of one column band equal weight columns."""
    for lam, mu, lines in ((s.lam, s.mu, rows), _transpose(s.lam, s.mu, rows)):
        if any(lines[k] != lines[k + 1] for k in range(len(lines) - 1)
               if lam[k] == lam[k + 1] and mu[k] == mu[k + 1]):
            return False
    return True


_unmixed_cache: dict[tuple, bool] = {}


def _unmixed_connected(key: Part) -> tuple[bool, bool]:
    """(unmixed, monotone) for the connected component ``key``, both False
    when its shape has no prime-piece decomposition; monotone alone is the
    filling's half of the direct Cohen-Macaulay criterion.  Whether the
    shape decomposes is memoized on (lam, mu) with no conjugate lookup, so
    that a fault that is not symmetric under the transpose still shows.
    The component's shape is built on a miss, and for a filling of an
    unmixed shape, whose weights are checked on every call."""
    lam, mu, rows = key
    ok = _unmixed_cache.get((lam, mu))
    if ok is None or ok and rows is not None:  # the certificate is needed
        c = SkewShape._trusted(lam, mu)
        cert = unmixed_decomposition(c)
        ok = _unmixed_cache[lam, mu] = cert.ok
    if not ok or rows is None:
        return ok, ok
    w = {(i, j): rows[i - 1][j - mu[i - 1] - 1] for i, j in c.boxes()}
    monotone = all(
        (w[i, j] <= w[nb]) if piece.orientation == "upper" else (w[i, j] >= w[nb])
        for piece in cert.pieces for i, j in piece.boxes
        for nb in ((i, j + 1), (i + 1, j)) if nb in piece.boxes)
    return monotone and _constant_on_blocks(c, rows), monotone


def is_unmixed(s: SkewShape, rows: Rows) -> bool:
    """Unmixedness, per component: the shape has a prime-piece decomposition
    and the weights are constant on every block and monotone, i.e. weakly
    increasing along rows and columns of upper pieces, weakly decreasing
    along lower ones."""
    return all(_unmixed_connected(key)[0] for key in connected_parts(s, rows))


def is_unmixed_skew(s: SkewShape) -> bool:
    """Unmixedness of a shape: all components admit a prime-piece
    decomposition."""
    return is_unmixed(s, None)


# -- certificate validation ------------------------------------------------------


def _piece_as_partition(piece: PrimeShapePiece):
    """Interpret a piece's box set as a flush partition diagram.

    Returns (nu, to_ambient) where nu is the partition read in the piece's
    own orientation and to_ambient maps diagram coordinates back to ambient
    boxes, or raises ValueError if the box set is not of the stated form.
    The boxes are counted per row from the flush corner (top-left for an
    upper piece, bottom-right for a lower one), a missing row counting 0.
    As the boxes are distinct, they form the diagram of those counts exactly
    when the counts weakly decrease (a gap shows as a rise) and each box
    lies within its row's count of the flush column.
    """
    boxes = piece.boxes
    if not boxes:
        raise ValueError("piece has no boxes")
    if piece.orientation == "upper":
        r, c, step = min(i for i, _ in boxes), min(j for _, j in boxes), 1
    elif piece.orientation == "lower":
        r, c, step = max(i for i, _ in boxes), max(j for _, j in boxes), -1
    else:
        raise ValueError(f"unknown orientation {piece.orientation}")
    local = [(step * (i - r), step * (j - c)) for i, j in boxes]  # 0-based, from the corner
    nu = [0] * (max(i for i, _ in local) + 1)
    for i, _ in local:
        nu[i] += 1
    if any(nu[t] < nu[t + 1] for t in range(len(nu) - 1)) or any(j >= nu[i] for i, j in local):
        raise ValueError(f"{piece.orientation} piece is not a flush partition diagram")

    def to_ambient(i: int, j: int) -> tuple[int, int]:
        return r + step * (i - 1), c + step * (j - 1)
    return tuple(nu), to_ambient


def validate_certificate(s: SkewShape, cert: UnmixedCertificate) -> tuple[bool, str]:
    """Independent check of a successful decomposition certificate."""
    if not cert.ok:
        return False, "certificate is a failure witness"
    all_boxes = set(s.boxes())
    if s.is_empty:
        return (not cert.pieces, "empty shape")
    union = set()
    total = 0
    for piece in cert.pieces:
        union |= piece.boxes
        total += len(piece.boxes)
    shared = sum(len(cert.pieces[k].exit_block) for k in range(len(cert.pieces) - 1))
    if union != all_boxes:
        return False, "pieces do not cover the box set"
    if total - shared != len(all_boxes):
        return False, "pieces overlap outside the shared extremal blocks"
    for k in range(len(cert.pieces) - 1):
        a, b = cert.pieces[k], cert.pieces[k + 1]
        if a.orientation == b.orientation:
            return False, "orientations do not alternate"
        if a.exit_block != b.entry_block:
            return False, "exit and entry blocks differ"
        if a.boxes & b.boxes != a.exit_block:
            return False, "consecutive pieces do not meet exactly in the shared block"
    first, last = cert.pieces[0], cert.pieces[-1]
    if (1, s.m) not in first.entry_block or (s.n, 1) not in last.exit_block:
        return False, "chain does not run from the top-right to the bottom-left corner"
    for piece in cert.pieces:
        try:
            nu, to_ambient = _piece_as_partition(piece)
        except ValueError as err:
            return False, str(err)
        grid = _partition_grid(nu)
        if any(rows[1] - rows[0] != bands[-1][1] - bands[-1][0] for rows, bands in grid):
            return False, "piece is not an unmixed partition diagram"
        (top, top_bands), (bottom, bottom_bands) = grid[0], grid[-1]
        tr = frozenset(to_ambient(i, j) for i, j in _rect(top, top_bands[-1]))
        bl = frozenset(to_ambient(i, j) for i, j in _rect(bottom, bottom_bands[0]))
        entry, exit_ = (tr, bl) if piece.orientation == "upper" else (bl, tr)
        if entry != piece.entry_block or exit_ != piece.exit_block:
            return False, "entry/exit blocks are not the piece's extremal blocks"
    return True, "ok"


# -- combined flags ----------------------------------------------------------------


FLAG_NAMES = ("unmixed", "scm", "cm", "buchsbaum", "gcm")


@dataclass(frozen=True)
class ShapeFlags:
    unmixed: bool
    scm: bool
    cm: bool
    buchsbaum: bool
    gcm: bool
    vacuous: bool = False

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in FLAG_NAMES}
        if self.vacuous:
            out["vacuous"] = True
        return out


def is_constant_full_square(s: SkewShape, rows: Rows = None, weight: int | None = None) -> bool:
    """Whether s is the full n x n square with empty inner shape and a
    constant filling, of the given weight if one is given (a bare shape has
    weight 1)."""
    weights = {1} if rows is None else {w for r in rows for w in r}
    return (not s.is_empty and s.n == s.m and all(l == s.m for l in s.lam) and not any(s.mu)
            and len(weights) == 1 and weight in (None, *weights))


def classify_flags(s: SkewShape, rows: Rows) -> ShapeFlags:
    """All five flags.  cm = unmixed and scm.  Generalized CM adds to CM
    only the constant full square, and Buchsbaum only the square of weight
    1: on the n x n square of weight w, n >= 2, Mayer-Vietoris gives
    H^1_m(S/I) = S/(x_i^w, y_j^w), of finite length, killed by m only if
    w = 1.  A disconnected instance is Buchsbaum or gCM only when CM: by
    Kunneth (Goto-Watanabe 1978) H^t(R_1) (x) H^{d_2}(R_2) lies in
    H^{t + d_2}(R_1 (x) R_2), and it has infinite length when R_1 is not CM
    (H^t(R_1) != 0 for some t < d_1), as every component has d_2 >= 1.

    For a filling, cm is also computed by the direct criterion
    (Cohen-Macaulay shape plus monotone weights on its pieces); the two
    must agree.
    """
    if s.is_empty:
        return ShapeFlags(True, True, True, True, True, vacuous=True)
    unmixed = scm = True
    for key in connected_parts(s, rows):
        part_unmixed, monotone = _unmixed_connected(key)
        part_scm = _scm_connected(key, top=True)
        if rows is not None:
            part_cm = part_unmixed and part_scm
            cm_direct = monotone and _scm_connected((*key[:2], None), top=True)
            if part_cm != cm_direct:
                instance = _as_dict(*key)
                raise RuntimeError(
                    f"internal inconsistency classifying {instance}: "
                    f"unmixed&scm={part_cm} but direct criterion={cm_direct}")
        unmixed, scm = unmixed and part_unmixed, scm and part_scm
    cm = unmixed and scm
    # a full square is connected: a disconnected instance is Buchsbaum or gCM iff cm
    return ShapeFlags(unmixed=unmixed, scm=scm, cm=cm,
                      buchsbaum=cm or is_constant_full_square(s, rows, weight=1),
                      gcm=cm or is_constant_full_square(s, rows))


def classify_shape(s: SkewShape) -> ShapeFlags:
    """All five flags of a shape (see :func:`classify_flags`)."""
    return classify_flags(s, None)


def clear_caches() -> None:
    _scm_cache.clear()
    _unmixed_cache.clear()
