"""Combinatorial classifiers for skew Ferrers shapes and their fillings.

Each classifier takes a shape and ``rows``: a filling's weight rows, or
``None`` for the bare shape (the all-ones filling).  ``is_scm`` runs the
pendant-pivot deletion recursion for the sequentially Cohen-Macaulay
property, ``is_unmixed`` the prime-piece test and ``classify_flags`` the
five flags.  ``unmixed_decomposition`` peels a connected shape into
alternating prime unmixed pieces glued along shared extremal blocks,
returning a checkable certificate either way.

A shape's ideal is the sum of its components' ideals in disjoint
variables, so both tests run per connected component, memoized on its
(lam, mu, rows) in ``_scm_cache`` and ``_unmixed_cache``.  The unmixed memo
holds the (unmixed, monotone) booleans only, never a certificate, whose box
sets would outlive every large shape classified.  ``clear_caches`` empties
both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .shapes import (Component, Partition, SkewShape, block_containing, blocks,
                     delete_rows_cols)


# -- saturation (Ferrers case) ------------------------------------------------


def is_saturated(p: Partition | Iterable[int]) -> bool:
    """Strictly decreasing, or the parts contain the full staircase below
    the first repeated part."""
    parts = tuple(p.parts if isinstance(p, Partition) else p)
    for i in range(len(parts) - 1):
        if parts[i] == parts[i + 1]:
            return set(range(1, parts[i] + 1)) <= set(parts)
    return True


def is_scm_ferrers(p: Partition | Iterable[int]) -> bool:
    """A Ferrers ideal is sequentially Cohen-Macaulay iff its partition is
    saturated."""
    return is_saturated(p)


# -- weights carried to derived shapes ------------------------------------------


# A filling's weight rows: rows[i-1][k] weighs the box in row i, column
# mu_i + 1 + k.  None stands for the all-ones filling, i.e. the bare shape.
Rows = tuple[tuple[int, ...], ...] | None


def component_rows(s: SkewShape, rows: Rows, comp: Component) -> Rows:
    """Weight rows of ``comp``, a component of ``s`` or of a shape derived
    from ``s`` by deleting lines, read off through its index maps."""
    if rows is None:
        return None
    mu, cols = s.mu, comp.col_map
    return tuple(tuple(rows[r - 1][cols[j] - mu[r - 1] - 1] for j in range(m, l))
                 for r, l, m in zip(comp.row_map, comp.shape.lam, comp.shape.mu))


def conjugate_rows(s: SkewShape, rows: Rows) -> Rows:
    """Weight rows of the transpose of ``s``: box (i, j) moves to (j, i)."""
    if rows is None:
        return None
    mu, lamc, muc = s.mu, s.lam_conj(), s.mu_conj()
    return tuple(tuple(rows[i - 1][j - mu[i - 1] - 1]
                       for i in range(muc[j - 1] + 1, lamc[j - 1] + 1))
                 for j in range(1, s.m + 1))


def _as_dict(s: SkewShape, rows: Rows) -> dict:
    if rows is None:
        return s.to_dict()
    return {**s.to_dict(), "rows": [list(r) for r in rows]}


# -- SCM recursion -------------------------------------------------------------


_scm_cache: dict[tuple, bool] = {}


def scm_pivots(s: SkewShape, rows: Rows = None) -> list[dict]:
    """Deletion pivots for the SCM recursion of a connected shape or filling.

    A pivot is a row or column owning a pendant neighbor: a column j some of
    whose rows consist of the single box (i, j), or a row i some of whose
    columns consist of the single box (i, j).  Its derived shapes are the
    pivot line deleted and, for every weight level occurring on the pivot
    line, the neighbors at most that heavy deleted (weights carried along).
    Levels below the heaviest keep the heavier neighbors in play; the top
    level removes the whole neighborhood, and the emptied pivot line drops
    out on renormalizing.  Without weights there is one level.  Pendants at
    rows 1/n and columns 1/m give the four boundary cases (labeled 1-4 in
    traces); interior pendants are needed as well, e.g. for
    (3,3,2,2,2)/(1,1,1,0,0), whose only pendant row sits at column 2.
    """
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
    # boundary cases 1-4 first, then interior pivots (case None) as found
    return sorted(pivots, key=lambda p: p["boundary_case"] or 5)


def _derived(s: SkewShape, rows: Rows, piv: dict):
    """A pivot's derived shapes with their weights, one group per deletion;
    lazy, so that a failing group spares the deletions after it."""
    for dead_rows, dead_cols in piv["deletions"]:
        yield [(c.shape, component_rows(s, rows, c))
               for c in delete_rows_cols(s, dead_rows, dead_cols)]


def is_scm(s: SkewShape, rows: Rows) -> bool:
    """Sequentially Cohen-Macaulay test by the pendant-pivot recursion.

    Empty shapes are vacuously true; disconnected shapes are conjunctions
    over their components (mixed sums).  A connected shape or filling
    succeeds iff some pivot (:func:`scm_pivots`) has all of its derived
    shapes sequentially Cohen-Macaulay.  Memoized on (lam, mu, rows), with
    conjugate lookup.
    """
    if s.is_empty:
        return True
    if s.is_connected():
        return _scm_connected(s, rows)
    return all(is_scm(c.shape, component_rows(s, rows, c)) for c in s.components())


def _scm_connected(s: SkewShape, rows: Rows) -> bool:
    key = (s.lam, s.mu, rows)
    hit = _scm_cache.get(key)
    if hit is not None:
        return hit
    conj_key = (s.lam_conj(), s.mu_conj(), conjugate_rows(s, rows))
    hit = _scm_cache.get(conj_key)
    if hit is not None:
        return hit

    result = False
    for piv in scm_pivots(s, rows):
        if all(is_scm(*u) for group in _derived(s, rows, piv) for u in group):
            result = True
            break
    _scm_cache[key] = result
    _scm_cache[conj_key] = result
    return result


def scm_trace(s: SkewShape, rows: Rows) -> dict:
    """Decision-tree trace of the SCM recursion, JSON-ready."""
    node: dict = {"shape" if rows is None else "tableau": _as_dict(s, rows),
                  "scm": is_scm(s, rows)}
    if s.is_empty:
        node["empty"] = True
        return node
    if not s.is_connected():
        node["components"] = [scm_trace(c.shape, component_rows(s, rows, c))
                              for c in s.components()]
        return node
    pivots = scm_pivots(s, rows)
    node["pivots"] = [list(p["pivot"]) for p in pivots]
    if not node["scm"]:
        return node
    for piv in pivots:
        subs = list(_derived(s, rows, piv))
        if all(is_scm(*u) for group in subs for u in group):
            node["pivot"] = list(piv["pivot"])
            if rows is not None:
                node["levels"] = piv["levels"]
            if piv["boundary_case"] is not None:
                node["case"] = piv["boundary_case"]
            node["deletions"] = [[scm_trace(*u) for u in group] for group in subs]
            break
    return node


def is_scm_skew(s: SkewShape) -> bool:
    """Sequentially Cohen-Macaulay test of a shape (see :func:`is_scm`)."""
    return is_scm(s, None)


def explain_scm(s: SkewShape) -> dict:
    """Decision-tree trace of the SCM recursion of a shape, JSON-ready."""
    return scm_trace(s, None)


# -- unmixed decomposition ------------------------------------------------------


BoxSet = frozenset[tuple[int, int]]


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
    blocks: tuple[BoxSet, ...]
    entry_block: BoxSet
    exit_block: BoxSet

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


class _DecompFail(Exception):
    def __init__(self, reason: str, witness: dict | None = None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness or {}


@dataclass(frozen=True)
class _Frame:
    """A working sub-shape plus the map of its boxes back to ambient ones."""

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


def _flip(f: _Frame) -> _Frame:
    return _Frame(f.shape.anti_transpose(),
                  tuple(reversed(f.amb_rows)),
                  tuple(reversed(f.amb_cols)),
                  not f.swap)


def _peel_top(f: _Frame, drop: int) -> _Frame:
    s = f.shape
    lam, mu = s.lam[drop:], s.mu[drop:]
    sub = SkewShape._trusted(lam, mu)
    if not f.swap:
        return _Frame(sub, f.amb_rows[drop:], f.amb_cols[:sub.m], False)
    return _Frame(sub, f.amb_rows[:sub.m], f.amb_cols[drop:], True)


def _partition_piece_data(nu: tuple[int, ...], mu1: int, frame: _Frame):
    """Blocks/corners of the partition piece occupying the frame's top rows.

    Returns (ambient block boxsets ordered by band, entry, exit, defect)
    where defect is a nonsquare corner block's ambient boxes or None.
    """
    diag = SkewShape._trusted(nu, (0,) * len(nu))
    entry = exit_ = defect = None
    amb_blocks = []
    k, top = len(nu), nu[0]
    for blk in blocks(diag):
        boxes = frame.boxset((i, j + mu1) for i, j in blk.boxes())
        amb_blocks.append(boxes)
        if blk.corner and not blk.is_square and defect is None:
            defect = boxes
        if blk.rows[0] == 1 and blk.cols[1] == top:
            entry = boxes
        if blk.rows[1] == k and blk.cols[0] == 1:
            exit_ = boxes
    return amb_blocks, entry, exit_, defect


def _extract_piece(frame: _Frame, entering: BoxSet | None):
    """Take the top prime piece off the frame's shape (upper in local
    coordinates).  Returns (piece, next_frame, next_entering)."""
    s = frame.shape
    if s.n != s.m:
        raise _DecompFail("piece has a different number of rows and columns",
                          {"rows": s.n, "cols": s.m})
    mu1 = s.mu[0]
    k = 1
    while k < s.n and s.mu[k] == mu1:
        k += 1
    nu = tuple(l - mu1 for l in s.lam[:k])
    amb_blocks, entry, exit_, defect = _partition_piece_data(nu, mu1, frame)
    if defect is not None:
        raise _DecompFail("nonsquare corner block", {"block": sorted(defect)})
    orientation = "lower" if frame.swap else "upper"
    piece_boxes = frame.boxset((i, j) for i in range(1, k + 1)
                               for j in range(mu1 + 1, s.lam[i - 1] + 1))
    piece = PrimeShapePiece(orientation=orientation, boxes=piece_boxes,
                            blocks=tuple(amb_blocks), entry_block=entry,
                            exit_block=exit_)
    if entering is not None and entry != entering:
        raise _DecompFail("pieces do not glue along a shared extremal block",
                          {"expected": sorted(entering), "found": sorted(entry)})
    square = len(nu) == nu[0] and nu[-1] == nu[0]
    if k == s.n:
        if square and entering is not None:
            raise _DecompFail("square piece inside a multi-piece chain", {})
        return piece, None, None
    if square:
        raise _DecompFail("square piece with boxes left over",
                          {"piece": sorted(piece_boxes)})
    w = nu[-1]
    b = sum(1 for v in nu if v == w)
    if s.lam[k] > mu1 + w:
        raise _DecompFail("boxes extend past the shared block",
                          {"shared_block": sorted(exit_)})
    return piece, _peel_top(frame, k - b), exit_


def unmixed_decomposition(s: SkewShape) -> UnmixedCertificate:
    """Alternating prime-piece decomposition of a connected shape.

    Succeeds exactly when the skew Ferrers ideal is unmixed; otherwise the
    certificate carries the first violated condition as a witness.
    """
    if s.is_empty:
        return UnmixedCertificate(ok=True)
    if not s.is_connected():
        raise ValueError("unmixed_decomposition needs a connected shape")
    if s.n != s.m:
        return UnmixedCertificate(ok=False,
                                  reason="shape has a different number of rows and columns",
                                  witness={"rows": s.n, "cols": s.m})
    frame = _Frame(s, tuple(range(1, s.n + 1)), tuple(range(1, s.m + 1)), False)
    top_right = block_containing(s, (1, s.m))
    below = top_right.rows[1] < s.n and s.contains(top_right.rows[1] + 1, top_right.cols[0])
    left = top_right.cols[0] > 1 and s.contains(top_right.rows[0], top_right.cols[0] - 1)
    if below and left:
        return UnmixedCertificate(
            ok=False,
            reason="top-right corner block has blocks both below and to its left",
            witness={"block": sorted(top_right.boxes())})
    if below:
        frame = _flip(frame)
    pieces = []
    entering: BoxSet | None = None
    while True:
        try:
            piece, nxt, entering = _extract_piece(frame, entering)
        except _DecompFail as err:
            return UnmixedCertificate(ok=False, reason=err.reason, witness=err.witness)
        pieces.append(piece)
        if nxt is None:
            return UnmixedCertificate(ok=True, pieces=tuple(pieces))
        frame = _flip(nxt)


_unmixed_cache: dict[tuple, tuple[bool, bool]] = {}


def _unmixed_connected(s: SkewShape, rows: Rows) -> tuple[bool, bool]:
    """(unmixed, monotone) for a connected shape or filling, both False when
    the shape has no prime-piece decomposition; monotone alone is the
    filling's half of the direct Cohen-Macaulay criterion.  Memoized on
    (lam, mu, rows) with no conjugate lookup, so that a fault that is not
    symmetric under the transpose still shows."""
    key = (s.lam, s.mu, rows)
    hit = _unmixed_cache.get(key)
    if hit is not None:
        return hit
    cert = unmixed_decomposition(s)
    if not cert.ok or rows is None:
        result = cert.ok, cert.ok
    else:
        w = {(i, j): rows[i - 1][j - s.mu[i - 1] - 1] for i, j in s.boxes()}
        monotone = all(
            (w[i, j] <= w[nb]) if piece.orientation == "upper" else (w[i, j] >= w[nb])
            for piece in cert.pieces for i, j in piece.boxes
            for nb in ((i, j + 1), (i + 1, j)) if nb in piece.boxes)
        constant = all(len({w[b] for b in blk.boxes()}) == 1 for blk in blocks(s))
        result = monotone and constant, monotone
    _unmixed_cache[key] = result
    return result


def is_unmixed(s: SkewShape, rows: Rows) -> bool:
    """Unmixedness, per component: the shape has a prime-piece decomposition
    and the weights are constant on every block and monotone, i.e. weakly
    increasing along rows and columns of upper pieces, weakly decreasing
    along lower ones."""
    if s.is_connected():
        return _unmixed_connected(s, rows)[0]
    return all(_unmixed_connected(c.shape, component_rows(s, rows, c))[0]
               for c in s.components())


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
    """
    boxes = piece.boxes
    rows = sorted({i for i, _ in boxes})
    cols = sorted({j for _, j in boxes})
    r0, r1, c0, c1 = rows[0], rows[-1], cols[0], cols[-1]
    if rows != list(range(r0, r1 + 1)):
        raise ValueError("piece rows are not consecutive")

    per_row = {i: sorted(j for x, j in boxes if x == i) for i in rows}
    for i, js in per_row.items():
        if js != list(range(js[0], js[-1] + 1)):
            raise ValueError("piece row is not contiguous")

    if piece.orientation == "upper":
        if any(per_row[i][0] != c0 for i in rows):
            raise ValueError("upper piece is not flush left")
        nu = tuple(len(per_row[i]) for i in rows)
        if any(nu[t] < nu[t + 1] for t in range(len(nu) - 1)):
            raise ValueError("upper piece rows do not weakly decrease")

        def to_ambient(i: int, j: int) -> tuple[int, int]:
            return r0 + i - 1, c0 + j - 1
    elif piece.orientation == "lower":
        if any(per_row[i][-1] != c1 for i in rows):
            raise ValueError("lower piece is not flush right")
        nu = tuple(len(per_row[i]) for i in reversed(rows))
        if any(nu[t] < nu[t + 1] for t in range(len(nu) - 1)):
            raise ValueError("lower piece rows do not weakly decrease upward")

        def to_ambient(i: int, j: int) -> tuple[int, int]:
            return r1 - i + 1, c1 - j + 1
    else:
        raise ValueError(f"unknown orientation {piece.orientation}")
    return nu, to_ambient


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
        diag_blocks = blocks(SkewShape(nu))
        if any(blk.corner and not blk.is_square for blk in diag_blocks):
            return False, "piece is not an unmixed partition diagram"
        k, top = len(nu), nu[0]
        for blk in diag_blocks:
            boxes = frozenset(to_ambient(i, j) for i, j in blk.boxes())
            if blk.rows[0] == 1 and blk.cols[1] == top:
                tr = boxes
            if blk.rows[1] == k and blk.cols[0] == 1:
                bl = boxes
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
    if not s.is_connected():
        parts = [classify_flags(c.shape, component_rows(s, rows, c))
                 for c in s.components()]
        cm = all(p.cm for p in parts)
        return ShapeFlags(all(p.unmixed for p in parts), all(p.scm for p in parts), cm, cm, cm)
    unmixed, monotone = _unmixed_connected(s, rows)
    scm = _scm_connected(s, rows)
    cm = unmixed and scm
    if rows is not None:
        cm_direct = monotone and _scm_connected(s, None)
        if cm != cm_direct:
            raise RuntimeError(
                f"internal inconsistency classifying {_as_dict(s, rows)}: "
                f"unmixed&scm={cm} but direct criterion={cm_direct}")
    return ShapeFlags(unmixed=unmixed, scm=scm, cm=cm,
                      buchsbaum=cm or is_constant_full_square(s, rows, weight=1),
                      gcm=cm or is_constant_full_square(s, rows))


def classify_shape(s: SkewShape) -> ShapeFlags:
    """All five flags of a shape (see :func:`classify_flags`)."""
    return classify_flags(s, None)


def clear_caches() -> None:
    _scm_cache.clear()
    _unmixed_cache.clear()
