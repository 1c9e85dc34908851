"""Fillings of skew shapes and the weighted classifiers.

A tableau is a shape plus a positive integer weight per box.  The unmixed
test combines the shape's prime-piece decomposition with block constancy
and per-piece monotonicity; the sequentially Cohen-Macaulay test runs the
weighted pendant-pivot deletion recursion (thresholded by the heaviest
pendant at the pivot line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .shapes import Component, SkewShape, blocks, delete_rows_cols, render
from .classify import ShapeFlags, classify_shape, unmixed_decomposition
from .ideals import WeightedGraph


class TableauError(ValueError):
    pass


@dataclass(frozen=True)
class SkewTableau:
    """A shape with one weight per box; rows[i-1][k] is the weight of the
    box in row i, column mu_i + 1 + k."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, shape: SkewShape, rows: Iterable[Iterable[int]]):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        validate(self)

    @classmethod
    def from_weights(cls, shape: SkewShape,
                     weights: Mapping[tuple[int, int], int]) -> "SkewTableau":
        extra = set(weights) - set(shape.boxes())
        if extra:
            raise TableauError(f"weights on boxes outside the shape: {sorted(extra)}")
        try:
            rows = [[weights[(i, j)] for j in range(shape.mu[i - 1] + 1, shape.lam[i - 1] + 1)]
                    for i in range(1, shape.n + 1)]
        except KeyError as err:
            raise TableauError(f"no weight for box {err.args[0]}") from None
        return cls(shape, rows)

    def weight(self, i: int, j: int) -> int:
        if not self.shape.contains(i, j):
            raise TableauError(f"box ({i},{j}) not in shape")
        return self.rows[i - 1][j - self.shape.mu[i - 1] - 1]

    def weights(self) -> dict[tuple[int, int], int]:
        return {(i, j): self.weight(i, j) for i, j in self.shape.boxes()}

    @property
    def is_empty(self) -> bool:
        return self.shape.is_empty

    def conjugate(self) -> "SkewTableau":
        return SkewTableau.from_weights(
            self.shape.conjugate(),
            {(j, i): w for (i, j), w in self.weights().items()})

    def components(self) -> list["SkewTableau"]:
        out = []
        for comp in self.shape.components():
            out.append(self._restrict(comp))
        return out

    def _restrict(self, comp: Component) -> "SkewTableau":
        w = {}
        for i in range(1, comp.shape.n + 1):
            for j in range(comp.shape.mu[i - 1] + 1, comp.shape.lam[i - 1] + 1):
                w[(i, j)] = self.weight(*comp.to_ambient(i, j))
        return SkewTableau.from_weights(comp.shape, w)

    def delete(self, rows: Iterable[int] = (), cols: Iterable[int] = ()) -> list["SkewTableau"]:
        """Delete rows/columns, renormalize, and carry the weights along."""
        return [self._restrict(comp) for comp in delete_rows_cols(self.shape, rows, cols)]

    def to_dict(self) -> dict:
        return {"lambda": list(self.shape.lam), "mu": list(self.shape.mu),
                "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, data: dict) -> "SkewTableau":
        shape = SkewShape.from_dict(data)
        if "rows" not in data:
            raise TableauError("filling JSON must have a 'rows' key")
        return cls(shape, data["rows"])

    def render(self) -> str:
        return render(self.shape, self.weights())


def validate(t: SkewTableau) -> None:
    """Enforce the invariants: one positive integer weight per box."""
    if len(t.rows) != t.shape.n:
        raise TableauError(f"{len(t.rows)} weight rows for {t.shape.n} shape rows")
    for i in range(1, t.shape.n + 1):
        want = t.shape.lam[i - 1] - t.shape.mu[i - 1]
        row = t.rows[i - 1]
        if len(row) != want:
            raise TableauError(f"row {i} has {len(row)} weights, expected {want}")
        for w in row:
            if type(w) is not int or w < 1:
                raise TableauError(f"weight {w!r} in row {i} is not a positive integer")


def to_weighted_graph(t: SkewTableau) -> WeightedGraph:
    """Edge-weighted bipartite graph of the filling (x's then y's)."""
    s = t.shape
    vertices = [f"x{i}" for i in range(1, s.n + 1)] + [f"y{j}" for j in range(1, s.m + 1)]
    weights = {(f"x{i}", f"y{j}"): w for (i, j), w in t.weights().items()}
    return WeightedGraph.make(vertices, weights)


# -- sequentially Cohen-Macaulay recursion --------------------------------------


_scm_cache: dict[tuple, bool] = {}


def _key(t: SkewTableau) -> tuple:
    return (t.shape.lam, t.shape.mu, t.rows)


def scm_tableau_pivots(t: SkewTableau) -> list[dict]:
    """Weighted deletion pivots of a connected tableau.

    As in the unweighted recursion, a pivot is a line owning a pendant
    neighbor.  Its derived tableaux are the pivot line deleted, and, for
    every weight level occurring on the pivot line, the neighbors at most
    that heavy deleted.  Levels below the heaviest pendant keep the
    surviving pendants in play; the top level removes the line's whole
    neighborhood.
    """
    s = t.shape
    lam, mu = s.lam, s.mu
    lamc, muc = s.lam_conj(), s.mu_conj()
    pend_cols: dict[int, list[int]] = {}
    for i in range(1, s.n + 1):
        if lam[i - 1] - mu[i - 1] == 1:
            pend_cols.setdefault(lam[i - 1], []).append(i)
    pend_rows: dict[int, list[int]] = {}
    for j in range(1, s.m + 1):
        if lamc[j - 1] - muc[j - 1] == 1:
            pend_rows.setdefault(lamc[j - 1], []).append(j)

    boundary, interior = [], []
    for i in sorted(pend_rows):
        weights = {t.weight(i, j) for j in range(mu[i - 1] + 1, lam[i - 1] + 1)}
        cuts = [(set(), {j for j in range(mu[i - 1] + 1, lam[i - 1] + 1)
                         if t.weight(i, j) <= c}) for c in sorted(weights)]
        case = 1 if i == 1 else (4 if i == s.n else None)
        piv = {"pivot": ("row", i), "boundary_case": case,
               "levels": sorted(weights),
               "deletions": [({i}, set())] + cuts}
        (boundary if case else interior).append(piv)
    for j in sorted(pend_cols):
        weights = {t.weight(i, j) for i in range(muc[j - 1] + 1, lamc[j - 1] + 1)}
        cuts = [({i for i in range(muc[j - 1] + 1, lamc[j - 1] + 1)
                  if t.weight(i, j) <= c}, set()) for c in sorted(weights)]
        case = 2 if j == s.m else (3 if j == 1 else None)
        piv = {"pivot": ("col", j), "boundary_case": case,
               "levels": sorted(weights),
               "deletions": [(set(), {j})] + cuts}
        (boundary if case else interior).append(piv)
    boundary.sort(key=lambda p: p["boundary_case"])
    return boundary + interior


def is_scm_tableau(t: SkewTableau) -> bool:
    """Sequentially Cohen-Macaulay test for a filling.

    Empty fillings are vacuously true and disconnected ones classify per
    component.  A connected filling succeeds iff some pivot line has both
    derived tableaux (line deleted / light neighbors deleted, weights
    carried, renormalized) sequentially Cohen-Macaulay.  Ties with the
    threshold count as deletions.  Memoized with conjugate lookup.
    """
    if t.is_empty:
        return True
    comps = t.components()
    if len(comps) > 1:
        return all(is_scm_tableau(c) for c in comps)
    key = _key(t)
    hit = _scm_cache.get(key)
    if hit is not None:
        return hit
    conj = t.conjugate()
    hit = _scm_cache.get(_key(conj))
    if hit is not None:
        return hit

    result = False
    for piv in scm_tableau_pivots(t):
        ok = True
        for rows, cols in piv["deletions"]:
            if not all(is_scm_tableau(sub) for sub in t.delete(rows, cols)):
                ok = False
                break
        if ok:
            result = True
            break
    _scm_cache[key] = result
    _scm_cache[_key(conj)] = result
    return result


def explain_scm_tableau(t: SkewTableau) -> dict:
    """Decision-tree trace of the weighted recursion, JSON-ready."""
    node: dict = {"tableau": t.to_dict(), "scm": is_scm_tableau(t)}
    if t.is_empty:
        node["empty"] = True
        return node
    comps = t.components()
    if len(comps) > 1:
        node["components"] = [explain_scm_tableau(c) for c in comps]
        return node
    pivots = scm_tableau_pivots(t)
    node["pivots"] = [list(p["pivot"]) for p in pivots]
    if not node["scm"]:
        return node
    for piv in pivots:
        subs = [t.delete(rows, cols) for rows, cols in piv["deletions"]]
        if all(is_scm_tableau(u) for group in subs for u in group):
            node["pivot"] = list(piv["pivot"])
            node["levels"] = piv["levels"]
            if piv["boundary_case"] is not None:
                node["case"] = piv["boundary_case"]
            node["deletions"] = [[explain_scm_tableau(u) for u in group]
                                 for group in subs]
            break
    return node


# -- unmixedness -----------------------------------------------------------------


def is_unmixed_tableau(t: SkewTableau) -> bool:
    """Unmixed test: unmixed shape, weights constant on every block, and
    block values weakly increasing along rows and columns of upper pieces,
    weakly decreasing along lower pieces."""
    if t.is_empty:
        return True
    comps = t.components()
    if len(comps) > 1:
        return all(is_unmixed_tableau(c) for c in comps)
    cert = unmixed_decomposition(t.shape)
    if not cert.ok:
        return False
    w = t.weights()
    for blk in blocks(t.shape):
        vals = {w[b] for b in blk.boxes()}
        if len(vals) > 1:
            return False
    for piece in cert.pieces:
        increasing = piece.orientation == "upper"
        for (i, j) in piece.boxes:
            for (i2, j2) in ((i, j + 1), (i + 1, j)):
                if (i2, j2) in piece.boxes:
                    if increasing and w[(i, j)] > w[(i2, j2)]:
                        return False
                    if not increasing and w[(i, j)] < w[(i2, j2)]:
                        return False
    return True


# -- combined flags ----------------------------------------------------------------


def _monotone_on_pieces(t: SkewTableau) -> bool:
    cert = unmixed_decomposition(t.shape)
    if not cert.ok:
        return False
    w = t.weights()
    for piece in cert.pieces:
        increasing = piece.orientation == "upper"
        for (i, j) in piece.boxes:
            for (i2, j2) in ((i, j + 1), (i + 1, j)):
                if (i2, j2) in piece.boxes:
                    if increasing and w[(i, j)] > w[(i2, j2)]:
                        return False
                    if not increasing and w[(i, j)] < w[(i2, j2)]:
                        return False
    return True


def classify_tableau(t: SkewTableau) -> ShapeFlags:
    """All five flags for a filling.

    cm is computed both as unmixed-and-scm and by the direct criterion
    (Cohen-Macaulay shape plus piecewise monotone filling); the two must
    agree.  Buchsbaum and generalized CM add only the constant filling of a
    full square.
    """
    if t.is_empty:
        return ShapeFlags(True, True, True, True, True, vacuous=True)
    comps = t.components()
    if len(comps) > 1:
        parts = [classify_tableau(c) for c in comps]
        return ShapeFlags(
            unmixed=all(p.unmixed for p in parts),
            scm=all(p.scm for p in parts),
            cm=all(p.cm for p in parts),
            buchsbaum=all(p.buchsbaum for p in parts),
            gcm=all(p.gcm for p in parts),
        )
    unmixed = is_unmixed_tableau(t)
    scm = is_scm_tableau(t)
    cm = unmixed and scm
    shape_flags = classify_shape(t.shape)
    cm_direct = shape_flags.cm and _monotone_on_pieces(t)
    if cm != cm_direct:
        raise RuntimeError(
            f"internal inconsistency classifying {t.to_dict()}: "
            f"unmixed&scm={cm} but direct criterion={cm_direct}")
    constant = len(set(sum(t.rows, ()))) == 1
    full_square = (t.shape.n == t.shape.m and all(l == t.shape.m for l in t.shape.lam)
                   and all(v == 0 for v in t.shape.mu))
    bb = cm or (full_square and constant)
    return ShapeFlags(unmixed=unmixed, scm=scm, cm=cm, buchsbaum=bb, gcm=bb)


def clear_caches() -> None:
    _scm_cache.clear()
