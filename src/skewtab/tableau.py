"""Fillings of skew shapes.

A tableau is a shape plus a positive integer weight per box.  Its
classifiers are those of :mod:`skewtab.classify` run with the filling's
weight rows, which set the SCM recursion's cuts and add block constancy and
monotonicity to the unmixed test.  They share the SCM and unmixed memos,
which ``clear_caches`` (re-exported here) empties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .shapes import Component, SkewShape, delete_rows_cols, render
from .classify import (ShapeFlags, classify_flags, clear_caches, component_rows,
                       conjugate_rows, is_scm, is_unmixed, scm_trace)
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
        return SkewTableau(self.shape.conjugate(), conjugate_rows(self.shape, self.rows))

    def components(self) -> list["SkewTableau"]:
        return [self._restrict(comp) for comp in self.shape.components()]

    def _restrict(self, comp: Component) -> "SkewTableau":
        return SkewTableau(comp.shape, component_rows(self.shape, self.rows, comp))

    def delete(self, rows: Iterable[int] = (), cols: Iterable[int] = ()) -> list["SkewTableau"]:
        """Delete rows/columns, renormalize, and carry the weights along."""
        return [self._restrict(comp) for comp in delete_rows_cols(self.shape, rows, cols)]

    def to_dict(self) -> dict:
        return {"lambda": list(self.shape.lam), "mu": list(self.shape.mu),
                "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, data: dict) -> "SkewTableau":
        return cls(SkewShape.from_dict(data), rows_from_dict(data))

    def render(self) -> str:
        return render(self.shape, self.weights())


def rows_from_dict(data) -> list:
    """The weight rows of a filling read from JSON, checked to be a list of
    lists; the weights themselves are checked by :func:`validate`."""
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise TableauError("filling JSON must be an object whose 'rows' is a list of lists")
    return rows


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


# -- classifiers -------------------------------------------------------------------


def is_scm_tableau(t: SkewTableau) -> bool:
    """Sequentially Cohen-Macaulay test for a filling (:func:`classify.is_scm`)."""
    return is_scm(t.shape, t.rows)


def explain_scm_tableau(t: SkewTableau) -> dict:
    """Decision-tree trace of the weighted recursion, JSON-ready."""
    return scm_trace(t.shape, t.rows)


def is_unmixed_tableau(t: SkewTableau) -> bool:
    """Unmixed test for a filling (:func:`classify.is_unmixed`)."""
    return is_unmixed(t.shape, t.rows)


def classify_tableau(t: SkewTableau) -> ShapeFlags:
    """All five flags for a filling (:func:`classify.classify_flags`)."""
    return classify_flags(t.shape, t.rows)
