"""Fillings of skew shapes.

A tableau is a shape plus a positive integer weight per box.  Its
classifiers are those of :mod:`skewtab.classify` run with the filling's
weight rows, which set the SCM recursion's cuts and add block constancy and
monotonicity to the unmixed test.  They share the SCM and unmixed memos,
which ``clear_caches`` (re-exported here) empties.  ``SkewTableau(...)``
and ``from_dict`` validate their input; the fillings that the harness
enumerates from a valid shape are built unchecked by ``_trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .shapes import SkewShape, delete_rows_cols, render
from .classify import (ShapeFlags, classify_flags, clear_caches, conjugate_rows, is_scm,
                       is_unmixed)


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
    def _trusted(cls, shape: SkewShape, rows: tuple[tuple[int, ...], ...]) -> "SkewTableau":
        """The filling of ``shape`` with the tuple rows ``rows``, unchecked;
        only for fillings derived from a valid shape (the twin of
        ``SkewShape._trusted``)."""
        t = object.__new__(cls)
        fields = t.__dict__
        fields["shape"] = shape
        fields["rows"] = rows
        return t

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

    def conjugate(self) -> "SkewTableau":
        return SkewTableau(self.shape.conjugate(), conjugate_rows(self.shape, self.rows))

    def delete(self, dead_rows: Iterable[int] = (),
               dead_cols: Iterable[int] = ()) -> list["SkewTableau"]:
        """Delete rows/columns, renormalize, and carry the weights along."""
        return [SkewTableau(*part)
                for part in delete_rows_cols(self.shape, dead_rows, dead_cols, self.rows)]

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


# -- classifiers -------------------------------------------------------------------


def is_scm_tableau(t: SkewTableau) -> bool:
    """Sequentially Cohen-Macaulay test for a filling (:func:`classify.is_scm`)."""
    return is_scm(t.shape, t.rows)


def is_unmixed_tableau(t: SkewTableau) -> bool:
    """Unmixed test for a filling (:func:`classify.is_unmixed`)."""
    return is_unmixed(t.shape, t.rows)


def classify_tableau(t: SkewTableau) -> ShapeFlags:
    """All five flags for a filling (:func:`classify.classify_flags`)."""
    return classify_flags(t.shape, t.rows)
