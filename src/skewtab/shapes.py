"""Skew shapes and their geometry.

Rows and columns are 1-based throughout.  A skew shape is kept in normal
form: the inner boundary is weakly decreasing with last entry zero, every
row is nonempty, and every column 1..m holds at least one box.  The empty
shape is a valid degenerate value.  :func:`_deleted` deletes whole rows
and columns, drops the lines left empty and splits the rest into its
connected components as memo keys (``Part``), each in normal form, with a
filling's weight rows (``Rows``) carried along; :func:`delete_rows_cols`
checks the indices and builds the components' shapes.

Trust boundary: ``SkewShape(lam, mu)`` and ``SkewShape.from_dict`` take
outside input and validate it in full, refusing more than
``MAX_SHAPE_BOXES`` boxes, or more columns than boxes, before any pass
over the columns.  Shapes the package derives from a
valid shape (components, deletions, conjugate, half turn, the pieces of the
unmixed decomposition, enumerated shapes) are in normal form by
construction and are built by ``SkewShape._trusted``, which skips the
check.  Each shape computes its conjugate parts once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import neg
from typing import Iterable, Iterator, Sequence


# A filling's weight rows: rows[i-1][k] weighs the box in row i, column
# mu_i + 1 + k.  None stands for the all-ones filling, i.e. the bare shape.
Rows = tuple[tuple[int, ...], ...] | None
# A connected component as its memo key: normal-form (lam, mu) and weight rows.
Part = tuple[tuple[int, ...], tuple[int, ...], Rows]


def conjugate_parts(parts: Sequence[int], length: int | None = None) -> tuple[int, ...]:
    """Conjugate of a weakly decreasing sequence: entry j counts parts >= j.

    Entries 1..length, zero past the largest part.  The count only falls
    as j grows, so one pass costs O(len(parts) + length).
    """
    if length is None:
        length = parts[0] if parts else 0
    conj = []
    count = len(parts)  # parts[:count] are the parts >= j
    for j in range(1, length + 1):
        while count and parts[count - 1] < j:
            count -= 1
        conj.append(count)
    return tuple(conj)


def _half_turn(lam: Sequence[int], mu: Sequence[int], rows: Rows = None) -> Part:
    """(lam, mu, rows) of the half turn (i,j) -> (n+1-i, m+1-j) of the
    nonempty shape lam/mu with weight rows ``rows``: every sequence is
    reversed, and the parts are taken from m = lam_1."""
    m = lam[0]
    return (tuple([m - p for p in reversed(mu)]), tuple([m - p for p in reversed(lam)]),
            None if rows is None else tuple([r[::-1] for r in reversed(rows)]))


# The most boxes a shape built from outside input may have.  Validation and
# every classifier cost grow with the box count (the column check alone is
# O(lam_1)), so a larger shape is refused before any such pass.
MAX_SHAPE_BOXES = 10**6


def _weakly_decreasing(seq: Sequence[int]) -> bool:
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


@dataclass(frozen=True)
class SkewShape:
    """Skew diagram lam/mu with box set {(i,j) : mu_i+1 <= j <= lam_i}."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __init__(self, lam: Iterable[int], mu: Iterable[int] | None = None):
        lam = tuple(lam)
        mu = tuple(mu) if mu is not None else (0,) * len(lam)
        if len(mu) < len(lam):
            mu = mu + (0,) * (len(lam) - len(mu))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        self._validate()

    @classmethod
    def _trusted(cls, lam: tuple[int, ...], mu: tuple[int, ...]) -> "SkewShape":
        """The shape lam/mu from tuples already in normal form, unchecked;
        only for shapes derived from a valid one."""
        s = object.__new__(cls)
        # straight into the instance dict: half the cost of object.__setattr__
        fields = s.__dict__
        fields["lam"] = lam
        fields["mu"] = mu
        return s

    def _validate(self) -> None:
        lam, mu = self.lam, self.mu
        if len(lam) != len(mu):
            raise ValueError("inner shape longer than outer shape")
        if not lam:
            return
        if not all(type(p) is int and p >= 1 for p in lam) or not _weakly_decreasing(lam):
            raise ValueError(f"outer shape must be weakly decreasing positive: {lam}")
        if not all(type(p) is int and p >= 0 for p in mu) or not _weakly_decreasing(mu):
            raise ValueError(f"inner shape must be weakly decreasing nonnegative: {mu}")
        boxes = sum(lam) - sum(mu)
        if boxes > MAX_SHAPE_BOXES:
            raise ValueError(f"shape has more than MAX_SHAPE_BOXES = {MAX_SHAPE_BOXES} boxes")
        if mu[-1] != 0:
            raise ValueError(f"not in normal form: last inner part {mu[-1]} != 0")
        if any(l <= m for l, m in zip(lam, mu)):
            raise ValueError(f"empty row in {lam}/{mu}")
        if lam[0] > boxes:
            # every column holds a box; this also bounds the column pass below
            raise ValueError(f"empty column in {lam}/{mu}: {lam[0]} columns, {boxes} boxes")
        for j, (lj, mj) in enumerate(zip(*self._conj()), start=1):
            if lj <= mj:
                raise ValueError(f"empty column {j} in {lam}/{mu}")

    # -- basic geometry -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of rows."""
        return len(self.lam)

    @property
    def m(self) -> int:
        """Number of columns (= lam_1)."""
        return self.lam[0] if self.lam else 0

    @property
    def is_empty(self) -> bool:
        return not self.lam

    def contains(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n and self.mu[i - 1] < j <= self.lam[i - 1]

    def boxes(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.n + 1)
                for j in range(self.mu[i - 1] + 1, self.lam[i - 1] + 1)]

    def _conj(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(lam', mu'), computed on first use and kept on the instance."""
        conj = self.__dict__.get("_conj_parts")
        if conj is None:
            conj = conjugate_parts(self.lam, self.m), conjugate_parts(self.mu, self.m)
            self.__dict__["_conj_parts"] = conj
        return conj

    def lam_conj(self) -> tuple[int, ...]:
        return self._conj()[0]

    def mu_conj(self) -> tuple[int, ...]:
        return self._conj()[1]

    # -- symmetries ------------------------------------------------------

    def conjugate(self) -> "SkewShape":
        """Transpose: box (i,j) -> (j,i)."""
        return SkewShape._trusted(*self._conj())

    def rotate180(self) -> "SkewShape":
        """Half turn: box (i,j) -> (n+1-i, m+1-j)."""
        if self.is_empty:
            return self
        lam, mu, _ = _half_turn(self.lam, self.mu)
        return SkewShape._trusted(lam, mu)

    def anti_transpose(self) -> "SkewShape":
        """Reflection along the anti-diagonal: box (i,j) -> (m+1-j, n+1-i)."""
        return self.rotate180().conjugate()

    # -- connectivity ----------------------------------------------------

    def is_connected(self) -> bool:
        """True iff mu_{i-1} <= lam_i - 1 for all 2 <= i <= n."""
        return not _cuts(self.lam, self.mu)

    def components(self) -> list["Component"]:
        """Connected components, each a normal-form shape with index maps; a
        connected shape is one component, equal to the shape."""
        lam, mu = self.lam, self.mu
        if not lam:
            return []
        cuts = _cuts(lam, mu)
        return [Component(SkewShape._trusted(piece_lam, piece_mu),
                          tuple(range(start + 1, stop + 1)),
                          tuple(range(mu[stop - 1] + 1, lam[start] + 1)))
                for (piece_lam, piece_mu, _), start, stop
                in zip(_parts(lam, mu, None, cuts), (0, *cuts), (*cuts, len(lam)))]

    # -- serialization / rendering ----------------------------------------

    def to_dict(self) -> dict:
        return {"lambda": list(self.lam), "mu": list(self.mu)}

    @classmethod
    def from_dict(cls, data: dict) -> "SkewShape":
        if not isinstance(data, dict) or not isinstance(data.get("lambda"), list) \
                or not isinstance(data.get("mu"), (list, type(None))):
            raise ValueError("shape JSON must be an object with a 'lambda' list "
                             "and an optional 'mu' list")
        return cls(data["lambda"], data.get("mu"))


@dataclass(frozen=True)
class Component:
    """A connected piece of an ambient shape plus maps back into it."""

    shape: SkewShape
    row_map: tuple[int, ...]  # component row i -> ambient row row_map[i-1]
    col_map: tuple[int, ...]  # component col j -> ambient col col_map[j-1]


def _cuts(lam: Sequence[int], mu: Sequence[int]) -> list[int]:
    """The rows (0-based) at which a new connected component of the rows
    lam/mu starts, in one pass.  Row k is the interval mu_k+1..lam_k; the
    intervals are nested, so the shape falls apart exactly where a row
    shares no column with the row above it: mu_{k-1} >= lam_k."""
    return [k for k in range(1, len(lam)) if mu[k - 1] >= lam[k]]


def _parts(lam: tuple[int, ...], mu: tuple[int, ...], rows: Rows,
           cuts: list[int]) -> Iterator[Part]:
    """The components of the nonempty rows lam/mu cut at ``cuts``, top to
    bottom, as (lam, mu, rows) keys: rows start..stop-1 (0-based) moved left
    by their last inner part mu_{stop-1} into normal form, and their slice
    of the weight rows ``rows``.  A generator that builds no shape.  lam and
    mu are tuples, since the last component keeps its slices as they are."""
    start = 0
    for stop in (*cuts, len(lam)):
        shift = mu[stop - 1]
        piece_rows = None if rows is None else rows[start:stop]
        if shift:
            yield (tuple([l - shift for l in lam[start:stop]]),
                   tuple([m - shift for m in mu[start:stop]]), piece_rows)
        else:  # the last component, already in place
            yield lam[start:stop], mu[start:stop], piece_rows
        start = stop


def _deleted(lam: tuple[int, ...], mu: tuple[int, ...], rows: Rows,
             dead_rows: set[int], dead_cols: set[int]) -> Iterable[Part]:
    """The connected components of lam/mu left when the rows ``dead_rows``
    and the columns ``dead_cols`` (1-based sets, in range, neither copied
    nor checked) are deleted, top to bottom, as memo keys (lam, mu, rows);
    ``rows`` are the weight rows of a filling, None for the bare shape.

    One pass over the rows: a surviving row's lam_i and mu_i drop by the
    number of dead columns at or left of them, found by bisection, its
    weights lose the entries of the dead columns, and a row left empty drops
    out.  A component's columns are contiguous, so a column that only
    deleted rows used lies left of or between components; moving each
    component flush left (:func:`_parts`) removes it.

    Lines of one kind dead from an end on (a boundary pivot's line, or its
    whole neighbourhood) are sliced off instead: rows from each sequence,
    columns 1..k or past c from the rows that keep a box, cut at that column.
    """
    dead = dead_rows or dead_cols
    k = len(dead)
    end = (len(lam) if dead_rows else lam[0]) if k else 0
    # the end line (1 or end) of an interval of dead lines of one kind, else 0
    at = 0 if not k or dead_rows and dead_cols else (
        1 if max(dead) == k else end if min(dead) == end - k + 1 else 0)
    if not at:
        dead = sorted(dead_cols)
        new_lam, new_mu, kept = [], [], []
        for i, (l, u) in enumerate(zip(lam, mu)):
            if i + 1 in dead_rows:
                continue
            below, upto = bisect_right(dead, u), bisect_right(dead, l)
            if upto - below == l - u:  # every column of the row is dead
                continue
            new_lam.append(l - upto)
            new_mu.append(u - below)
            if rows is not None:
                kept.append(rows[i] if upto == below else
                            tuple([w for c, w in enumerate(rows[i], u + 1) if c not in dead_cols]))
        lam, mu, rows = tuple(new_lam), tuple(new_mu), None if rows is None else tuple(kept)
    elif dead_rows:
        keep = slice(k, None) if at == 1 else slice(end - k)
        lam, mu, rows = lam[keep], mu[keep], None if rows is None else rows[keep]
    elif at == 1:  # rows[:q] have mu_i > k, rows[:r] lam_i > k
        q, r = bisect_right(mu, -k - 1, key=neg), bisect_right(lam, -k - 1, key=neg)
        rows = rows and rows[:q] + tuple([w[k - u:] for w, u in zip(rows[q:r], mu[q:r])])
        lam, mu = tuple([l - k for l in lam[:r]]), tuple([u - k for u in mu[:q]]) + (0,) * (r - q)
    else:  # rows[:f] have mu_i >= c, rows[:p] lam_i > c
        c = end - k
        f, p = bisect_right(mu, -c, key=neg), bisect_right(lam, -c - 1, key=neg)
        rows = rows and tuple([w[:c - u] for w, u in zip(rows[f:p], mu[f:p])]) + rows[p:]
        lam, mu = (c,) * (p - f) + lam[p:], mu[f:]
    return _parts(lam, mu, rows, _cuts(lam, mu)) if lam else ()


def delete_rows_cols(s: SkewShape, dead_rows: Iterable[int] = (), dead_cols: Iterable[int] = (),
                     rows: Rows = None) -> list[tuple[SkewShape, Rows]]:
    """:func:`_deleted` on ``s`` and its weight rows ``rows``, with every index
    checked to be in range, as (shape, weight rows) pairs."""
    dead_rows, dead_cols = set(dead_rows), set(dead_cols)
    if not all(1 <= r <= s.n for r in dead_rows) or not all(1 <= c <= s.m for c in dead_cols):
        raise ValueError("row/column index out of range")
    return [(SkewShape._trusted(lam, mu), piece_rows)
            for lam, mu, piece_rows in _deleted(s.lam, s.mu, rows, dead_rows, dead_cols)]


# -- rendering -----------------------------------------------------------

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def render(s: SkewShape, weights: dict[tuple[int, int], int] | None = None) -> str:
    """ASCII diagram: '.' outside the shape, '#' or the weight digit inside."""
    if s.is_empty:
        return "(empty shape)"
    lines = []
    for i in range(1, s.n + 1):
        chars = []
        for j in range(1, s.m + 1):
            if not s.contains(i, j):
                chars.append(".")
            elif weights is None:
                chars.append("#")
            else:
                w = weights[(i, j)]
                chars.append(_DIGITS[w] if w < len(_DIGITS) else "+")
        lines.append(" ".join(chars))
    return "\n".join(lines)
