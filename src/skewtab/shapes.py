"""Partitions, skew shapes and their geometry.

Rows and columns are 1-based throughout.  A skew shape is kept in normal
form: the inner boundary is weakly decreasing with last entry zero, every
row is nonempty, and every column 1..m holds at least one box.  Shapes that
lose rows or columns mid-computation are rebuilt through
:func:`delete_rows_cols` or :func:`normalize`, which drop empty lines,
reindex and split into connected components.  The empty shape is a valid
degenerate value.

Trust boundary: ``SkewShape(lam, mu)`` and ``SkewShape.from_dict`` take
outside input and validate it in full.  Shapes the package derives from a
valid shape (components, deletions, conjugate, half turn, the pieces of the
unmixed decomposition, enumerated shapes) are in normal form by
construction and are built by ``SkewShape._trusted``, which skips the
check.  Each shape computes its conjugate parts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


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


def _weakly_decreasing(seq: Sequence[int]) -> bool:
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integer parts."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        object.__setattr__(self, "parts", tuple(parts))
        if not all(type(p) is int and p >= 1 for p in self.parts):
            raise ValueError(f"partition parts must be positive integers: {self.parts}")
        if not _weakly_decreasing(self.parts):
            raise ValueError(f"partition parts must be weakly decreasing: {self.parts}")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(conjugate_parts(self.parts))


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
        if mu[-1] != 0:
            raise ValueError(f"not in normal form: last inner part {mu[-1]} != 0")
        if any(l <= m for l, m in zip(lam, mu)):
            raise ValueError(f"empty row in {lam}/{mu}")
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

    @property
    def box_count(self) -> int:
        return sum(l - m for l, m in zip(self.lam, self.mu))

    def row_interval(self, i: int) -> tuple[int, int]:
        """Inclusive column interval (mu_i+1, lam_i) of row i."""
        return self.mu[i - 1] + 1, self.lam[i - 1]

    def col_interval(self, j: int) -> tuple[int, int]:
        """Inclusive row interval (mu'_j+1, lam'_j) of column j."""
        return self.mu_conj()[j - 1] + 1, self.lam_conj()[j - 1]

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
        if self.is_empty:
            return self
        return SkewShape._trusted(*self._conj())

    def rotate180(self) -> "SkewShape":
        """Half turn: box (i,j) -> (n+1-i, m+1-j)."""
        if self.is_empty:
            return self
        n, m = self.n, self.m
        lam = tuple(m - self.mu[n - 1 - k] for k in range(n))
        mu = tuple(m - self.lam[n - 1 - k] for k in range(n))
        return SkewShape._trusted(lam, mu)

    def anti_transpose(self) -> "SkewShape":
        """Reflection along the anti-diagonal: box (i,j) -> (m+1-j, n+1-i)."""
        return self.rotate180().conjugate()

    # -- connectivity ----------------------------------------------------

    def is_connected(self) -> bool:
        """True iff mu_{i-1} <= lam_i - 1 for all 2 <= i <= n."""
        return all(self.mu[i - 1] <= self.lam[i] - 1 for i in range(1, self.n))

    def components(self) -> list["Component"]:
        """Connected components, each a normal-form shape with index maps; a
        connected shape is its own component."""
        if self.is_empty:
            return []
        if self.is_connected():
            return [Component(self, tuple(range(1, self.n + 1)), tuple(range(1, self.m + 1)))]
        return _split([(m + 1, l) for l, m in zip(self.lam, self.mu)],
                      range(1, self.n + 1), range(1, self.m + 1))

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

    def __str__(self) -> str:
        return f"{list(self.lam)}/{list(self.mu)}"


@dataclass(frozen=True)
class Component:
    """A connected piece of an ambient shape plus maps back into it."""

    shape: SkewShape
    row_map: tuple[int, ...]  # component row i -> ambient row row_map[i-1]
    col_map: tuple[int, ...]  # component col j -> ambient col col_map[j-1]

    def to_ambient(self, i: int, j: int) -> tuple[int, int]:
        return self.row_map[i - 1], self.col_map[j - 1]


def _split(intervals: Sequence[tuple[int, int]], row_ids: Sequence[int],
           col_ids: Sequence[int]) -> list[Component]:
    """Connected components of nested row intervals over columns 1..K, each
    column used by some row; ``row_ids``/``col_ids`` map each row and
    column (0-based position) back to the ambient shape."""
    comps: list[Component] = []
    start = 0
    # split where consecutive intervals do not even touch a common column
    for k in range(1, len(intervals) + 1):
        if k == len(intervals) or intervals[k][1] < intervals[k - 1][0]:
            chunk = intervals[start:k]
            shift = chunk[-1][0] - 1
            comps.append(Component(  # shape, row_map, col_map
                SkewShape._trusted(tuple([hi - shift for _, hi in chunk]),
                                   tuple([lo - 1 - shift for lo, _ in chunk])),
                tuple(row_ids[start:k]),
                tuple(col_ids[shift:chunk[0][1]]),
            ))
            start = k
    return comps


def normalize(rows: Sequence, row_ids: Sequence[int] | None = None,
              col_ids: Sequence[int] | None = None) -> list[Component]:
    """Rebuild normal-form components from leftover row contents.

    Each entry of ``rows`` is the surviving column content of one row:
    ``None`` or empty for a dead row, a pair ``(lo, hi)`` for an inclusive
    interval, or an explicit collection of column indices.  Empty rows are
    dropped, globally empty columns deleted, indices compacted, and the
    result split into connected components.  Rows that are not contiguous
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
    if row_ids is None:
        row_ids = range(1, len(cols_per_row) + 1)
    row_ids = list(row_ids)

    used_cols = sorted(set().union(*cols_per_row)) if cols_per_row else []
    new_col = {c: k + 1 for k, c in enumerate(used_cols)}

    intervals: list[tuple[int, int]] = []
    kept_rows: list[int] = []
    for rid, content in zip(row_ids, cols_per_row):
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
    if col_ids is not None:
        used_cols = [col_ids[c - 1] for c in used_cols]
    return _split(intervals, kept_rows, used_cols)


def delete_rows_cols(s: SkewShape, rows: Iterable[int] = (),
                     cols: Iterable[int] = ()) -> list[Component]:
    """Remove whole rows/columns and renormalize; maps refer to ``s``.

    O(n + m): a surviving row keeps the live columns of its interval, found
    from the next and previous live column; a coverage difference array
    marks the columns some row still uses, and prefix counts renumber them.
    """
    dead_rows = set(rows)
    dead_cols = set(cols)
    if not all(1 <= r <= s.n for r in dead_rows) or not all(1 <= c <= s.m for c in dead_cols):
        raise ValueError("row/column index out of range")
    m = s.m
    nxt = [m + 1] * (m + 2)  # nxt[c]: first live column >= c
    prv = [0] * (m + 1)  # prv[c]: last live column <= c
    for c in range(m, 0, -1):
        nxt[c] = nxt[c + 1] if c in dead_cols else c
    for c in range(1, m + 1):
        prv[c] = prv[c - 1] if c in dead_cols else c
    kept: list[tuple[int, int, int]] = []
    cover = [0] * (m + 2)
    for i, (l, u) in enumerate(zip(s.lam, s.mu), start=1):
        if i not in dead_rows:
            lo, hi = nxt[u + 1], prv[l]
            if lo <= hi:
                kept.append((i, lo, hi))
                cover[lo] += 1
                cover[hi + 1] -= 1
    used: list[int] = []
    index = [0] * (m + 1)  # index[c]: number of used columns <= c
    depth = 0
    for c in range(1, m + 1):
        depth += cover[c]
        if depth and c not in dead_cols:
            used.append(c)
        index[c] = len(used)
    return _split([(index[lo], index[hi]) for _, lo, hi in kept],
                  [i for i, _, _ in kept], used)


def conjugate(s: SkewShape) -> SkewShape:
    return s.conjugate()


def anti_transpose_shape(s: SkewShape) -> SkewShape:
    return s.anti_transpose()


def is_connected(s: SkewShape) -> bool:
    return s.is_connected()


# -- block grid ----------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """Maximal rectangle of the band grid; bands are inclusive intervals."""

    rows: tuple[int, int]
    cols: tuple[int, int]
    corner: bool

    @property
    def height(self) -> int:
        return self.rows[1] - self.rows[0] + 1

    @property
    def width(self) -> int:
        return self.cols[1] - self.cols[0] + 1

    @property
    def size(self) -> int:
        return min(self.height, self.width)

    @property
    def is_square(self) -> bool:
        return self.height == self.width

    def boxes(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j)
                         for i in range(self.rows[0], self.rows[1] + 1)
                         for j in range(self.cols[0], self.cols[1] + 1))


def _runs(values: Sequence) -> list[tuple[int, int]]:
    """Maximal runs of equal consecutive values, as 1-based inclusive intervals."""
    runs = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[start]:
            runs.append((start + 1, k))
            start = k
    return runs


def blocks(s: SkewShape) -> list[Block]:
    """Band grid of a connected shape.

    Rows are cut where (lam_i, mu_i) changes, columns where the conjugate
    pair changes; a block is a band product lying inside the shape, and a
    corner block has no block immediately to its right or below.  A row
    band's columns mu_i+1..lam_i end where the conjugate pair changes, so
    its blocks are one run of column bands and the grid costs O(n + m)
    plus one step per block.
    """
    if s.is_empty:
        return []
    if not s.is_connected():
        raise ValueError("blocks are defined for connected shapes")
    row_bands = _runs(list(zip(s.lam, s.mu)))
    col_bands = _runs(list(zip(s.lam_conj(), s.mu_conj())))
    band_of = [0] * (s.m + 1)  # band_of[j]: index of the column band of column j
    for cb, (lo, hi) in enumerate(col_bands):
        band_of[lo:hi + 1] = [cb] * (hi - lo + 1)
    # row band -> first and last column band inside the shape
    spans = [(band_of[s.mu[lo - 1] + 1], band_of[s.lam[lo - 1]]) for lo, _ in row_bands]
    spans.append((len(col_bands), -1))  # no row band below the last one
    out = []
    for rb, (first, last) in enumerate(spans[:-1]):
        below_first, below_last = spans[rb + 1]
        for cb in range(first, last + 1):
            corner = cb == last and not below_first <= cb <= below_last
            out.append(Block(rows=row_bands[rb], cols=col_bands[cb], corner=corner))
    return out


def _band(a: Sequence[int], b: Sequence[int], k: int) -> tuple[int, int]:
    """The maximal run of 1-based positions around ``k`` on which the pair
    (a, b) keeps its value at ``k``."""
    lo = hi = k
    while lo > 1 and a[lo - 2] == a[k - 1] and b[lo - 2] == b[k - 1]:
        lo -= 1
    while hi < len(a) and a[hi] == a[k - 1] and b[hi] == b[k - 1]:
        hi += 1
    return lo, hi


def block_containing(s: SkewShape, box: tuple[int, int]) -> Block:
    """The block of a connected shape through ``box``: the product of the
    row band and the column band through it, without building the grid."""
    if not s.is_connected():
        raise ValueError("blocks are defined for connected shapes")
    i, j = box
    if not s.contains(i, j):
        raise ValueError(f"box {box} not in shape")
    rows = _band(s.lam, s.mu, i)
    cols = _band(s.lam_conj(), s.mu_conj(), j)
    corner = not s.contains(rows[0], cols[1] + 1) and not s.contains(rows[1] + 1, cols[0])
    return Block(rows=rows, cols=cols, corner=corner)


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
