"""Instance enumeration and classifier-vs-oracle cross-checking.

The enumerator streams every normal-form skew shape up to a box budget
exactly once (conjugates both included).  One table, RULES, gives the
classifier's and the brute-force oracle's verdict on each of the five flags
of a shape or a filling; the cross-check compares the two over all
instances in bounds and reports disagreements.

The oracle runs once per orbit of the transpose and the half turn, and its
verdict is reused on the orbit's other instances; the classifier runs on
every instance.  This is sound because the ideal of a filling is the edge
ideal of a weighted bipartite graph with an edge x_i y_j of weight w(i,j)
per box.  The transpose (i,j) -> (j,i) swaps the x's and the y's, and the
half turn (i,j) -> (n+1-i, m+1-j) reverses both index sets; both carry the
weights along.  So each image's ideal is the original with its variables
renamed, and all five flags agree on the four images.  Work can be spread
over processes, one whole orbit to a worker; each worker owns its memos.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from itertools import product
from multiprocessing import Pool
from typing import Iterator

from .shapes import SkewShape
from .graphs import from_shape, is_buchsbaum_graph, is_unmixed_graph, is_vertex_decomposable
from .classify import (FLAG_NAMES, Rows, classify_shape, conjugate_rows, is_constant_full_square,
                       is_scm_skew, is_unmixed_skew)
from .ideals import is_scm_weighted_oracle, is_unmixed_ideal, weighted_edge_ideal
from .tableau import (SkewTableau, classify_tableau, is_scm_tableau, is_unmixed_tableau,
                      to_weighted_graph)


def enumerate_skew_shapes(max_boxes: int, connected_only: bool = False) -> Iterator[SkewShape]:
    """All normal-form skew shapes with at most ``max_boxes`` boxes, each
    exactly once, in a deterministic order."""
    if max_boxes < 1:
        raise ValueError("max_boxes must be >= 1")

    def rec(rows: list[tuple[int, int]], boxes: int) -> Iterator[SkewShape]:
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


def enumerate_fillings(s: SkewShape, max_weight: int) -> Iterator[SkewTableau]:
    """All weight functions of ``s`` into 1..max_weight (empty shape: none)."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if s.is_empty:
        return
    sizes = [s.lam[i] - s.mu[i] for i in range(s.n)]
    for combo in product(range(1, max_weight + 1), repeat=sum(sizes)):
        it = iter(combo)
        yield SkewTableau(s, [[next(it) for _ in range(k)] for k in sizes])


@dataclass
class CrossCheckReport:
    property: str
    weighted: bool
    max_boxes: int
    max_weight: int | None
    instances: int = 0
    agreements: int = 0
    disagreements: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


class Verdicts(dict):
    """Verdicts on a shape or filling ``x`` by one route, "classifier" or
    "oracle" (brute force).  Each entry is computed on first lookup by its
    rule in RULES, which reads ``v.x`` and the route's other entries."""

    __slots__ = ("x", "rules")

    def __init__(self, x: SkewShape | SkewTableau, route: str):
        self.x, self.rules = x, RULES[isinstance(x, SkewTableau), route]

    def __missing__(self, name: str):
        self[name] = value = self.rules[name](self)
        return value


def _cm(v: Verdicts) -> bool:
    return v["unmixed"] and v["scm"]


# (weighted, route) -> entry -> rule, for each flag of FLAG_NAMES and the
# oracle's graph.  Rules look module-level functions up when they run, so
# rebinding one of those names here (as a tracer does) takes effect.
RULES = {
    (False, "classifier"): {
        "unmixed": lambda v: is_unmixed_skew(v.x),
        "scm": lambda v: is_scm_skew(v.x),
        "cm": _cm,
        "buchsbaum": lambda v: classify_shape(v.x).buchsbaum,
        "gcm": lambda v: classify_shape(v.x).gcm,
    },
    (True, "classifier"): {
        "unmixed": lambda v: is_unmixed_tableau(v.x),
        "scm": lambda v: is_scm_tableau(v.x),
        "cm": _cm,
        "buchsbaum": lambda v: classify_tableau(v.x).buchsbaum,
        "gcm": lambda v: classify_tableau(v.x).gcm,
    },
    (False, "oracle"): {
        "graph": lambda v: from_shape(v.x),
        "unmixed": lambda v: is_unmixed_graph(v["graph"]),
        "scm": lambda v: is_vertex_decomposable(v["graph"]),
        "cm": _cm,
        "buchsbaum": lambda v: is_buchsbaum_graph(v["graph"]),
        "gcm": lambda v: v["buchsbaum"],  # the same property for squarefree ideals
    },
    # Buchsbaum/gCM of a filling: the oracle's cm, or the classifier's square
    # rule, which no disconnected filling meets (those are cm, by Kunneth).
    # Not an independent check until a weighted gCM oracle exists.
    (True, "oracle"): {
        "graph": lambda v: to_weighted_graph(v.x),
        "unmixed": lambda v: is_unmixed_ideal(weighted_edge_ideal(v["graph"])),
        "scm": lambda v: is_scm_weighted_oracle(v["graph"]),
        "cm": _cm,
        "buchsbaum": lambda v: v["cm"] or is_constant_full_square(v.x.shape, v.x.rows, 1),
        "gcm": lambda v: v["cm"] or is_constant_full_square(v.x.shape, v.x.rows),
    },
}


def _shape_images(s: SkewShape) -> tuple[SkewShape, SkewShape, SkewShape, SkewShape]:
    """``s``, its transpose, its half turn and the transpose of its half turn."""
    rot = s.rotate180()
    return s, s.conjugate(), rot, rot.conjugate()


def _orbit(images: tuple[SkewShape, ...], rows: Rows = None) -> set[tuple]:
    """(lam, mu, rows) of an instance and its three images, where ``images``
    are the :func:`_shape_images` of the instance's shape and ``rows`` its
    weight rows, None for a bare shape."""
    s, conj, rot, rot_conj = images
    if rows is None:
        return {(t.lam, t.mu, None) for t in images}
    rot_rows = tuple(tuple(reversed(r)) for r in reversed(rows))
    return {(s.lam, s.mu, rows), (conj.lam, conj.mu, conjugate_rows(s, rows)),
            (rot.lam, rot.mu, rot_rows),
            (rot_conj.lam, rot_conj.mu, conjugate_rows(rot, rot_rows))}


def _check_shape_batch(args: tuple) -> tuple[int, list[dict]]:
    prop, weighted, max_weight, shapes = args
    instances = 0
    bad: list[dict] = []
    # (lam, mu, rows) -> the oracle's verdict, for the images of checked
    # instances that are still to come.  Each instance comes once, so each
    # entry is read once, and only the orbits still open are held.  The
    # images are built once per shape, and only for the first instance of an
    # orbit: computing them for every instance cost more than the cheap
    # unweighted oracles they save.
    pending: dict[tuple, bool] = {}
    for lam, mu in shapes:
        s = SkewShape._trusted(lam, mu)
        images = None
        for x in (enumerate_fillings(s, max_weight) if weighted else (s,)):
            instances += 1
            got = Verdicts(x, "classifier")[prop]
            rows = x.rows if weighted else None
            want = pending.pop((lam, mu, rows), None)
            if want is None:
                want = Verdicts(x, "oracle")[prop]
                images = images or _shape_images(s)
                for key in _orbit(images, rows) - {(lam, mu, rows)}:
                    pending[key] = want
            if got != want:
                bad.append({"instance": x.to_dict(), "classifier": got, "oracle": want})
    return instances, bad


def crosscheck(prop: str, max_boxes: int, weighted: bool = False,
               max_weight: int = 2, jobs: int = 1) -> CrossCheckReport:
    """Run classifier vs oracle over every instance within bounds.

    Weighted runs range over connected shapes and all fillings with weights
    1..max_weight; unweighted runs include disconnected shapes.  The report
    is deterministic for fixed bounds regardless of the job count, which is
    capped at the CPU count.
    """
    if prop not in FLAG_NAMES:
        raise ValueError(f"property must be one of {FLAG_NAMES}")
    t0 = time.monotonic()
    shapes = [(s.lam, s.mu) for s in enumerate_skew_shapes(max_boxes, connected_only=weighted)]
    report = CrossCheckReport(property=prop, weighted=weighted, max_boxes=max_boxes,
                              max_weight=max_weight if weighted else None)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        results = [_check_shape_batch((prop, weighted, max_weight, shapes))]
    else:
        # the images of an orbit's first shape place the whole orbit
        groups: list[list] = []
        group_of: dict[tuple, list] = {}
        for shape in shapes:
            group = group_of.get(shape)
            if group is None:
                group = []
                groups.append(group)
                for t in _shape_images(SkewShape._trusted(*shape)):
                    group_of[t.lam, t.mu] = group
            group.append(shape)
        chunks = [[shape for group in groups[k::jobs] for shape in group] for k in range(jobs)]
        with Pool(jobs) as pool:
            results = pool.map(_check_shape_batch,
                               [(prop, weighted, max_weight, chunk) for chunk in chunks])
    for instances, bad in results:
        report.instances += instances
        report.agreements += instances - len(bad)
        report.disagreements.extend(bad)
    report.disagreements.sort(key=lambda d: str(d["instance"]))
    report.seconds = time.monotonic() - t0
    return report
