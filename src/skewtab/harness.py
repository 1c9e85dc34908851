"""Instance enumeration and classifier-vs-oracle cross-checking.

The enumerator streams every normal-form skew shape up to a box budget
exactly once (conjugates both included); the cross-check runs a classifier
and its brute-force oracle over all instances in bounds and reports
disagreements.  Work can be spread over processes at instance granularity;
each worker owns its memo caches.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import product
from multiprocessing import Pool
from typing import Iterator

from .shapes import SkewShape
from .graphs import from_shape, is_unmixed_graph, is_vertex_decomposable
from .classify import is_scm_skew, is_unmixed_skew
from .ideals import is_scm_weighted_oracle, is_unmixed_ideal, weighted_edge_ideal
from .tableau import (SkewTableau, is_scm_tableau, is_unmixed_tableau,
                      to_weighted_graph)

PROPERTIES = ("scm", "unmixed", "cm")


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
        return {
            "property": self.property,
            "weighted": self.weighted,
            "max_boxes": self.max_boxes,
            "max_weight": self.max_weight,
            "instances": self.instances,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "seconds": round(self.seconds, 3),
        }


def _classify_and_oracle_shape(prop: str, s: SkewShape) -> tuple[bool, bool]:
    g = from_shape(s)
    if prop == "scm":
        return is_scm_skew(s), is_vertex_decomposable(g)
    if prop == "unmixed":
        return is_unmixed_skew(s), is_unmixed_graph(g)
    if prop == "cm":
        return (is_unmixed_skew(s) and is_scm_skew(s),
                is_unmixed_graph(g) and is_vertex_decomposable(g))
    raise ValueError(f"unknown property {prop!r}")


def _classify_and_oracle_tableau(prop: str, t: SkewTableau) -> tuple[bool, bool]:
    g = to_weighted_graph(t)
    if prop == "scm":
        return is_scm_tableau(t), is_scm_weighted_oracle(g)
    if prop == "unmixed":
        return is_unmixed_tableau(t), is_unmixed_ideal(weighted_edge_ideal(g))
    if prop == "cm":
        return (is_unmixed_tableau(t) and is_scm_tableau(t),
                is_unmixed_ideal(weighted_edge_ideal(g)) and is_scm_weighted_oracle(g))
    raise ValueError(f"unknown property {prop!r}")


def _check_shape_batch(args: tuple) -> tuple[int, int, list[dict]]:
    prop, weighted, max_weight, shapes = args
    instances = agreements = 0
    bad: list[dict] = []
    for lam, mu in shapes:
        s = SkewShape._trusted(lam, mu)
        if weighted:
            for t in enumerate_fillings(s, max_weight):
                instances += 1
                got, want = _classify_and_oracle_tableau(prop, t)
                if got == want:
                    agreements += 1
                else:
                    bad.append({"instance": t.to_dict(),
                                "classifier": got, "oracle": want})
        else:
            instances += 1
            got, want = _classify_and_oracle_shape(prop, s)
            if got == want:
                agreements += 1
            else:
                bad.append({"instance": s.to_dict(),
                            "classifier": got, "oracle": want})
    return instances, agreements, bad


def crosscheck(prop: str, max_boxes: int, weighted: bool = False,
               max_weight: int = 2, jobs: int = 1) -> CrossCheckReport:
    """Run classifier vs oracle over every instance within bounds.

    Weighted runs range over connected shapes and all fillings with weights
    1..max_weight; unweighted runs include disconnected shapes.  The report
    is deterministic for fixed bounds regardless of the job count, which is
    capped at the CPU count.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"property must be one of {PROPERTIES}")
    t0 = time.monotonic()
    shapes = [(s.lam, s.mu) for s in enumerate_skew_shapes(max_boxes, connected_only=weighted)]
    report = CrossCheckReport(property=prop, weighted=weighted, max_boxes=max_boxes,
                              max_weight=max_weight if weighted else None)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        results = [_check_shape_batch((prop, weighted, max_weight, shapes))]
    else:
        chunks = [shapes[k::jobs] for k in range(jobs)]
        with Pool(jobs) as pool:
            results = pool.map(_check_shape_batch,
                               [(prop, weighted, max_weight, chunk) for chunk in chunks])
    for instances, agreements, bad in results:
        report.instances += instances
        report.agreements += agreements
        report.disagreements.extend(bad)
    report.disagreements.sort(key=lambda d: str(d["instance"]))
    report.seconds = time.monotonic() - t0
    return report
