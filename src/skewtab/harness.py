"""Instance enumeration and classifier-vs-oracle cross-checking.

The enumerator streams every normal-form skew shape up to a box budget
exactly once (conjugates both included).  It grows a shape row by row and
enters only the row prefixes that can still be completed within the budget
and, for connected shapes only, that are connected.  A shape's fillings are
built unchecked, their tuple rows sliced from each weight product.
``classifier_verdict`` and ``oracle_verdict`` give the classifier's and the
brute-force oracle's verdict on one of the five flags of a shape or a
filling; ``oracle_verdict`` is the one-flag form of ``oracle_verdicts``,
which ``classify --oracle`` calls for all five and which runs each oracle
once.  The cross-check compares the two sides over all instances in bounds
and reports disagreements.  Both look the functions they call up by their
names in this module when they run, so rebinding one of those names (as a
tracer does) takes effect.

The oracle runs once per orbit of the transpose and the half turn, and its
verdict is reused on the orbit's other instances.  This is sound because
the ideal of a filling is the edge ideal of a weighted bipartite graph
with an edge x_i y_j of weight w(i,j) per box.  The transpose
(i,j) -> (j,i) swaps the x's and the y's, and the half turn
(i,j) -> (n+1-i, m+1-j) reverses both index sets; both carry the weights
along.  So each image's ideal is the original with its variables renamed,
and all five flags agree on the four images.  The classifier is called on
every instance, but the SCM memo answers for the transpose of an instance
it has already decided.  Each worker walks the whole stream and checks the
orbits dealt to it in turn, with its own memos.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from itertools import accumulate, product
from multiprocessing import Pool
from typing import Iterator

from .shapes import Rows, SkewShape, _half_turn
from .graphs import from_shape, is_buchsbaum_graph
from .classify import (FLAG_NAMES, classify_shape, conjugate_rows, is_constant_full_square,
                       is_scm_skew, is_unmixed_skew)
from .ideals import is_scm_weighted_oracle, is_unmixed_ideal
from .tableau import SkewTableau, classify_tableau, is_scm_tableau, is_unmixed_tableau


def enumerate_skew_shapes(max_boxes: int, connected_only: bool = False) -> Iterator[SkewShape]:
    """All normal-form skew shapes with at most ``max_boxes`` boxes, each
    exactly once, in a deterministic order.

    The shape grows row by row, each row an interval lo..hi of columns
    nested in the one above; it is complete once a row starts at column 1.
    A prefix whose last row starts at column lo still needs a box in each
    of the columns 1..lo-1, so a new row lo..hi is entered only when the
    boxes so far plus hi fit the budget.  A row that shares no column with
    the one above (hi < lo) stays disconnected from it in every extension,
    so ``connected_only`` never enters one.
    """
    if max_boxes < 1:
        raise ValueError("max_boxes must be >= 1")
    trusted = SkewShape._trusted
    gap = 0 if connected_only else 1  # how far a row may end left of the one above

    def rec(lam: tuple[int, ...], mu: tuple[int, ...], lo: int, boxes: int) -> Iterator[SkewShape]:
        if lo == 1:
            yield trusted(lam, mu)
        # hi >= lo - 1: a row ending further left would leave a column empty
        for hi in range(min(lam[-1], max_boxes - boxes), max(lo - gap, 1) - 1, -1):
            for nlo in range(1, min(hi, lo) + 1):
                yield from rec(lam + (hi,), mu + (nlo - 1,), nlo, boxes + hi - nlo + 1)

    for hi in range(1, max_boxes + 1):
        for lo in range(1, hi + 1):
            yield from rec((hi,), (lo - 1,), lo, hi - lo + 1)


def enumerate_fillings(s: SkewShape, max_weight: int) -> Iterator[SkewTableau]:
    """All weight functions of ``s`` into 1..max_weight (empty shape: none)."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if s.is_empty:
        return
    ends = list(accumulate(s.lam[i] - s.mu[i] for i in range(s.n)))
    spans = list(zip([0] + ends, ends))
    trusted = SkewTableau._trusted
    for combo in product(range(1, max_weight + 1), repeat=ends[-1]):
        yield trusted(s, tuple([combo[a:b] for a, b in spans]))


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


def classifier_verdict(x: SkewShape | SkewTableau, prop: str) -> bool:
    """The classifier's verdict on flag ``prop`` of a shape or filling."""
    if prop not in FLAG_NAMES:
        raise ValueError(f"property must be one of {FLAG_NAMES}")
    weighted = isinstance(x, SkewTableau)
    if prop == "unmixed":
        return is_unmixed_tableau(x) if weighted else is_unmixed_skew(x)
    if prop == "scm":
        return is_scm_tableau(x) if weighted else is_scm_skew(x)
    return getattr(classify_tableau(x) if weighted else classify_shape(x), prop)


def oracle_verdicts(x: SkewShape | SkewTableau, props) -> dict[str, bool]:
    """The brute-force oracle's verdicts on the flags ``props`` of a shape
    or filling, in the order given.  Each oracle runs at most once, however
    many of the flags rest on it: cm is unmixed and scm, a filling's
    Buchsbaum and gCM verdicts start from its cm, and a shape's two are one
    graph test."""
    props = tuple(props)
    if not set(props) <= set(FLAG_NAMES):
        raise ValueError(f"property must be one of {FLAG_NAMES}")
    weighted = isinstance(x, SkewTableau)
    g = from_shape(x.shape, x.rows) if weighted else from_shape(x)  # every flag needs it
    known: dict[str, bool] = {}

    def verdict(prop: str) -> bool:
        if prop not in known:
            if prop == "cm":
                known[prop] = verdict("unmixed") and verdict("scm")
            elif prop == "unmixed":
                known[prop] = is_unmixed_ideal(g)
            elif prop == "scm":
                known[prop] = is_scm_weighted_oracle(g)
            elif weighted:
                # Buchsbaum/gCM of a filling: the oracle's cm, or the
                # classifier's square rule, which no disconnected filling
                # meets (those are cm, by Kunneth).  Not an independent
                # check until a weighted gCM oracle exists.
                known[prop] = verdict("cm") or is_constant_full_square(
                    x.shape, x.rows, 1 if prop == "buchsbaum" else None)
            else:  # Buchsbaum and gCM are one property for squarefree ideals
                known["buchsbaum"] = known["gcm"] = is_buchsbaum_graph(g)
        return known[prop]

    return {prop: verdict(prop) for prop in props}


def oracle_verdict(x: SkewShape | SkewTableau, prop: str) -> bool:
    """The brute-force oracle's verdict on flag ``prop`` of a shape or filling."""
    return oracle_verdicts(x, (prop,))[prop]


def _orbit(s: SkewShape, rows: Rows = None) -> set[tuple]:
    """(lam, mu, rows) of an instance and its three images, where ``s`` is
    the instance's shape and ``rows`` its weight rows, None for a bare
    shape.  The keys are read off s and its conjugate parts, with no image
    shape built: the transpose of the half turn is the half turn of the
    transpose."""
    lamc, muc = s.lam_conj(), s.mu_conj()
    conj_rows = conjugate_rows(s, rows)
    return {(s.lam, s.mu, rows), (lamc, muc, conj_rows),
            _half_turn(s.lam, s.mu, rows), _half_turn(lamc, muc, conj_rows)}


def _check_share(args: tuple) -> tuple[int, list[dict]]:
    """Check worker ``share`` of ``jobs``: walking the whole enumeration, it
    takes the k-th orbit of shapes to appear, in full, when k % jobs == share."""
    prop, weighted, max_boxes, max_weight, share, jobs = args
    instances = orbits = 0
    bad: list[dict] = []
    owner: dict[tuple, int] = {}  # (lam, mu) -> its worker, for the shapes of open orbits
    # (lam, mu, rows) -> the oracle's verdict, for the images of checked
    # instances that are still to come.  Each instance comes once, so each
    # entry is read once, and only the orbits still open are held.  An
    # orbit's keys are computed only when the oracle runs on its first
    # instance: computing them for every instance cost more than the cheap
    # unweighted oracles they save.
    pending: dict[tuple, bool] = {}
    for s in enumerate_skew_shapes(max_boxes, connected_only=weighted):
        if jobs > 1:
            if (s.lam, s.mu) not in owner:
                owner.update(((lam, mu), orbits % jobs) for lam, mu, _ in _orbit(s))
                orbits += 1
            if owner.pop((s.lam, s.mu)) != share:
                continue
        for x in (enumerate_fillings(s, max_weight) if weighted else (s,)):
            instances += 1
            got = classifier_verdict(x, prop)
            rows = x.rows if weighted else None
            want = pending.pop((s.lam, s.mu, rows), None)
            if want is None:
                want = oracle_verdict(x, prop)
                for key in _orbit(s, rows) - {(s.lam, s.mu, rows)}:
                    pending[key] = want
            if got != want:
                bad.append({"instance": x.to_dict(), "classifier": got, "oracle": want})
    return instances, bad


# Bounds past which a cross-check would run for days.  Each extra box
# multiplies the shapes by about 3.1 (1,171,631 with <= 13 boxes, about
# 3 * 10**9 with <= 20), and a shape of b boxes has max_weight ** b
# fillings.  CI runs at most 12 boxes, and weighted at most 3 ** 7 = 2,187
# fillings per shape.
MAX_BOXES = 20
MAX_FILLINGS_PER_SHAPE = 10**7


def crosscheck(prop: str, max_boxes: int, weighted: bool = False,
               max_weight: int = 2, jobs: int = 1) -> CrossCheckReport:
    """Run classifier vs oracle over every instance within bounds.

    Weighted runs range over connected shapes and all fillings with weights
    1..max_weight; unweighted runs include disconnected shapes.  The report
    is deterministic for fixed bounds regardless of the job count, which is
    capped at the CPU count.  Bounds above ``MAX_BOXES``, or weighted ones
    with max_weight ** max_boxes above ``MAX_FILLINGS_PER_SHAPE``, raise
    ValueError before any instance is enumerated.
    """
    if prop not in FLAG_NAMES:
        raise ValueError(f"property must be one of {FLAG_NAMES}")
    for name, bound in (("max_boxes", max_boxes), ("jobs", jobs),
                        ("max_weight", max_weight if weighted else 1)):
        if bound < 1:
            raise ValueError(f"{name} must be >= 1")
    if max_boxes > MAX_BOXES:
        raise ValueError(f"max_boxes must be <= {MAX_BOXES}")
    if weighted and max_weight ** max_boxes > MAX_FILLINGS_PER_SHAPE:
        raise ValueError(f"max_weight ** max_boxes must be <= {MAX_FILLINGS_PER_SHAPE}")
    t0 = time.monotonic()
    report = CrossCheckReport(property=prop, weighted=weighted, max_boxes=max_boxes,
                              max_weight=max_weight if weighted else None)
    jobs = min(jobs, os.cpu_count() or 1)
    tasks = [(prop, weighted, max_boxes, max_weight, share, jobs) for share in range(jobs)]
    if jobs == 1:
        results = [_check_share(tasks[0])]
    else:
        with Pool(jobs) as pool:
            results = pool.map(_check_share, tasks)
    for instances, bad in results:
        report.instances += instances
        report.agreements += instances - len(bad)
        report.disagreements.extend(bad)
    report.disagreements.sort(key=lambda d: str(d["instance"]))
    report.seconds = time.monotonic() - t0
    return report
