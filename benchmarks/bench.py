#!/usr/bin/env python3
"""skewtab benchmark: exhaustive cross-checks and large-shape classify calls.

Run from the repository root (stdlib only, nothing to build):

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one process and one thread in a closed loop: an operation
starts when the previous one returns, and the module memos are cleared
before every timed operation, so each one pays what a fresh ``skewtab``
process pays.

  xcheck-shapes    one round is crosscheck("scm", 9) then
                   crosscheck("unmixed", 9): 12,227 shapes each.
  xcheck-fillings  one round is crosscheck("scm", 6, weighted=True) then
                   crosscheck("unmixed", 6, weighted=True), max_weight 2:
                   3,770 fillings each.
  classify-large   one round is ``skewtab classify`` on each of 100 large
                   shapes and fillings, in seeded order, through ``cli.main``.

The cross-checks are exhaustive, so only classify-large depends on the seed.
A run makes one pass over the round, then more while the next one is
expected to end within ``--seconds``; each operation counts with the median
of its passes, and one that fails is not repeated.  Times are scaled to a
reference machine speed (see "host speed" below).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` every operation of one round runs untraced and then traced, and
the line carries per-layer metrics; the spans go to
``benchmarks/out/trace-<workload>-<seed>.json``.  The last line is always one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 1 when a correctness check failed and 2 when the program is missing.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ("shapes", "graphs", "ideals", "classify", "tableau", "harness", "cli")
SETUP_REPS = 15
SYMMETRY_EVERY = 4  # classify-large: check conjugate/half-turn on every 4th op

# -- workloads -----------------------------------------------------------------

XCHECK = {
    "xcheck-shapes": {"max_boxes": 9, "weighted": False, "instances": 12227},
    "xcheck-fillings": {"max_boxes": 6, "weighted": True, "instances": 3770},
}
XCHECK_PROPERTIES = ("scm", "unmixed")
MAX_WEIGHT = 2

# classify-large: (tier, ops per round).  The deep tier raises RecursionError
# today; it is counted as failed, never dropped or resized.  Any other error,
# and any error outside the deep tier, is a failed correctness check.
CLASSIFY_MIX = (("deep", 2), ("family", 8), ("filling", 12), ("random", 78))
DEEP_ROWS = (250, 320)
FAMILY_ROWS = (40, 150)
RANDOM_BOXES = (40, 200)
FILLING_STAIR_ROWS = (6, 19)  # 21 to 190 boxes
FILLING_BOXES = (20, 100)
MAX_FILL_WEIGHT = 3
ROW_WIDTH = (16, 32)
# The rows of random shapes and the weights of fillings come from this fixed
# seed, not from --seed, which sets only the order of the calls.  At one size
# the cost of a random shape spans 8x and that of a filling 100x, so when
# --seed drew them, the median latency moved by a quarter and the round's
# cost by a third from seed to seed.
SHAPE_SEED = 0

WORKLOADS = (*XCHECK, "classify-large")

# -- metrics -------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "throughput_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p95_ms": "ms", "peak_rss_mb": "MB",
}
# Span names whose self time is reported as "<name>_s".
SELF_TIMED = (
    "harness.enumerate", "classify.scm", "classify.scm_warm", "classify.unmixed",
    "graphs.from_shape", "graphs.covers", "graphs.vd", "tableau.to_graph",
    "tableau.scm", "tableau.unmixed", "ideals.edge_ideal", "ideals.unmixed",
    "ideals.scm_oracle",
)
MEMOS = {
    "classify.scm_memo_entries": ("classify", "_scm_cache"),
    "graphs.vd_memo_entries": ("graphs", "_vd_cache"),
    "tableau.scm_memo_entries": ("tableau", "_scm_cache"),
}
PER_LAYER = {
    "shapes.construct_s": "s", "shapes.construct_calls": "count",
    **{f"{name}_s": "s" for name in SELF_TIMED},
    **{name: "count" for name in MEMOS},
    "cli.classify_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}

# (module, attribute, span name) wrapped during a traced round.  The same
# function may sit under several names; each binding gets its own wrapper.
# The harness names are the ones its cross-check loop calls.
PATCHES = (
    ("harness", "enumerate_skew_shapes", "harness.enumerate"),
    ("harness", "enumerate_fillings", "harness.enumerate"),
    ("harness", "from_shape", "graphs.from_shape"),
    ("harness", "is_scm_skew", "classify.scm"),
    ("harness", "is_unmixed_skew", "classify.unmixed"),
    ("harness", "is_vertex_decomposable", "graphs.vd"),
    ("harness", "is_unmixed_graph", "graphs.covers"),
    ("harness", "to_weighted_graph", "tableau.to_graph"),
    ("harness", "is_scm_tableau", "tableau.scm"),
    ("harness", "is_unmixed_tableau", "tableau.unmixed"),
    ("harness", "is_scm_weighted_oracle", "ideals.scm_oracle"),
    ("harness", "weighted_edge_ideal", "ideals.edge_ideal"),
    ("harness", "is_unmixed_ideal", "ideals.unmixed"),
    ("cli", "main", "cli.classify"),
    ("cli", "classify_shape", "classify.flags"),
    ("classify", "classify_shape", "classify.flags"),
    ("tableau", "classify_shape", "classify.flags"),
    ("cli", "classify_tableau", "tableau.flags"),
    ("classify", "is_scm_skew", "classify.scm"),
    ("classify", "is_unmixed_skew", "classify.unmixed"),
    ("classify", "unmixed_decomposition", "classify.unmixed"),
    ("tableau", "unmixed_decomposition", "classify.unmixed"),
    ("tableau", "is_scm_tableau", "tableau.scm"),
    ("tableau", "is_unmixed_tableau", "tableau.unmixed"),
    ("tableau", "to_weighted_graph", "tableau.to_graph"),
    ("graphs", "from_shape", "graphs.from_shape"),
    ("graphs", "is_unmixed_graph", "graphs.covers"),
    ("graphs", "is_vertex_decomposable", "graphs.vd"),
    ("ideals", "_vd", "graphs.vd"),
    ("ideals", "weighted_edge_ideal", "ideals.edge_ideal"),
    ("ideals", "is_unmixed_ideal", "ideals.unmixed"),
    ("ideals", "is_scm_weighted_oracle", "ideals.scm_oracle"),
)


# -- host speed ----------------------------------------------------------------
# On a shared machine the speed of the same code drifts by up to 3x within
# minutes, and a whole run can fall into a slow spell.  So a fixed pure-Python
# kernel runs before and after every timed call, and every CAL_PERIOD_S during
# it from a timer signal; the call's times are scaled by CAL_REF_S over the
# kernel's mean time across the call.  So the metrics read in seconds of a
# machine on which the kernel takes CAL_REF_S.
CAL_LOOPS = 8000
CAL_SAMPLES = 2
CAL_PERIOD_S = 0.25
CAL_REF_S = 0.0025


def kernel() -> int:
    d: dict = {}
    for i in range(CAL_LOOPS):
        d[i & 1023, i >> 10] = d.get((i & 511, i >> 11), 0) + 1
    return len(d)


def started() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def elapsed(start: tuple[float, float]) -> dict:
    """Wall and CPU seconds since ``start``, and the wall-clock ends."""
    t1, c1 = started()
    return {"t0": start[0], "t1": t1, "wall": t1 - start[0], "cpu": c1 - start[1]}


def calibrate() -> dict:
    """The fastest of CAL_SAMPLES back-to-back kernels, and the span of all."""
    start = started()
    runs = []
    for _ in range(CAL_SAMPLES):
        one = started()
        kernel()
        runs.append(elapsed(one))
    span = elapsed(start)
    return {**span, "kernel": min(r["wall"] for r in runs),
            "kernel_cpu": min(r["cpu"] for r in runs)}


def calibrated(calls) -> list[dict]:
    """Run the calls in turn and return their results with ``wall`` and
    ``cpu`` scaled to the reference speed, and ``raw_wall`` as measured.
    Kernel runs inside a result's timed span are taken out of its times."""
    ticks: list[dict] = []
    previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(calibrate()))
    results = []
    try:
        before = calibrate()
        for call in calls:
            ticks.clear()
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
            try:
                res = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            after = calibrate()
            inside = [t for t in ticks if res["t0"] <= t["t0"] and t["t1"] <= res["t1"]]
            res["raw_wall"] = res["wall"] - sum(t["wall"] for t in inside)
            raw_cpu = res["cpu"] - sum(t["cpu"] for t in inside)
            probes = [before, *ticks, after]
            res["wall"] = res["raw_wall"] * CAL_REF_S / statistics.fmean(
                t["kernel"] for t in probes)
            res["cpu"] = raw_cpu * CAL_REF_S / statistics.fmean(
                t["kernel_cpu"] for t in probes)
            results.append(res)
            before = after
    finally:
        signal.signal(signal.SIGALRM, previous)
    return results


# -- loading the program -------------------------------------------------------


def import_skewtab() -> SimpleNamespace:
    """Import skewtab afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "skewtab" or m.startswith("skewtab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("skewtab")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"skewtab imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"skewtab.{m}") for m in MODULES})


def clear_memos(st) -> None:
    st.classify.clear_caches()
    st.graphs.clear_caches()
    st.tableau.clear_caches()


def memo_sizes(st) -> tuple[int, ...]:
    return tuple(len(getattr(getattr(st, mod), attr, ())) for mod, attr in MEMOS.values())


# -- classify-large inputs -------------------------------------------------------


def staircase(rows: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(rows, 0, -1)), (0,) * rows


def ribbon(rows: int, width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows of ``width`` boxes, each shifted one column left of the row above."""
    return (tuple(rows - i + width - 1 for i in range(rows)),
            tuple(rows - 1 - i for i in range(rows)))


def random_shape(rng: random.Random, boxes: int, width: int, ferrers: bool):
    """A connected normal-form skew shape with exactly ``boxes`` boxes and
    rows of at most about ``width`` boxes, built bottom-up; ``ferrers``
    keeps every row flush left (mu = 0)."""
    rows = [(1, min(boxes, rng.randint(1, width)))]
    left = boxes - rows[0][1]
    while left:
        a0, b0 = rows[-1]
        length = min(left, rng.randint(1, width))
        if ferrers:
            if left < b0:  # too few boxes for a new row: widen the top one
                rows[-1] = (1, b0 + left)
                break
            length, a = max(length, b0), 1
        else:
            a = rng.randint(max(a0, b0 - length + 1), b0)
        rows.append((a, a + length - 1))
        left -= length
    rows.reverse()
    return tuple(b for _, b in rows), tuple(a - 1 for a, _ in rows)


def spread_out(count: int) -> tuple[list[float], list[float]]:
    """Fixed points of the unit square for one tier: sizes at the midpoints
    of ``count`` equal slices, each paired with a row width along a golden-
    ratio sequence.  Fixing them keeps the seed from moving a round's cost."""
    return ([(k + 0.5) / count for k in range(count)],
            [(k * 0.6180339887 + 0.5) % 1.0 for k in range(count)])


def scale(u: float, lo: int, hi: int) -> int:
    return round(lo + u * (hi - lo))


def make_classify_ops(seed: int, out_dir: Path) -> list[dict]:
    """The classify-large round: shapes, fillings and CLI argv.

    Sizes and row widths are fixed points of their ranges, and the rows of
    random shapes and the weights come from SHAPE_SEED; the seed sets the
    order of the calls.
    """
    fixed = random.Random(SHAPE_SEED)
    ops = []
    for tier, count in CLASSIFY_MIX:
        for k, (u, v) in enumerate(zip(*spread_out(count))):
            rows = None
            if tier in ("deep", "family"):  # staircases and ribbons alternate
                n = scale(u, *(DEEP_ROWS if tier == "deep" else FAMILY_ROWS))
                lam, mu = staircase(n) if k % 2 == 0 else ribbon(n, 2 + k // 2 % 2)
            elif tier == "random":
                lam, mu = random_shape(fixed, scale(u, *RANDOM_BOXES), scale(v, *ROW_WIDTH),
                                       ferrers=k % 4 == 0)
            elif k % 2 == 0:  # fillings: staircases, and random shapes of fewer boxes
                lam, mu = staircase(scale(u, *FILLING_STAIR_ROWS))
            else:
                lam, mu = random_shape(fixed, scale(u, *FILLING_BOXES), scale(v, *ROW_WIDTH),
                                       ferrers=False)
            if tier == "filling":
                rows = [[fixed.randint(1, MAX_FILL_WEIGHT) for _ in range(l - m)]
                        for l, m in zip(lam, mu)]
            ops.append({"tier": tier, "lam": lam, "mu": mu, "rows": rows})
    random.Random(seed).shuffle(ops)
    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for k, op in enumerate(ops):
        stem = f"{k:03d}-{op['tier']}"
        shape_file = inputs / f"{stem}.shape.json"
        shape_file.write_text(json.dumps({"lambda": op["lam"], "mu": op["mu"]}))
        op["argv"] = ["classify", "--shape", str(shape_file)]
        if op["rows"] is not None:
            fill_file = inputs / f"{stem}.filling.json"
            fill_file.write_text(json.dumps({"rows": op["rows"]}))
            op["argv"] += ["--filling", str(fill_file)]
    return ops


def setup(ops):
    """The program's set-up: a fresh import of skewtab, and for classify-large
    the construction (and so validation) of every input shape."""
    st = import_skewtab()
    for op in ops or ():
        op["shape"] = st.shapes.SkewShape(op["lam"], op["mu"])
    return st


# -- tracing -------------------------------------------------------------------


class Tracer:
    """In-memory spans around layer calls, plus an aggregate for the one hot
    leaf (shape construction), which is too frequent to keep as spans."""

    def __init__(self):
        # (id, parent id or -1, name, start, end, construct seconds directly inside)
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, construct seconds]
        self.open: Counter = Counter()
        self.next_id = 0
        self.construct_calls = 0
        self.construct_s = 0.0

    def call(self, name, fn, *args, key=None, **kwargs):
        """Run fn inside a span; ``key`` names the guard (default: name)."""
        key = key or name
        sid, self.next_id = self.next_id, self.next_id + 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, 0.0]
        self.stack.append(frame)
        self.open[key] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.open[key] -= 1
            self.spans.append((sid, parent, name, start, end, frame[1]))

    def wrap(self, name, fn):
        """Span the outermost call only, so recursions cost one span."""
        def traced(*args, **kwargs):
            if self.open[name]:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return traced

    def leaf(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self.construct_calls += 1
                self.construct_s += dt
                if self.stack:
                    self.stack[-1][1] += dt
        return timed

    def settle(self) -> None:
        """Forget spans left open by an operation that hit the recursion
        limit (their exit handlers may themselves have failed)."""
        self.stack.clear()
        self.open.clear()

    def times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name."""
        children = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        incl, self_s = defaultdict(float), defaultdict(float)
        for sid, _, name, start, end, construct in self.spans:
            incl[name] += end - start
            self_s[name] += end - start - children[sid] - construct
        return incl, self_s


def drained(fn):
    """``fn`` with its generator run to the end inside the call, so that a
    span around the call is charged the generator's work."""
    return lambda *args, **kwargs: iter(list(fn(*args, **kwargs)))


@contextlib.contextmanager
def instrumented(st, tracer: Tracer):
    saved = []
    for mod, attr, name in PATCHES:
        module = getattr(st, mod)
        fn = getattr(module, attr, None)
        if fn is not None:
            saved.append((module, attr, fn))
            body = drained(fn) if attr.startswith("enumerate_") else fn
            setattr(module, attr, tracer.wrap(name, body))
    cls = st.shapes.SkewShape
    init = cls.__init__
    cls.__init__ = tracer.leaf(init)
    try:
        yield
    finally:
        cls.__init__ = init
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# -- operations ----------------------------------------------------------------


def op_result(timing, decided, memos, error=None, problems=()):
    return {**timing, "decided": decided, "memos": memos,
            "error": error, "problems": list(problems), "verdicts": None}


def xcheck_op(st, cfg, prop):
    clear_memos(st)
    start = started()
    try:
        report = st.harness.crosscheck(prop, cfg["max_boxes"], weighted=cfg["weighted"],
                                       max_weight=MAX_WEIGHT)
    except Exception as exc:  # a cross-check that raises checked nothing
        error = f"{type(exc).__name__}: {exc}"[:300]
        return op_result(elapsed(start), 0, memo_sizes(st), error=error,
                         problems=[f"{prop}: crosscheck raised {error}"])
    return op_result(elapsed(start), report.instances, memo_sizes(st),
                     problems=xcheck_problems(cfg, prop, report.instances,
                                              len(report.disagreements)))


def xcheck_problems(cfg, prop, instances, disagreements):
    problems = []
    if instances != cfg["instances"]:
        problems.append(f"{prop}: {instances} instances, expected {cfg['instances']}")
    if disagreements:
        problems.append(f"{prop}: {disagreements} classifier/oracle disagreements")
    return problems


def traced_xcheck(st, cfg, prop, tracer: Tracer, scm_untraced, shapes):
    """One cross-check under the patched layer functions; after the scm one,
    the same shapes again through the warm memo."""
    res = xcheck_op(st, cfg, prop)
    if prop == "scm" and not cfg["weighted"] and res["error"] is None:
        tracer.call("classify.scm_warm", lambda: [scm_untraced(s) for s in shapes],
                    key="classify.scm")
    return res


def classify_op(st, op, tracer: Tracer | None = None, scm_untraced=None):
    clear_memos(st)
    out, err = io.StringIO(), io.StringIO()
    error, known = None, False
    start = started()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = st.cli.main(op["argv"])
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    except Exception as exc:  # RecursionError and RuntimeError escape cli.main
        error = f"{type(exc).__name__}: {exc}"[:300]
        known = op["tier"] == "deep" and isinstance(exc, RecursionError)
    timing = elapsed(start)
    if tracer is not None:
        tracer.settle()
    res = op_result(timing, 0 if error else 1, memo_sizes(st), error=error)
    if error is not None and not known:
        res["problems"] = [f"{op['tier']} op {op['argv'][2]}: {error}"]
    if error is None:
        res["verdicts"] = json.loads(out.getvalue())["verdicts"]
        if tracer is None:  # a traced op is checked against its untraced twin
            res["problems"] = verdict_problems(st, op, res["verdicts"])
        else:
            tracer.call("classify.scm_warm", scm_untraced, op["shape"], key="classify.scm")
    return res


def verdict_problems(st, op, verdicts) -> list[str]:
    """Checks that do not go through the classifier's recursions."""
    problems = []
    shape = op["shape"]
    if op["rows"] is None and not any(shape.mu) \
            and verdicts["scm"] != st.classify.is_saturated(shape.lam):
        problems.append(f"scm={verdicts['scm']} but saturation of {list(shape.lam)} differs")
    if verdicts["unmixed"]:
        for comp in shape.components():
            ok, why = st.classify.validate_certificate(
                comp.shape, st.classify.unmixed_decomposition(comp.shape))
            if not ok:
                problems.append(f"unmixed=true but the certificate fails: {why}")
    return problems


def rotate180(st, inst):
    if isinstance(inst, st.shapes.SkewShape):
        return inst.rotate180()
    s = inst.shape
    return st.tableau.SkewTableau.from_weights(
        s.rotate180(), {(s.n + 1 - i, s.m + 1 - j): w for (i, j), w in inst.weights().items()})


def symmetry_problems(st, op, verdicts) -> list[str]:
    """Verdicts must not change under conjugation or a half turn."""
    inst = op["shape"]
    if op["rows"] is not None:
        inst = st.tableau.SkewTableau(inst, op["rows"])
    problems = []
    for label, image in (("conjugate", inst.conjugate()), ("rotate180", rotate180(st, inst))):
        clear_memos(st)
        flags = (st.classify.classify_shape(image) if op["rows"] is None
                 else st.tableau.classify_tableau(image)).to_dict()
        if flags != verdicts:
            problems.append(f"{label} changes the verdicts: {flags} != {verdicts}")
    return problems


# -- passes and metrics --------------------------------------------------------


def round_ops(st, workload, ops, tracer=None) -> list:
    """One round as a list of operations, each a call returning its result."""
    scm = st.classify.is_scm_skew  # taken before any patching, for warm calls
    if workload in XCHECK:
        cfg = XCHECK[workload]
        if tracer is None:
            return [lambda p=p: xcheck_op(st, cfg, p) for p in XCHECK_PROPERTIES]
        shapes = [] if cfg["weighted"] else list(
            st.harness.enumerate_skew_shapes(cfg["max_boxes"]))
        return [lambda p=p: traced_xcheck(st, cfg, p, tracer, scm, shapes)
                for p in XCHECK_PROPERTIES]
    return [lambda op=op: classify_op(st, op, tracer, scm) for op in ops]


def timed_passes(calls, seconds: float) -> list[list[dict]]:
    """Every operation's results, one per pass.  An operation that fails in
    the first pass is not repeated.  After the first pass come more while
    the next one, expected to take as long as the last less the failed
    operations, would end within ``seconds`` of the start."""
    start = time.perf_counter()
    runs = [[res] for res in calibrated(calls)]
    again = [k for k, r in enumerate(runs) if r[0]["error"] is None]
    took = time.perf_counter() - start - sum(r[0]["raw_wall"] for r in runs
                                             if r[0]["error"] is not None)
    while again and time.perf_counter() - start + took <= seconds:
        t0 = time.perf_counter()
        for k, res in zip(again, calibrated([calls[k] for k in again])):
            runs[k].append(res)
        took = time.perf_counter() - t0
    return runs


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runs, setup_times) -> dict:
    """Each operation counts with the median of its passes, in seconds at the
    reference speed.  Failed operations count as +inf latency and stay out of
    the time sums."""
    ok = [r for r in runs if all(op["error"] is None for op in r)]
    walls = [statistics.median(op["wall"] for op in r) for r in ok]
    wall = sum(walls)
    latencies = [w * 1e3 for w in walls] + [math.inf] * (len(runs) - len(ok))
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": sum(statistics.median(op["cpu"] for op in r) for r in ok),
        "throughput_per_s": sum(r[0]["decided"] for r in ok) / wall if wall else 0.0,
        "latency_p50_ms": nearest_rank(latencies, 0.50),
        "latency_p95_ms": nearest_rank(latencies, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, plain, traced, failed_ratio) -> dict:
    incl, self_s = tracer.times()
    out = {"shapes.construct_s": tracer.construct_s,
           "shapes.construct_calls": tracer.construct_calls}
    out.update({f"{name}_s": self_s.get(name, 0.0) for name in SELF_TIMED})
    for k, name in enumerate(MEMOS):
        out[name] = sum(op["memos"][k] for op in traced)
    out["cli.classify_s"] = incl.get("cli.classify", 0.0)
    out["cli.self_s"] = self_s.get("cli.classify", 0.0)
    out["trace.overhead_s"] = (sum(op["wall"] for op in traced)
                               - sum(op["wall"] for op in plain))
    out["failed_ratio"] = failed_ratio
    return out


def machine() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg())}


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the check failures."""
    host = machine()
    ops = make_classify_ops(seed, out_dir) if workload == "classify-large" else None
    loaded = []

    def timed_setup():
        start = started()
        loaded.append(setup(ops))
        return elapsed(start)
    setup_times = [res["wall"] for res in calibrated([timed_setup] * SETUP_REPS)]
    st = loaded[-1]

    if trace:
        # Each operation runs untraced, then traced, back to back, so that the
        # tracing overhead is not lost in slow drifts of the machine's speed.
        tracer = Tracer()
        plain, traced = [], []
        for run_plain, run_traced in zip(round_ops(st, workload, ops),
                                         round_ops(st, workload, ops, tracer)):
            plain.append(run_plain())
            with instrumented(st, tracer):
                traced.append(run_traced())
        runs = [[res] for res in plain]
    else:
        runs = timed_passes(round_ops(st, workload, ops), seconds)
        e2e = end_to_end(runs, setup_times)

    if ops is not None:  # symmetry checks, once, outside the timed passes
        for op, r in list(zip(ops, runs))[::SYMMETRY_EVERY]:
            if r[0]["verdicts"] is not None:
                r[0]["problems"] += symmetry_problems(st, op, r[0]["verdicts"])

    # An operation counts once, however many passes measured it, so the
    # counts do not depend on how fast the machine ran.
    attempted = len(runs)
    failed = sum(1 for r in runs if any(op["error"] or op["problems"] for op in r))
    problems = [p for r in runs for op in r for p in op["problems"]]

    if not trace:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        for k, (a, b) in enumerate(zip(plain, traced)):
            if a["error"] is None and b["error"] is None and a["memos"] != b["memos"]:
                problems.append(f"op {k}: memo entries {a['memos']} untraced, "
                                f"{b['memos']} traced")
            if (a["error"] is None) != (b["error"] is None) or a["verdicts"] != b["verdicts"]:
                problems.append(f"op {k}: untraced and traced runs disagree")
            problems += b["problems"]
        layers = per_layer(tracer, plain, traced, failed / attempted)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "machine": host,
             "span_fields": ["id", "parent", "name", "start", "end", "construct_s"],
             "spans": tracer.spans}))

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"machine": host, "workload": workload, "seed": seed,
              "passes": max(len(r) for r in runs)}
    if not trace:  # wall_s as measured, before scaling to the reference speed
        record["raw_wall_s"] = sum(statistics.median(op["raw_wall"] for op in r)
                                   for r in runs if all(op["error"] is None for op in r))
    print(json.dumps(record))
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skewtab").is_dir():
        print(f"error: no skewtab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
