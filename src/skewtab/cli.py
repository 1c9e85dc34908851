"""Command-line front end.

Verdicts and certificates are JSON on stdout; diagnostics go to stderr.
Exit codes: 0 = classified (or cross-check agreed), 1 = cross-check found a
disagreement, 2 = invalid input, 3 = internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .shapes import SkewShape, render
from .classify import FLAG_NAMES, classify_shape, scm_trace, unmixed_decomposition
from .harness import crosscheck, oracle_verdicts
from .tableau import SkewTableau, classify_tableau, rows_from_dict


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # nesting deeper than the parser's stack
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _same_parts(given, parts: tuple[int, ...]) -> bool:
    """Whether the JSON value ``given`` is the list ``parts``, padded with
    zeros.  JSON true and false are not integers, although Python's ``==``
    takes them for 1 and 0."""
    return (isinstance(given, list) and all(type(p) is int for p in given)
            and given + [0] * (len(parts) - len(given)) == list(parts))


def _load_instance(args) -> SkewShape | SkewTableau:
    shape = SkewShape.from_dict(_load_json(args.shape))
    if getattr(args, "filling", None) is None:
        return shape
    data = _load_json(args.filling)
    rows = rows_from_dict(data)
    if "lambda" in data and not _same_parts(data["lambda"], shape.lam):
        raise ValueError("filling and shape disagree on the outer partition")
    mu = data.get("mu")  # absent or null: not compared
    if mu is not None and not _same_parts(mu, shape.mu):
        raise ValueError("filling and shape disagree on the inner partition")
    return SkewTableau(shape, rows)


def cmd_classify(args) -> int:
    obj = _load_instance(args)
    weighted = isinstance(obj, SkewTableau)
    if args.oracle:
        flags = oracle_verdicts(obj, FLAG_NAMES)
        out = {"oracle": True, "verdicts": flags}
    else:
        flags = (classify_tableau(obj) if weighted else classify_shape(obj)).to_dict()
        out = {"verdicts": flags}
    if args.property:
        out["property"] = args.property
        out["verdict"] = flags[args.property]
    if not args.oracle and args.explain:
        shape, rows = (obj.shape, obj.rows) if weighted else (obj, None)
        explain: dict = {}
        if args.property != "scm":
            explain["unmixed_certificates"] = [
                unmixed_decomposition(c.shape).to_dict() for c in shape.components()]
        if args.property != "unmixed":
            explain["scm_trace"] = scm_trace(shape, rows)
        out["explain"] = explain
    print(json.dumps(out, indent=2))
    return 0


def cmd_decompose(args) -> int:
    shape = SkewShape.from_dict(_load_json(args.shape))
    comps = shape.components()
    out = {"components": [{"rows": list(c.row_map), "cols": list(c.col_map),
                           "certificate": unmixed_decomposition(c.shape).to_dict()}
                          for c in comps]}
    out["unmixed"] = all(c["certificate"]["unmixed"] for c in out["components"])
    print(json.dumps(out, indent=2))
    return 0


def cmd_crosscheck(args) -> int:
    report = crosscheck(args.property, max_boxes=args.max_boxes, weighted=args.weighted,
                        max_weight=args.max_weight, jobs=args.jobs)
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def cmd_render(args) -> int:
    obj = _load_instance(args)
    if isinstance(obj, SkewTableau):
        print(obj.render())
    else:
        print(render(obj))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewtab",
        description="Classify skew Ferrers shapes and their fillings as unmixed, "
                    "sequentially Cohen-Macaulay, Cohen-Macaulay, Buchsbaum or "
                    "generalized Cohen-Macaulay.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a shape or filling")
    p.add_argument("--shape", required=True, help="JSON file {\"lambda\": [...], \"mu\": [...]}")
    p.add_argument("--filling", help="JSON file {\"rows\": [[...], ...]}")
    p.add_argument("--property", choices=FLAG_NAMES)
    p.add_argument("--explain", action="store_true",
                   help="emit decomposition certificates and the deletion trace")
    p.add_argument("--oracle", action="store_true",
                   help="run the brute-force oracle instead of the classifier")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="prime-piece gluing certificate of a shape")
    p.add_argument("--shape", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("crosscheck", help="classifier vs oracle over all bounded instances")
    p.add_argument("--property", required=True, choices=FLAG_NAMES)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--max-boxes", type=int, required=True)
    p.add_argument("--max-weight", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (capped at the CPU count)")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("render", help="ASCII diagram of a shape or filling")
    p.add_argument("--shape", required=True)
    p.add_argument("--filling")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:  # a shape too deep for the recursive search
        raise
    except RuntimeError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
