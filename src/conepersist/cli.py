"""Command line interface.

Verbs:
  validate FILE                 check a document loads and its invariants hold
  functor VERB IN OUT           apply a stabilization functor to a document
  distance METRIC A B ...       compute a distance between two documents
  check SUITE ...               run a randomized cross-validation suite

Exit codes: 0 success, 1 suite failure, 2 malformed or unreadable
document, 3 invariant violation, 4 domain mismatch (wrong kind,
incompatible operands, bad or non-rational --direction or --tol), 5
interleaving search budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .conv1d import RaySheaf, convolution_distance, line_cone
from .cone import GaugeSpec
from .checks import SUITES, run_suite
from .docio import DocumentError, load_document, save_document
from .interleave import DEFAULT_BUDGET, BudgetExceededError, interleaving_distance
from .persist import ArrModule
from .rational import format_value, format_vector, parse_rational
from .sites import GammaModule, alpha_star, beta_inv, beta_star

__all__ = ["main"]


class UsageError(Exception):
    """Operands do not fit the requested operation."""


def _emit(obj) -> None:
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


# -- validate ----------------------------------------------------------------------


def _cmd_validate(args) -> int:
    kind, obj = load_document(args.file)
    info = {"ok": True, "kind": kind}
    if isinstance(obj, GammaModule):
        obj = obj.module
    if isinstance(obj, ArrModule):
        info["field"] = obj.p
        info["dimension"] = obj.complex.dim
        info["total_dim"] = obj.total_dim()
    elif isinstance(obj, RaySheaf):
        info["field"] = obj.p
        info["count"] = obj.count
    _emit(info)
    return 0


# -- functor -----------------------------------------------------------------------

_FUNCTORS = {
    "beta-star": (beta_star, "module"),
    "beta-inv": (beta_inv, "gamma"),
    "alpha-star": (alpha_star, "gamma"),
}


def _cmd_functor(args) -> int:
    fn, wants = _FUNCTORS[args.verb]
    kind, obj = load_document(args.input)
    if wants == "module":
        if isinstance(obj, GammaModule):
            obj = obj.module
        if not isinstance(obj, ArrModule):
            raise UsageError(f"{args.verb} needs a module document, got {kind}")
    else:
        if not isinstance(obj, GammaModule):
            raise UsageError(f"{args.verb} needs a stabilized module document, got {kind}")
    out = fn(obj)
    save_document(args.output, out)
    mod = out.module if isinstance(out, GammaModule) else out
    _emit(
        {
            "ok": True,
            "functor": args.verb,
            "output": args.output,
            "total_dim": mod.total_dim(),
        }
    )
    return 0


# -- distance ----------------------------------------------------------------------


def _load_module(path) -> ArrModule:
    kind, obj = load_document(path)
    if isinstance(obj, GammaModule):
        return obj.module
    if isinstance(obj, ArrModule):
        return obj
    raise UsageError(f"expected a module document, got {kind}")


def _load_sheaf(path) -> RaySheaf:
    kind, obj = load_document(path)
    if not isinstance(obj, RaySheaf):
        raise UsageError(f"expected a ray sheaf document, got {kind}")
    return obj


def _distance_json(res, metric):
    out = {
        "ok": True,
        "metric": metric,
        "value": format_value(res.value),
        "attained": res.attained,
        "mode": res.mode,
        "direction": format_vector(res.direction),
    }
    if res.bracket is not None:
        out["bracket"] = [format_value(res.bracket[0]), format_value(res.bracket[1])]
    if res.witness_parameter is not None:
        out["witness_parameter"] = format_value(res.witness_parameter)
    return out


def _rational_arg(flag: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise UsageError(f"{flag} needs exact rationals p/q, got {text!r}") from None


def _cmd_distance(args) -> int:
    direction = tuple(_rational_arg("--direction", t) for t in args.direction.split(","))
    if args.budget < 0:
        raise UsageError("budget must be nonnegative")
    tol = _rational_arg("--tol", args.tol) if args.tol else None
    if args.metric == "interleaving":
        F = _load_module(args.first)
        G = _load_module(args.second)
        if not F.complex.compatible(G.complex):
            raise UsageError("modules live over different cones")
        if len(direction) != F.complex.dim:
            raise UsageError("direction dimension does not match the modules")
        if not F.complex.in_antipode_interior(direction):
            raise UsageError("direction must be interior to the antipodal cone")
        res = interleaving_distance(
            F, G, direction, mode=args.mode, tol=tol, budget=args.budget
        )
    else:
        src = _load_sheaf(args.first)
        dst = _load_sheaf(args.second)
        if len(direction) != 1 or direction[0] <= 0:
            raise UsageError("convolution gauge direction must be a positive scalar")
        gauge = GaugeSpec(line_cone(), direction)
        if args.mode != "exact":
            raise UsageError("convolution distance is always exact")
        res = convolution_distance(src, dst, gauge)
    out = _distance_json(res, args.metric)
    if args.witness and res.witness is not None:
        save_document(args.witness, res.witness)
        out["witness"] = args.witness
    _emit(out)
    return 0


# -- check -------------------------------------------------------------------------


def _cmd_check(args) -> int:
    passed = 0
    failed = 0
    for i, result in run_suite(args.suite, args.seed, args.count, field=args.field):
        line = {"case": i, "seed": args.seed + i}
        line.update(result)
        _emit(line)
        if result["ok"]:
            passed += 1
        else:
            failed += 1
    _emit({"suite": args.suite, "passed": passed, "failed": failed})
    return 0 if failed == 0 else 1


# -- parser ------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conepersist",
        description="exact persistence calculus over a polyhedral cone",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="load a document and check its invariants")
    v.add_argument("file")
    v.set_defaults(fn=_cmd_validate)

    f = sub.add_parser("functor", help="apply a stabilization functor")
    f.add_argument("verb", choices=sorted(_FUNCTORS))
    f.add_argument("input")
    f.add_argument("output")
    f.set_defaults(fn=_cmd_functor)

    d = sub.add_parser("distance", help="distance between two documents")
    d.add_argument("metric", choices=["interleaving", "convolution"])
    d.add_argument("first")
    d.add_argument("second")
    d.add_argument("--direction", required=True, help="comma separated rationals, e.g. 1,1/2")
    d.add_argument("--mode", choices=["exact", "bracketed"], default="exact")
    d.add_argument("--tol", default=None, help="bracket width for bracketed mode")
    d.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="interleaving witness search budget")
    d.add_argument("--witness", default=None, help="write the optimal witness here")
    d.set_defaults(fn=_cmd_distance)

    c = sub.add_parser("check", help="run a randomized cross-validation suite")
    c.add_argument("suite", choices=sorted(SUITES))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--count", type=int, default=20)
    c.add_argument("--field", type=int, default=2)
    c.set_defaults(fn=_cmd_check)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as e:
        _emit({"ok": False, "error": "document", "detail": str(e)})
        return 2
    except UsageError as e:
        _emit({"ok": False, "error": "domain", "detail": str(e)})
        return 4
    except BudgetExceededError as e:
        info = {
            "ok": False,
            "error": "budget",
            "required": e.required,
            "budget": e.budget,
            "known_false": format_value(e.known_false),
            "known_true": format_value(e.known_true),
        }
        _emit(info)
        return 5
    except ValueError as e:
        _emit({"ok": False, "error": "invalid", "detail": str(e)})
        return 3


if __name__ == "__main__":
    sys.exit(main())
