"""Command-line interface.

Every subcommand prints one JSON report to stdout (machine-parseable;
residuals keep full float precision) and communicates its outcome through
the exit code: 0 success/verdict-true, 1 input or numerical error, 2 usage
error, 3 verdict false, 4 ambiguous verdict.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import bundled
from .errors import EinverseError
from .oracle import MAX_FUZZ_DIM, exhaustive_small_check
from .pinv import RankPolicy, mp_inverse, verify_penrose
from .product import (
    Factorization,
    LawReport,
    check_b_c_cross,
    check_coincidence,
    check_y_decomposition,
    product_mp,
    product_mp_involution,
    triple_rol_check,
    verify_product_penrose,
)
from .tensorfile import file_digest, load_tensor, save_tensor

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_FALSE = 3
EXIT_AMBIGUOUS = 4

_CHECKERS = {
    "coincidence": check_coincidence,
    "triple-rol": triple_rol_check,
    "y-decomposition": check_y_decomposition,
    "b-c-cross": check_b_c_cross,
    "involution": product_mp_involution,
}


def _parse_policy(text: str) -> RankPolicy:
    mode, _, value = text.partition(":")
    aliases = {"relative": "relative", "absolute": "absolute",
               "fixed": "fixed_rank", "fixed_rank": "fixed_rank"}
    if mode not in aliases:
        raise argparse.ArgumentTypeError(
            f"rank policy must be relative[:X], absolute:X or fixed:K, got {text!r}"
        )
    mode = aliases[mode]
    if not value:
        if mode != "relative":
            raise argparse.ArgumentTypeError(f"{mode} policy needs a value")
        return RankPolicy()
    try:
        parsed = int(value) if mode == "fixed_rank" else float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad policy value {value!r}") from exc
    return RankPolicy(mode, parsed)


def _bounded_int(low: int, high: int | None = None):
    """argparse type: an int in [low, high] (no upper limit when high is None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low or (high is not None and value > high):
            bounds = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    return parse


def _report(argv, inputs, body, started) -> dict:
    doc = {
        "command": list(argv),
        "inputs": {path: file_digest(path) for path in inputs},
    }
    doc.update(body)
    doc["wall_time_s"] = time.perf_counter() - started
    return doc


def _law_body(rep: LawReport) -> dict:
    body = {
        "law_id": rep.law_id.value,
        "condition_residuals": rep.condition_residuals,
        "verdict": rep.verdict,
        "ambiguous": rep.ambiguous,
        "tolerance": rep.tolerance,
        "warnings": list(rep.warnings),
    }
    if rep.direct_residual is not None:
        body["direct_residual"] = rep.direct_residual
    if rep.aux_residuals:
        body["aux_residuals"] = rep.aux_residuals
    return body


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _law_exit(rep: LawReport) -> int:
    if rep.ambiguous:
        return EXIT_AMBIGUOUS
    return EXIT_OK if rep.verdict else EXIT_FALSE


def _cmd_pinv(args, argv) -> int:
    started = time.perf_counter()
    a = load_tensor(args.tensor)
    x = mp_inverse(a, args.rank_policy)
    if args.output:
        save_tensor(x, args.output)
    rep = verify_penrose(a, x, args.tol)
    _emit(_report(argv, [args.tensor], {
        "penrose_residuals": list(rep.residuals),
        "verdict": rep.passed,
        "tolerance": rep.tolerance,
        "output": args.output,
    }, started))
    return EXIT_OK if rep.passed else EXIT_FALSE


def _cmd_product_pinv(args, argv) -> int:
    started = time.perf_counter()
    f = Factorization(load_tensor(args.r), load_tensor(args.s), load_tensor(args.t))
    x = product_mp(f)
    if args.output:
        save_tensor(x, args.output)
    rep = verify_product_penrose(f, x, args.tol)
    body = _law_body(rep)
    body["output"] = args.output
    _emit(_report(argv, [args.r, args.s, args.t], body, started))
    return _law_exit(rep)


def _cmd_check(args, argv) -> int:
    started = time.perf_counter()
    f = Factorization(load_tensor(args.r), load_tensor(args.s), load_tensor(args.t))
    rep = _CHECKERS[args.law](f, args.tol)
    _emit(_report(argv, [args.r, args.s, args.t], _law_body(rep), started))
    return _law_exit(rep)


def _cmd_verify(args, argv) -> int:
    started = time.perf_counter()
    a = load_tensor(args.tensor)
    x = load_tensor(args.candidate)
    rep = verify_penrose(a, x, args.tol)
    _emit(_report(argv, [args.tensor, args.candidate], {
        "penrose_residuals": list(rep.residuals),
        "verdict": rep.passed,
        "tolerance": rep.tolerance,
    }, started))
    return EXIT_OK if rep.passed else EXIT_FALSE


def _cmd_examples(args, argv) -> int:
    started = time.perf_counter()
    which = bundled.EXAMPLE_NAMES if args.which is None else (args.which,)
    reports = [bundled.run_example(w, args.assets_dir) for w in which]
    body = {
        "examples": [
            {
                "which": rep.which,
                "passed": rep.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in rep.checks
                ],
            }
            for rep in reports
        ],
        "verdict": all(rep.passed for rep in reports),
    }
    _emit(_report(argv, [], body, started))
    return EXIT_OK if body["verdict"] else EXIT_FALSE


def _cmd_fuzz(args, argv) -> int:
    started = time.perf_counter()
    summary = exhaustive_small_check(
        max_dim=args.max_dim, trials=args.trials, seed=args.seed
    )
    _emit(_report(argv, [], {
        "trials": summary.trials,
        "violations": [
            {"seed": v.seed, "invariant": v.invariant, "residual": v.residual}
            for v in summary.violations
        ],
        "verdict": summary.ok,
        "elapsed_s": summary.elapsed_s,
    }, started))
    return EXIT_OK if summary.ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einverse",
        description="Generalized inverses of even-order complex tensors "
        "under the Einstein product.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pinv", help="Moore-Penrose inverse of a tensor file")
    p.add_argument("tensor")
    p.add_argument("-o", "--output", help="write the inverse to this path")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--rank-policy", type=_parse_policy, default=RankPolicy(),
                   help="relative[:X] | absolute:X | fixed:K")
    p.set_defaults(func=_cmd_pinv)

    p = sub.add_parser("product-pinv",
                       help="product Moore-Penrose inverse of a chain R S T")
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("-o", "--output")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_product_pinv)

    p = sub.add_parser("check", help="decide a coincidence or reverse-order law")
    p.add_argument("law", choices=sorted(_CHECKERS))
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="check a candidate pseudoinverse")
    p.add_argument("tensor")
    p.add_argument("candidate")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("examples", help="run the bundled worked examples")
    p.add_argument("suite", choices=["paper"],
                   help="which bundled suite to run")
    p.add_argument("--which", choices=list(bundled.EXAMPLE_NAMES), default=None)
    p.add_argument("--assets-dir", default=None,
                   help="override the bundled golden files (for testing)")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("fuzz", help="randomized invariant battery")
    p.add_argument("--trials", type=_bounded_int(0), default=50)
    p.add_argument("--max-dim", type=_bounded_int(1, MAX_FUZZ_DIM), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except EinverseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
