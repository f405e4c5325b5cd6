"""Command-line interface.

Every subcommand loads a graph spec, runs one computation and emits a
deterministic report: JSON by default (byte-identical across runs for the
same spec and flags), or aligned text with --human.  Each serialized field
element carries its guarantee exponent, and the report ends with a
precision audit (the least guarantee encountered).

Exit codes: 0 success, 2 spec or usage error, 3 precision exhausted,
4 mathematical precondition failed, 5 internal invariant violated (a bug:
an assertion such as the maximum principle or capacity monotonicity
failed, or a ValueError was raised past spec loading).  A reader closing
the pipe early ends the output quietly and leaves the exit code as it was.

`main(argv)` may be called repeatedly in one process: the argument parser
is built on the first call and reused, since parsing keeps no state in it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

from .capacity import capacity_sequence, classify, nash_williams, real_sweep
from .dirichlet import green_matrix, solve_dp, solve_renormalized
from .errors import PrecisionError, PreconditionError, SpecFileError
from .field import INF, guarantee_str, precision, scalar_json
from .potential import (
    construct_superharmonic,
    hardy_construct,
    hardy_verify,
    harnack_constant,
    is_superharmonic,
)
from .specfile import build_graph, load_spec
from .transition import (
    TransitionContext,
    neumann_partial,
    pi_element,
    transition_powers,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_PRECISION = 3
EXIT_PRECONDITION = 4
EXIT_INVARIANT = 5


def _values_json(values):
    return {str(v): scalar_json(values[v]) for v in sorted(values)}


def _min_guarantee(node, key=None):
    """Least guarantee exponent mentioned anywhere in a report tree."""
    if isinstance(node, dict):
        return min((_min_guarantee(v, k) for k, v in node.items()), default=INF)
    if isinstance(node, (list, tuple)):
        return min(map(_min_guarantee, node), default=INF)
    if key == "guarantee" and isinstance(node, str) and node != "inf":
        return Fraction(node)
    return INF


def _render_human(node, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(node, dict):
        if set(node) == {"value", "guarantee"}:
            return [f"{node['value']}   [guarantee {node['guarantee']}]"]
        for key in node:
            sub = _render_human(node[key], indent + 1)
            if len(sub) == 1 and not sub[0].startswith("  "):
                lines.append(f"{pad}{key}: {sub[0]}")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(f"{pad}{line}" if line.startswith("  ") else f"{pad}  {line}" for line in sub)
    elif isinstance(node, (list, tuple)):
        for item in node:
            sub = _render_human(item, indent)
            if len(sub) == 1:
                lines.append(f"{pad}- {sub[0].strip()}")
            else:
                lines.append(f"{pad}-")
                lines.extend(sub)
    else:
        return [str(node)]
    return lines


def _int_at_least(least, word):
    """An argparse type for an int that is at least `least`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {word}, got {value}")
        return value

    return parse


_natural = _int_at_least(0, "nonnegative")
_positive = _int_at_least(1, "positive")


def _list_of(parse_item, distinct=False):
    """An argparse type for a nonempty comma-separated list; empty items are
    skipped.  With `distinct`, a repeated item is refused."""

    def parse(text):
        try:
            items = [parse_item(part) for part in text.split(",") if part.strip()]
        except (ValueError, ZeroDivisionError):
            items = []
        if not items:
            raise argparse.ArgumentTypeError(f"invalid list: {text!r}")
        if distinct and len(set(items)) < len(items):
            raise argparse.ArgumentTypeError(f"repeated value in list: {text!r}")
        return items

    return parse


def _print_report(text):
    """Print a report.  If the reader closed the pipe, stdout is pointed at
    os.devnull so that the interpreter's final flush stays quiet."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# Handlers: each returns the outputs block of the report
# ---------------------------------------------------------------------------


def _cmd_solve_dp(graph, args):
    K = graph.ball(args.root, args.horizon)
    solver = solve_renormalized if args.renormalized else solve_dp
    sol = solver(graph, K, args.root)
    return {
        "normalization": sol.normalization,
        "vertices": list(sol.vertices),
        "values": _values_json(sol.values),
        "capacity": scalar_json(sol.capacity),
        "energy": scalar_json(sol.energy),
    }


def _cmd_capacity(graph, args):
    sequence = capacity_sequence(graph, args.root, args.horizon)
    verdict = classify(graph, args.root)
    return {
        "root": sequence.root,
        "values": [scalar_json(v) for v in sequence.values],
        "difference_valuations": [guarantee_str(v) for v in sequence.difference_valuations],
        "verdict": verdict.to_json(),
    }


def _cmd_classify(graph, args):
    return {"verdict": classify(graph, 0).to_json()}


def _cmd_nash_williams(graph, args):
    certificate = nash_williams(graph, args.root, args.horizon)
    return {
        "certificate": certificate.to_json() if certificate is not None else None,
        "found": certificate is not None,
    }


def _cmd_green(graph, args):
    K = graph.ball(args.y, args.horizon)
    column = green_matrix(graph, K, args.y)
    if args.x not in column:
        raise PreconditionError(f"vertex {args.x} outside the ball of radius {args.horizon}")
    return {
        "x": args.x,
        "y": args.y,
        "value": scalar_json(column[args.x]),
        "column": _values_json(column),
    }


def _cmd_transition(graph, args):
    ctx = TransitionContext(graph)
    restrict = None
    if args.restrict is not None:
        restrict = tuple(ctx.graph.ball(args.x, args.restrict + 1))
    out = {"x": args.x, "y": args.y, "n": args.n}
    if restrict is not None:
        out["restriction"] = list(restrict)
    if args.max_product:
        result = pi_element(ctx, args.x, args.y, args.n, restrict=restrict)
        out["max_path_product"] = scalar_json(result.value)
        out["witness_path"] = list(result.path) if result.path is not None else None
        horizon = args.series
    else:
        horizon = max(args.n, args.series or 0)
    if horizon is not None:
        # One column serves P^n and the partial sum.
        powers = transition_powers(ctx, args.x, args.y, horizon, restrict)
        if not args.max_product:
            out["pn"] = scalar_json(powers[args.n])
        if args.series is not None:
            report = neumann_partial(ctx, args.x, args.y, powers[: args.series + 1], restrict)
            out["series"] = report.to_json()
    return out


def _cmd_harnack(graph, args):
    return {"set": args.set, "constant": scalar_json(harnack_constant(graph, args.set))}


def _cmd_superharmonic(graph, args):
    if args.construct:
        c = graph.field.from_literal(args.c)
        tau = graph.field.from_literal(args.tau)
        construction = construct_superharmonic(graph, args.root, c, tau, radius=args.horizon)
        return {
            "formula": construction.formula,
            "values": _values_json(construction.values),
            "check": construction.report.to_json(),
        }
    if not args.u:
        raise SpecFileError("superharmonic needs --construct or --u")
    literals = [part.strip() for part in args.u.split(",")]
    values = {i: graph.field.from_literal(text) for i, text in enumerate(literals)}
    window = [
        v
        for v in values
        if all(y in values for y in graph.neighbors(v))
    ]
    report = is_superharmonic(graph, values, window)
    return {"checked_vertices": window, "check": report.to_json()}


def _cmd_hardy(graph, args):
    verdict = classify(graph, 0)
    weight = hardy_construct(graph, verdict, horizon=args.horizon)
    samples = [
        solve_dp(graph, graph.ball(args.root, n), args.root).values
        for n in range(1, args.samples + 1)
    ]
    verification = hardy_verify(graph, weight.weights, samples)
    return {
        "verdict": verdict.to_json(),
        "weight": weight.to_json(),
        "verification": {
            "ok": verification.ok,
            "samples": verification.checked,
            "failures": list(verification.failures),
        },
    }


def _cmd_real_sweep(graph, args):
    table = real_sweep(graph, args.root, args.power, args.r, args.horizon)
    return {"table": table.to_json()}


HANDLERS = {
    "solve-dp": _cmd_solve_dp,
    "capacity": _cmd_capacity,
    "classify": _cmd_classify,
    "nash-williams": _cmd_nash_williams,
    "green": _cmd_green,
    "transition": _cmd_transition,
    "harnack": _cmd_harnack,
    "superharmonic": _cmd_superharmonic,
    "hardy": _cmd_hardy,
    "real-sweep": _cmd_real_sweep,
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nacap",
        description=(
            "Exact capacity, Dirichlet and transition-operator computations on "
            "weighted graphs over non-Archimedean ordered fields."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="spec file path or bundled name ex1..ex9")
    common.add_argument("--window", type=Fraction, default=None, help="precision window override")
    common.add_argument("--max-terms", type=int, default=None, help="max stored terms override")
    common.add_argument(
        "--min-guarantee",
        type=Fraction,
        default=None,
        help="fail (exit 3) if the report's precision audit falls below this",
    )
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--human", action="store_true", help="aligned text output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-dp", parents=[common], help="Dirichlet problem on a ball")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--horizon", type=_positive, required=True, help="ball radius")
    p.add_argument("--renormalized", action="store_true", help="charge normalization")

    p = sub.add_parser("capacity", parents=[common], help="capacity sequence and verdict")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--horizon", type=_positive, required=True)

    sub.add_parser("classify", parents=[common], help="capacity type and its certificate")

    p = sub.add_parser("nash-williams", parents=[common], help="null-capacity subsequence search")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--horizon", type=_positive, required=True)

    p = sub.add_parser("green", parents=[common], help="inverse Dirichlet Laplacian column")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--horizon", type=_positive, required=True, help="ball radius around y")

    p = sub.add_parser("transition", parents=[common], help="transition operator powers")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--restrict", type=_natural, default=None, help="confine paths to the ball of this radius around x (inclusive index bound on paths)")
    p.add_argument("--series", type=_natural, default=None, help="also sum P^n up to this N")
    p.add_argument("--max-product", action="store_true", help="maximal path product instead of the sum")

    p = sub.add_parser("harnack", parents=[common], help="local Harnack constant")
    p.add_argument("--set", type=_list_of(int, distinct=True), required=True, help="comma-separated vertices, e.g. 0,1,2")

    p = sub.add_parser("superharmonic", parents=[common], help="verify or construct")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--horizon", type=_positive, default=6)
    p.add_argument("--construct", action="store_true")
    p.add_argument("--c", default="1", help="ratio bound (field literal)")
    p.add_argument("--tau", default="1*e^(1)", help="infinitesimal (field literal)")
    p.add_argument("--u", default=None, help="comma-separated literals for vertices 0,1,...")

    p = sub.add_parser("hardy", parents=[common], help="construct and verify a Hardy weight")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--horizon", type=_positive, default=12)
    p.add_argument("--samples", type=_positive, default=8)

    p = sub.add_parser("real-sweep", parents=[common], help="real capacities of a rational-function graph")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--power", type=int, default=0, help="report r^(-power) * capacity")
    p.add_argument("--r", type=_list_of(Fraction), required=True, help="comma-separated rational parameters")
    p.add_argument("--horizon", type=_positive, required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            data = load_spec(args.spec)
            graph, config = build_graph(data)
            overrides = {}
            if args.window is not None:
                overrides["window"] = args.window
            if args.max_terms is not None:
                overrides["max_terms"] = args.max_terms
            if overrides:
                config = dataclasses.replace(config, **overrides)
        except ValueError as err:  # malformed input; past here a ValueError is a bug
            raise SpecFileError(str(err)) from err
        with precision(config):
            outputs = HANDLERS[args.command](graph, args)
        report = {
            "command": args.command,
            "spec": {"source": str(args.spec), **data},
            "precision": {
                "window": str(config.window),
                "max_terms": config.max_terms,
                "geometric_series_depth": config.geometric_series_depth,
            },
            "outputs": outputs,
        }
        audit = _min_guarantee(outputs)
        report["precision_audit"] = {"min_guarantee": guarantee_str(audit)}
        if args.min_guarantee is not None and audit < args.min_guarantee:
            _print_report(json.dumps(report, indent=2, sort_keys=True))
            print(
                f"precision audit {audit} below required {args.min_guarantee}",
                file=sys.stderr,
            )
            return EXIT_PRECISION
        if args.human:
            _print_report("\n".join(_render_human(report)))
        else:
            _print_report(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_OK
    except SpecFileError as err:
        print(f"spec error: {err}", file=sys.stderr)
        return EXIT_SPEC
    except PrecisionError as err:
        print(f"precision exhausted: {err}", file=sys.stderr)
        return EXIT_PRECISION
    except PreconditionError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (AssertionError, ValueError) as err:
        print(f"internal invariant violated: {err}", file=sys.stderr)
        return EXIT_INVARIANT

if __name__ == "__main__":
    sys.exit(main())
