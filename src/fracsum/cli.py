"""Command-line front end: evaluate fractional sums and products from
summand specs, run the identity suite, and emit the figure CSVs.

Exit codes: 0 success, 1 parse/domain errors (one-line diagnostic on
stderr), 2 identity-suite run with failing theorem identities. Output is
deterministic: identical argv gives byte-identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import asdict

from .engine import (
    DEFAULT_TOL,
    SumResult,
    frac_product,
    frac_sum_left,
    frac_sum_right,
)
from .errors import FracsumError
from .summands import _LITERAL, _format_complex, factor_from_spec, from_spec, parse_complex

_HANDLED = (FracsumError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that starts with '-' as an option unless it
        # matches this pattern, by default a plain negative decimal only;
        # bounds in the literal grammar, such as -0.5+1i or -1e-1, are values
        self._negative_number_matcher = re.compile(rf"(?:{_LITERAL.pattern})\s*\Z")

    # argparse exits 2 on usage errors by default; 2 is reserved for
    # identity-suite failures, so reroute through the exit-1 path.
    def error(self, message: str):
        raise _UsageError(message)


def _output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", choices=("plain", "json", "csv"),
                    default="plain", help="output format")
    sp.add_argument("--path", default=None,
                    help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fracsum",
                description="fractional sums, products, and identity checks")
    sub = p.add_subparsers(dest="command", required=True)

    for name, what in (("sum", "fractional sum"), ("prod", "fractional product")):
        sp = sub.add_parser(name, help=f"evaluate a {what} over [from, to]")
        sp.add_argument("--f", required=True, metavar="SPEC",
                        help="summand family spec, e.g. recip, pow:a=0.5, "
                             "geom:q=0.5, poly:0,1")
        sp.add_argument("--from", required=True, dest="from_", metavar="C",
                        help="lower bound, complex literal A, A+Bi, A-Bi, Bi, +i or -i")
        sp.add_argument("--to", required=True, metavar="C",
                        help="upper bound, complex literal A, A+Bi, A-Bi, Bi, +i or -i")
        sp.add_argument("--direction", choices=("right", "left"),
                        default="right", help="tail direction (default right)")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="target of converged (default %(default)s)")
        sp.set_defaults(handler=_cmd_sum_or_prod)
        _output_flags(sp)

    sp = sub.add_parser("identity-run", help="run identities against closed forms")
    sp.add_argument("--id", default=None, dest="identity",
                    help="identity id (default: all)")
    sp.set_defaults(handler=_cmd_identity_run)
    _output_flags(sp)

    sp = sub.add_parser("identity-list", help="list registered identities")
    sp.set_defaults(handler=_cmd_identity_list)
    _output_flags(sp)

    sp = sub.add_parser("figure", help="emit a truncation-vs-closed-form CSV")
    sp.add_argument("--which", required=True, choices=("bd", "zeta2"))
    sp.add_argument("--path", default=None,
                    help="CSV destination (default stdout)")
    sp.set_defaults(handler=_cmd_figure)
    return p


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(header: str, rows) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header.split(","))
    out.writerows(rows)
    return buf.getvalue()


def _format_result(res: SumResult, mode: str) -> str:
    if mode == "plain":
        return "\n".join([
            f"value {_format_complex(res.value)}",
            f"err_estimate {res.err_estimate!r}",
            f"n_used {res.n_used}",
            f"converged {'true' if res.converged else 'false'}",
        ])
    if mode == "json":
        return json.dumps(asdict(res), default=lambda z: [z.real, z.imag], indent=2)
    return _csv("value_re,value_im,err_estimate,n_used,converged", [(
        repr(res.value.real), repr(res.value.imag), repr(res.err_estimate),
        res.n_used, "true" if res.converged else "false",
    )])


def _cmd_sum_or_prod(args: argparse.Namespace) -> int:
    prod = args.command == "prod"
    f = (factor_from_spec if prod else from_spec)(args.f)
    x, y = parse_complex(args.from_), parse_complex(args.to)
    left = args.direction == "left"
    if prod:
        res = frac_product(f, x, y, tol=args.tol, left=left)
    else:
        res = (frac_sum_left if left else frac_sum_right)(f, x, y, tol=args.tol)
    _emit(_format_result(res, args.output), args.path)
    return 0


def _cmd_identity_run(args: argparse.Namespace) -> int:
    from .catalog import run_all, run_identity

    reports = run_all() if args.identity is None else (run_identity(args.identity),)
    if args.output == "plain":
        text = "\n\n".join(r.to_text() for r in reports)
    elif args.output == "json":
        text = json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2)
    else:
        text = _csv("identity,point,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,pass",
                    (r.fields() for rep in reports for r in rep.records))
    _emit(text, args.path)
    return 2 if any(rep.all_pass is False for rep in reports) else 0


def _cmd_identity_list(args: argparse.Namespace) -> int:
    from .catalog import get_identity, identity_ids

    idents = [get_identity(i) for i in identity_ids()]
    if args.output == "plain":
        text = "\n".join(
            f"{i.id} kind={i.kind} tol={i.tol!r} points={len(i.points)}"
            for i in idents
        )
    elif args.output == "json":
        text = json.dumps([
            {"id": i.id, "kind": i.kind, "tol": i.tol,
             "points": len(i.points), "formula": i.formula}
            for i in idents
        ], indent=2)
    else:
        text = _csv("id,kind,tol,points",
                    ((i.id, i.kind, repr(i.tol), len(i.points)) for i in idents))
    _emit(text, args.path)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .catalog import figure_csv

    _emit(figure_csv(args.which), args.path)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, *_HANDLED) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help path
        return 0 if exc.code in (None, 0) else int(exc.code)


if __name__ == "__main__":
    sys.exit(main())
