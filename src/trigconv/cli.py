"""Command-line front end producing machine-readable tables.

Each subcommand runs one operation pipeline and emits a single record —
JSON by default, CSV on request — with the command name, an echo of the
inputs, column labels, and data rows.  Each handler builds its table as one
mapping from column label to column; one scalar formatter writes every
value, floats with 17 significant digits, so JSON output round-trips
bit-exactly and repeated invocations are byte-identical.

Exit status: 0 on success, 1 on any computational error (the error class
name goes to standard error), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import counterexample, fourier, kernel, oscillatory
from .errors import TrigconvError, check_abscissa, check_integer
from .piecewise import load_spec

_PI_LITERALS = {"pi": math.pi, "-pi": -math.pi, "pi/2": math.pi / 2,
                "-pi/2": -math.pi / 2}


class _UsageError(Exception):
    """A structurally valid parse with semantically unusable flags."""


def _float_arg(text):
    if text in _PI_LITERALS:
        return _PI_LITERALS[text]
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _int_list_arg(text):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or comma list of integers: {text!r}") from None


def _float_list_arg(text):
    try:
        return [_float_arg(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected a number or comma list of numbers: {text!r}") from None


def _single(values, flag):
    if len(values) != 1:
        raise _UsageError(f"{flag} takes a single value here, got {len(values)}")
    return values[0]


def _scalar(value, fmt):
    """``value`` (a float, int, bool, string or ``None``) as ``fmt`` text."""
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "null" if fmt == "json" else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False) if fmt == "json" else value
    return str(value)


def _json(value):
    """A record field: a scalar, or a list or mapping of them, as JSON."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json(k)}: {_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    return _scalar(value, "json")


def _render(head, table):
    fmt = head["format"]
    # row by row, so that the cells are never all held as strings at once
    rows = ([_scalar(v, fmt) for v in row] for row in zip(*table.values()))
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table)
        writer.writerows(rows)
        return buffer.getvalue()
    head = {**head, "columns": list(table)}
    fields = ", ".join(f"{_json(k)}: {_json(v)}" for k, v in head.items())
    body = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return "{" + fields + f', "rows": [{body}]}}\n'


def _record(command, args, inputs, table, **extras):
    """The record's leading fields, and ``table`` with each column a list."""
    head = {"command": command, "format": args.format, "inputs": inputs, **extras}
    return head, {label: c.tolist() if isinstance(c, np.ndarray) else list(c)
                  for label, c in table.items()}


def _cmd_validate(args):
    f = load_spec(args.function)
    segments = f.segments
    return _record(
        "validate", args, {"function": args.function},
        {"segment": range(len(segments)),
         "lo": [s.lo for s in segments],
         "hi": [s.hi for s in segments],
         "lo_value": [s.lo_value for s in segments],
         "hi_value": [s.hi_value for s in segments]},
        valid=True, segments=len(segments), jumps=[jp.x for jp in f.jumps])


def _cmd_coeffs(args):
    n_max = _single(args.n, "--n")
    c = fourier.coefficients(load_spec(args.function), n_max, args.tol)
    return _record(
        "coeffs", args, {"function": args.function, "n": n_max, "tol": args.tol},
        {"k": range(n_max + 1),
         "a_k": np.concatenate(([c.a0], c.a)),
         "b_k": np.concatenate(([0.0], c.b))})


def _cmd_partialsum(args):
    # refuse bad input before coefficients, which caps the largest order
    check_abscissa(args.x)
    orders = sorted({check_integer(n, "n", 0) for n in args.n})
    f = load_spec(args.function)
    c = fourier.coefficients(f, orders[-1], args.tol)
    by_coeff = np.array([fourier.partial_sum(c, args.x, n) for n in orders])
    by_kernel = np.array([fourier.partial_sum_kernel(f, args.x, n, args.tol)
                          for n in orders])
    return _record(
        "partialsum", args,
        {"function": args.function, "x": args.x, "n": orders, "tol": args.tol},
        {"n": orders,
         "x": [args.x] * len(orders),
         "coefficient_path": by_coeff,
         "kernel_path": by_kernel,
         "abs_difference": np.abs(by_coeff - by_kernel)})


def _cmd_converge(args):
    report = fourier.convergence_report(load_spec(args.function), args.x, args.n,
                                        args.tol)
    return _record(
        "converge", args,
        {"function": args.function, "x": args.x, "n": args.n, "tol": args.tol},
        {"n": report.schedule,
         "value": report.values,
         "predicted": [report.predicted] * len(report.schedule),
         "abs_error": report.errors},
        **report.extras)


def _cmd_kernel(args):
    direct = np.array([kernel.cosine_sum(n, args.x) for n in args.n])
    closed = np.array([kernel.dirichlet_kernel(n, args.x) for n in args.n])
    return _record(
        "kernel", args, {"n": args.n, "x": args.x, "tol": args.tol},
        {"n": args.n,
         "t": [args.x] * len(args.n),
         "cosine_sum": direct,
         "closed_form": closed,
         "abs_difference": np.abs(direct - closed),
         "mean": [kernel.kernel_mean(n, args.tol) for n in args.n]})


def _cmd_blocks(args):
    i = _single(args.i, "--i")
    d = oscillatory.decompose(load_spec(args.function), i, args.h, args.tol)
    return _record(
        "blocks", args,
        {"function": args.function, "i": i, "h": args.h, "tol": args.tol},
        {"block": range(1, len(d.block_values) + 1),
         "lo": d.boundaries[:-1],
         "hi": d.boundaries[1:],
         "value": d.block_values,
         "weight_magnitude": d.weight_magnitudes,
         "mean_factor": d.block_means},
        full_blocks=d.full_blocks)


def _cmd_tail(args):
    n_max = _single(args.n, "--n")
    t = oscillatory.tail(n_max, args.tol)
    return _record(
        "tail", args, {"n": n_max, "tol": args.tol},
        {"n": range(1, n_max + 1),
         "term": t.terms[:-1],
         "partial_sum": t.partial_sums,
         "abs_gap": np.abs(t.partial_sums - math.pi / 2),
         "next_term": t.terms[1:]})


def _cmd_limit(args):
    report = oscillatory.limit_verify(load_spec(args.function), args.g, args.h, args.i,
                                      args.tol)
    return _record(
        "limit", args,
        {"function": args.function, "g": args.g, "h": args.h, "i": args.i,
         "tol": args.tol},
        {"i": report.schedule,
         "value": report.values,
         "predicted": [report.predicted] * len(report.schedule),
         "abs_error": report.errors})


def _cmd_cauchy(args):
    # summarize validates the term count and the bound before any array
    n_terms = _single(args.n, "--n")
    bound = args.x if args.x is not None else -3.0
    s = [counterexample.summarize(kind, n_terms, bound) for kind in counterexample.KINDS]
    return _record(
        "cauchy", args, {"n": s[0].n_terms, "bound": s[0].bound},
        {"kind": [r.kind for r in s],
         "terms": [r.n_terms for r in s],
         "last_sum": [r.last_sum for r in s],
         "min_sum": [r.min_sum for r in s],
         "max_sum": [r.max_sum for r in s],
         "band_escape": [r.band_escape for r in s]})


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write to a file instead of stdout")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="trigconv",
        description="Tables for trigonometric-series convergence experiments.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, function=False, x=None, n=None,
            i=None, g=False, h=False, tol=None):
        sub = subs.add_parser(name, help=help_text)
        if function:
            sub.add_argument("--function", required=True,
                             help="path to a function-spec JSON file")
        if x is not None:
            required, help_x = x
            sub.add_argument("--x", type=_float_arg, required=required,
                             default=None, help=help_x)
        if n is not None:
            sub.add_argument("--n", type=_int_list_arg, required=True, help=n)
        if i is not None:
            sub.add_argument("--i", type=_float_list_arg, required=True, help=i)
        if g:
            sub.add_argument("--g", type=_float_arg, default=0.0,
                             help="lower endpoint (default 0)")
        if h:
            sub.add_argument("--h", type=_float_arg, default=math.pi / 2,
                             help="upper endpoint (default pi/2)")
        if tol is not None:
            sub.add_argument("--tol", type=float, default=tol,
                             help=f"quadrature tolerance (default {tol:g})")
        _add_output_flags(sub)
        sub.set_defaults(handler=handler)
        return sub

    add("validate", _cmd_validate, "parse and validate a function spec",
        function=True)
    add("coeffs", _cmd_coeffs, "tabulate series coefficients",
        function=True, n="highest harmonic", tol=1e-10)
    add("partialsum", _cmd_partialsum, "partial sums by both pipelines",
        function=True, x=(True, "evaluation abscissa"),
        n="order or comma list of orders", tol=1e-9)
    add("converge", _cmd_converge, "partial sums along an order schedule",
        function=True, x=(True, "evaluation abscissa"),
        n="strictly increasing order schedule", tol=1e-10)
    add("kernel", _cmd_kernel, "summation kernel both ways plus its mean",
        x=(True, "kernel argument t"), n="order or comma list", tol=1e-10)
    add("blocks", _cmd_blocks, "sign-block decomposition of the sine integral",
        function=True, i="oscillation frequency", h=True, tol=1e-8)
    add("tail", _cmd_tail, "alternating tail of the sine integral",
        n="number of partial sums", tol=1e-10)
    add("limit", _cmd_limit, "high-frequency limit along a schedule",
        function=True, i="strictly increasing frequency schedule",
        g=True, h=True, tol=1e-8)
    add("cauchy", _cmd_cauchy, "convergent vs divergent probe series",
        x=(False, "band bound for the escape index (default -3)"),
        n="term budget")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        head, table = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TrigconvError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    text = _render(head, table)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
