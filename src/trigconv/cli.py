"""Command-line front end producing machine-readable tables.

Each subcommand runs one operation pipeline and emits a single record —
JSON by default, CSV on request — with the command name, an echo of the
inputs, column labels, and data rows.  Each handler returns the record's
fields after the command name and format (``inputs`` first) and its table
as one mapping from column label to column; ``main`` puts the command name
and format in front.  Every value is written as one scalar rule
(``_scalar``) writes it, floats with 17 significant digits, so JSON output
round-trips bit-exactly and repeated invocations are byte-identical.
Two columns that are one float array shifted by a row (``tail``'s terms,
``blocks``' edges) share one formatting pass (``_shifted_text``).

Exit status: 0 on success, 1 on any computational error (the error class
name goes to standard error), 2 on usage errors.  Every usage error comes
from argparse, which prints the usage and the message to standard error and
raises ``SystemExit(2)``; a comma list given to a single-valued flag, such
as ``coeffs --n 3,5``, is one.
"""

from __future__ import annotations

import argparse
import csv
import functools
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


class _Text(list):
    """A table column whose cells are already ``_scalar`` text of floats,
    written as they are (floats' text needs no quoting in JSON or CSV)."""


def _float_arg(text):
    if text in _PI_LITERALS:
        return _PI_LITERALS[text]
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _comma_list(parse, expected):
    """An argparse type: a comma list of values, each read by ``parse``;
    a bad value is refused with the ``expected`` text."""
    def comma_list(text):
        try:
            return [parse(part) for part in text.split(",")]
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(f"expected {expected}: {text!r}") from None
    return comma_list


def _scalar(value, fmt):
    """``value`` (a float, int, bool, string or ``None``) as ``fmt`` text."""
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "null" if fmt == "json" else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _json_string(value) if fmt == "json" else value
    return str(value)


def _json_string(text):
    """``text`` as a JSON string with non-ASCII characters kept, except
    surrogates, which are escaped (``\\udcff``).  A path argument with a
    byte that is not UTF-8 arrives as a lone surrogate; escaping it keeps
    the output valid UTF-8, and ``json.loads`` then ``os.fsencode`` give
    back the original bytes."""
    return (json.dumps(text, ensure_ascii=False)
            .encode("utf-8", "backslashreplace").decode("utf-8"))


def _json(value):
    """A record field: a scalar, or a list or mapping of them, as JSON."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json(k)}: {_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    return _scalar(value, "json")


def _shifted_text(values):
    """``values[:-1]`` and ``values[1:]`` of a float array as two ``_Text``
    columns, each value formatted once."""
    cells = list(map("%.17g".__mod__, values.tolist()))
    return _Text(cells[:-1]), _Text(cells[1:])


def _csv_field(text, alone):
    """``text`` as the csv module writes it as one field of a row: of a
    row of one field when ``alone``, where an empty field is quoted, else
    of a row of several."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text,) if alone else (text, ""))
    return buffer.getvalue()[:-1 if alone else -2]


def _render(head, table):
    """The record's text: ``head``'s fields, then one row per table row.

    A column is a sequence of cells; a numpy array is read through
    ``tolist``.  Each column gets one %-format, chosen once: ``%s`` for a
    :class:`_Text` column, whose cells are already float text and are
    written as they are (unquoted in CSV, as the csv module writes a
    float's text), ``%.17g`` for a column of floats, ``%d`` for a column of
    ints (bools excluded), and ``%s`` of the :func:`_scalar` text of each
    cell for any other column (CSV-quoted by the csv module).  Each row is
    then one substitution into one template, so the bytes are those of
    :func:`_scalar` on every cell, since ``'%.17g' % v`` and ``format(v,
    '.17g')`` agree on every float, without a Python call per cell.  Rows
    are formatted one at a time, so the cells of the other columns are
    never all held as strings at once.
    """
    fmt = head["format"]
    specs, columns = [], []
    for column in table.values():
        if isinstance(column, _Text):
            specs.append("%s")
            columns.append(column)
            continue
        if isinstance(column, np.ndarray):
            column = column.tolist()
        kinds = set(map(type, column))
        if kinds <= {float}:
            specs.append("%.17g")
        elif kinds <= {int}:
            specs.append("%d")
        else:
            specs.append("%s")
            column = [_scalar(v, fmt) for v in column]
            if fmt == "csv":
                alone = len(table) == 1
                column = [_csv_field(text, alone) for text in column]
        columns.append(column)
    rows = zip(*columns)
    if fmt == "csv":
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(table)
        return header.getvalue() + "".join(map((",".join(specs) + "\n").__mod__, rows))
    head = {**head, "columns": list(table)}
    fields = ", ".join(f"{_json(k)}: {_json(v)}" for k, v in head.items())
    body = ", ".join(map(("[" + ", ".join(specs) + "]").__mod__, rows))
    return "{" + fields + f', "rows": [{body}]}}\n'


def _cmd_validate(args):
    f = load_spec(args.function)
    segments = f.segments
    return (
        {"inputs": {"function": args.function}, "valid": True,
         "segments": len(segments), "jumps": [jp.x for jp in f.jumps]},
        {"segment": range(len(segments)),
         "lo": [s.lo for s in segments],
         "hi": [s.hi for s in segments],
         "lo_value": [s.lo_value for s in segments],
         "hi_value": [s.hi_value for s in segments]})


def _cmd_coeffs(args):
    c = fourier.coefficients(load_spec(args.function), args.n, args.tol)
    return (
        {"inputs": {"function": args.function, "n": args.n, "tol": args.tol}},
        {"k": range(args.n + 1),
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
    return (
        {"inputs": {"function": args.function, "x": args.x, "n": orders,
                    "tol": args.tol}},
        {"n": orders,
         "x": [args.x] * len(orders),
         "coefficient_path": by_coeff,
         "kernel_path": by_kernel,
         "abs_difference": np.abs(by_coeff - by_kernel)})


def _cmd_converge(args):
    report = fourier.convergence_report(load_spec(args.function), args.x, args.n,
                                        args.tol)
    return (
        {"inputs": {"function": args.function, "x": args.x, "n": args.n,
                    "tol": args.tol},
         **report.extras},
        {"n": report.schedule,
         "value": report.values,
         "predicted": [report.predicted] * len(report.schedule),
         "abs_error": report.errors})


def _cmd_kernel(args):
    direct = np.array([kernel.cosine_sum(n, args.x) for n in args.n])
    closed = np.array([kernel.dirichlet_kernel(n, args.x) for n in args.n])
    return (
        {"inputs": {"n": args.n, "x": args.x, "tol": args.tol}},
        {"n": args.n,
         "t": [args.x] * len(args.n),
         "cosine_sum": direct,
         "closed_form": closed,
         "abs_difference": np.abs(direct - closed),
         "mean": [kernel.kernel_mean(n, args.tol) for n in args.n]})


def _cmd_blocks(args):
    d = oscillatory.decompose(load_spec(args.function), args.i, args.h, args.tol)
    lo, hi = _shifted_text(d.boundaries)
    return (
        {"inputs": {"function": args.function, "i": args.i, "h": args.h,
                    "tol": args.tol},
         "full_blocks": d.full_blocks},
        {"block": range(1, len(d.block_values) + 1),
         "lo": lo,
         "hi": hi,
         "value": d.block_values,
         "weight_magnitude": d.weight_magnitudes,
         "mean_factor": d.block_means})


def _cmd_tail(args):
    t = oscillatory.tail(args.n, args.tol)
    term, next_term = _shifted_text(t.terms)
    return (
        {"inputs": {"n": args.n, "tol": args.tol}},
        {"n": range(1, args.n + 1),
         "term": term,
         "partial_sum": t.partial_sums,
         "abs_gap": np.abs(t.partial_sums - math.pi / 2),
         "next_term": next_term})


def _cmd_limit(args):
    report = oscillatory.limit_verify(load_spec(args.function), args.g, args.h, args.i,
                                      args.tol)
    return (
        {"inputs": {"function": args.function, "g": args.g, "h": args.h, "i": args.i,
                    "tol": args.tol}},
        {"i": report.schedule,
         "value": report.values,
         "predicted": [report.predicted] * len(report.schedule),
         "abs_error": report.errors})


def _cmd_cauchy(args):
    # summarize_all validates the term count and the bound before any array
    s = counterexample.summarize_all(args.n, args.x)
    return (
        {"inputs": {"n": s[0].n_terms, "bound": s[0].bound}},
        {"kind": [r.kind for r in s],
         "terms": [r.n_terms for r in s],
         "last_sum": [r.last_sum for r in s],
         "min_sum": [r.min_sum for r in s],
         "max_sum": [r.max_sum for r in s],
         "band_escape": [r.band_escape for r in s]})


# built once per process: parse_args leaves the parser as it was
@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="trigconv",
        description="Tables for trigonometric-series convergence experiments.")
    subs = parser.add_subparsers(dest="command", required=True)
    ints = _comma_list(int, "an integer or comma list of integers")
    floats = _comma_list(_float_arg, "a number or comma list of numbers")

    def add(name, handler, help_text, *, function=False, x=None, n=None,
            i=None, g=False, h=False, tol=None):
        # x is (default, help), required when the default is None; n and i
        # are (type, help), a comma list type where the flag takes a list
        sub = subs.add_parser(name, help=help_text)
        if function:
            sub.add_argument("--function", required=True,
                             help="path to a function-spec JSON file")
        if x is not None:
            default, help_x = x
            sub.add_argument("--x", type=_float_arg, required=default is None,
                             default=default, help=help_x)
        for flag, spec in (("--n", n), ("--i", i)):
            if spec is not None:
                sub.add_argument(flag, type=spec[0], required=True, help=spec[1])
        if g:
            sub.add_argument("--g", type=_float_arg, default=0.0,
                             help="lower endpoint (default 0)")
        if h:
            sub.add_argument("--h", type=_float_arg, default=math.pi / 2,
                             help="upper endpoint (default pi/2)")
        if tol is not None:
            sub.add_argument("--tol", type=float, default=tol,
                             help=f"quadrature tolerance (default {tol:g})")
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--out", default=None, help="write to a file instead of stdout")
        sub.set_defaults(handler=handler)

    add("validate", _cmd_validate, "parse and validate a function spec",
        function=True)
    add("coeffs", _cmd_coeffs, "tabulate series coefficients",
        function=True, n=(int, "highest harmonic"), tol=1e-10)
    add("partialsum", _cmd_partialsum, "partial sums by both pipelines",
        function=True, x=(None, "evaluation abscissa"),
        n=(ints, "order or comma list of orders"), tol=1e-9)
    add("converge", _cmd_converge, "partial sums along an order schedule",
        function=True, x=(None, "evaluation abscissa"),
        n=(ints, "strictly increasing order schedule"), tol=1e-10)
    add("kernel", _cmd_kernel, "summation kernel both ways plus its mean",
        x=(None, "kernel argument t"), n=(ints, "order or comma list"), tol=1e-10)
    add("blocks", _cmd_blocks, "sign-block decomposition of the sine integral",
        function=True, i=(_float_arg, "oscillation frequency"), h=True, tol=1e-8)
    add("tail", _cmd_tail, "alternating tail of the sine integral",
        n=(int, "number of partial sums"), tol=1e-10)
    add("limit", _cmd_limit, "high-frequency limit along a schedule",
        function=True, i=(floats, "strictly increasing frequency schedule"),
        g=True, h=True, tol=1e-8)
    add("cauchy", _cmd_cauchy, "convergent vs divergent probe series",
        x=(-3.0, "band bound for the escape index (default -3)"),
        n=(int, "term budget"))
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        fields, table = args.handler(args)
        text = _render({"command": args.command, "format": args.format, **fields}, table)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (TrigconvError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
