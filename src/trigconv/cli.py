"""Command-line front end producing machine-readable tables.

Each subcommand runs one operation pipeline and emits a single record —
JSON by default, CSV on request — with the command name, an echo of the
inputs, column labels, and data rows.  All numbers are serialized with 17
significant digits, so JSON output round-trips bit-exactly and repeated
invocations are byte-identical.

Exit status: 0 on success, 1 on any computational error (the error class
name goes to standard error), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from . import counterexample, fourier, kernel, oscillatory
from .errors import TrigconvError, check_integer
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


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _to_json(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return _format_value(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f'{_to_json(str(k))}: {_to_json(v)}'
                               for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _render(record):
    if record["format"] == "json":
        return _to_json(record) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(record["columns"])
    for row in record["rows"]:
        writer.writerow([_format_value(v) for v in row])
    return buffer.getvalue()


def _record(command, args, inputs, columns, rows, extras=None):
    record = {"command": command, "format": args.format, "inputs": inputs}
    if extras:
        record.update(extras)
    record["columns"] = columns
    record["rows"] = rows
    return record


def _cmd_validate(args):
    f = load_spec(args.function)
    rows = [[j, s.lo, s.hi, s.lo_value, s.hi_value]
            for j, s in enumerate(f.segments)]
    return _record(
        "validate", args,
        inputs={"function": args.function},
        columns=["segment", "lo", "hi", "lo_value", "hi_value"],
        rows=rows,
        extras={"valid": True, "segments": len(f.segments),
                "jumps": [jp.x for jp in f.jumps]})


def _cmd_coeffs(args):
    n_max = _single(args.n, "--n")
    f = load_spec(args.function)
    c = fourier.coefficients(f, n_max, args.tol)
    rows = [[0, c.a0, 0.0]]
    rows += [[k, float(c.a[k - 1]), float(c.b[k - 1])] for k in range(1, n_max + 1)]
    return _record(
        "coeffs", args,
        inputs={"function": args.function, "n": n_max, "tol": args.tol},
        columns=["k", "a_k", "b_k"], rows=rows)


def _cmd_partialsum(args):
    fourier._check_abscissa(args.x)
    orders = sorted(set(check_integer(n, "n", 0) for n in args.n))
    f = load_spec(args.function)
    c = fourier.coefficients(f, max(orders), args.tol)
    rows = []
    for n in orders:
        by_coeff = fourier.partial_sum(c, args.x, n)
        by_kernel = fourier.partial_sum_kernel(f, args.x, n, args.tol)
        rows.append([n, args.x, by_coeff, by_kernel, abs(by_coeff - by_kernel)])
    return _record(
        "partialsum", args,
        inputs={"function": args.function, "x": args.x, "n": orders, "tol": args.tol},
        columns=["n", "x", "coefficient_path", "kernel_path", "abs_difference"],
        rows=rows)


def _cmd_converge(args):
    f = load_spec(args.function)
    report = fourier.convergence_report(f, args.x, args.n, args.tol)
    rows = [[n, float(v), report.predicted, float(e)]
            for n, v, e in zip(report.schedule, report.values, report.errors)]
    return _record(
        "converge", args,
        inputs={"function": args.function, "x": args.x, "n": list(args.n),
                "tol": args.tol},
        columns=["n", "value", "predicted", "abs_error"], rows=rows,
        extras={"jump_midpoint": report.extras["jump_midpoint"],
                "jump_half_difference": report.extras["jump_half_difference"]})


def _cmd_kernel(args):
    rows = []
    for n in args.n:
        direct = kernel.cosine_sum(n, args.x)
        closed = kernel.dirichlet_kernel(n, args.x)
        rows.append([n, args.x, direct, closed, abs(direct - closed),
                     kernel.kernel_mean(n, args.tol)])
    return _record(
        "kernel", args,
        inputs={"n": list(args.n), "x": args.x, "tol": args.tol},
        columns=["n", "t", "cosine_sum", "closed_form", "abs_difference", "mean"],
        rows=rows)


def _cmd_blocks(args):
    i = _single(args.i, "--i")
    f = load_spec(args.function)
    d = oscillatory.decompose(f, i, args.h, args.tol)
    rows = [[nu + 1, float(d.boundaries[nu]), float(d.boundaries[nu + 1]),
             float(d.block_values[nu]), float(d.weight_magnitudes[nu]),
             float(d.block_means[nu])]
            for nu in range(len(d.block_values))]
    return _record(
        "blocks", args,
        inputs={"function": args.function, "i": i, "h": args.h, "tol": args.tol},
        columns=["block", "lo", "hi", "value", "weight_magnitude", "mean_factor"],
        rows=rows,
        extras={"full_blocks": d.full_blocks})


def _cmd_tail(args):
    n_max = _single(args.n, "--n")
    t = oscillatory.tail(n_max, args.tol)
    half_pi = math.pi / 2
    rows = [[n + 1, float(t.terms[n]), float(t.partial_sums[n]),
             abs(float(t.partial_sums[n]) - half_pi), float(t.terms[n + 1])]
            for n in range(n_max)]
    return _record(
        "tail", args,
        inputs={"n": n_max, "tol": args.tol},
        columns=["n", "term", "partial_sum", "abs_gap", "next_term"], rows=rows)


def _cmd_limit(args):
    f = load_spec(args.function)
    report = oscillatory.limit_verify(f, args.g, args.h, args.i, args.tol)
    rows = [[float(i), float(v), report.predicted, float(e)]
            for i, v, e in zip(report.schedule, report.values, report.errors)]
    return _record(
        "limit", args,
        inputs={"function": args.function, "g": args.g, "h": args.h,
                "i": list(args.i), "tol": args.tol},
        columns=["i", "value", "predicted", "abs_error"], rows=rows)


def _cmd_cauchy(args):
    n_terms = counterexample._check_terms(_single(args.n, "--n"))
    bound = counterexample._check_bound(args.x if args.x is not None else -3.0)
    rows = []
    for kind in counterexample.KINDS:
        s = counterexample.summarize(kind, n_terms, bound)
        rows.append([kind, n_terms, s.last_sum, s.min_sum, s.max_sum, s.band_escape])
    return _record(
        "cauchy", args,
        inputs={"n": n_terms, "bound": bound},
        columns=["kind", "terms", "last_sum", "min_sum", "max_sum", "band_escape"],
        rows=rows)


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
        record = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TrigconvError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    text = _render(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
