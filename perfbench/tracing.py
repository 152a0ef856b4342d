"""Per-layer tracing from outside the package.

:class:`Tracer` replaces module attributes of ``trigconv`` (the names each
module looks up at call time, such as ``fourier.integrate`` or
``PiecewiseFunction.eval``) with wrappers that record a span around every
call: ``(name, start, end, parent span, op id)``.  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover; because the program is single
threaded, children never overlap and their durations simply add.

The integrand handed to the quadrature engine is wrapped as well.  Its own
time (the closure's arithmetic, not the ``eval`` or kernel calls inside)
counts towards the layer that called the engine, so ``quadrature.self_s``
is the engine's time alone.

Counters are recorded at the same boundaries and are exact: the same seed
gives the same counts on every pass and every run.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np
from trigconv import (cli, counterexample, fourier, kernel, oscillatory,
                      piecewise, quadrature)

_clock = time.perf_counter


class Tracer:
    """Span recorder with per-pass self times and counters."""

    def __init__(self):
        self.names = {}
        self.spans = []
        self.stack = []
        self.op = -1
        self.pass_index = -1
        self._patches = []
        self._alloc_depth = 0
        self.new_pass()

    def new_pass(self):
        self.pass_index += 1
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.alloc_peak = 0

    # ------------------------------------------------------------ spans

    def enter(self, name, layer=None):
        self.stack.append([name, layer or name, _clock(), 0.0, len(self.spans)])
        self.spans.append(None)

    def exit(self):
        end = _clock()
        name, layer, start, child, index = self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][4]
        if name not in self.names:
            self.names[name] = len(self.names)
        self.spans[index] = (self.names[name], start, end, parent, self.op, self.pass_index)

    def caller(self):
        return self.stack[-1][1] if self.stack else "benchmark"

    def count(self, key, amount=1):
        self.counts[key] += int(amount)

    def _start_alloc(self):
        if self._alloc_depth == 0:
            tracemalloc.start()
        self._alloc_depth += 1

    def _stop_alloc(self):
        self._alloc_depth -= 1
        if self._alloc_depth == 0:
            self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, before=None, after=None, alloc=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if alloc:
                tracer._start_alloc()
            tracer.enter(name)
            try:
                if before:
                    before(*args, **kwargs)
                result = fn(*args, **kwargs)
                if after:
                    after(result, *args, **kwargs)
                return result
            finally:
                tracer.exit()
                if alloc:
                    tracer._stop_alloc()
        return wrapper

    def _quadrature(self, fn, edges_arg=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            caller = tracer.caller()

            def integrand(x):
                tracer.enter(f"{caller}.integrand", layer=caller)
                try:
                    tracer.count("quadrature.integrand_calls")
                    tracer.count("quadrature.integrand_points", np.size(x))
                    return f(x)
                finally:
                    tracer.exit()

            tracer.enter("quadrature")
            tracer.count("quadrature.calls")
            tracer.count(f"quadrature.calls_from.{caller}")
            if edges_arg:
                tracer.count("quadrature.intervals", np.size(args[0]) - 1)
            try:
                return fn(integrand, *args, **kwargs)
            except Exception:
                tracer.count("quadrature.failed")
                raise
            finally:
                tracer.exit()
        return wrapper

    def _intervals(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, edges, *args, **kwargs):
            tracer.count("quadrature.intervals", np.size(edges) - 1)
            return fn(f, edges, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, make):
        if hasattr(owner, attr):
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def install(self):
        """Wrap every traced module attribute; :meth:`remove` undoes it."""
        count = self.count
        span = self._span
        self._patch(piecewise, "parse_spec", lambda fn: span(
            "piecewise.parse", fn, before=lambda *a, **k: count("piecewise.parse.calls")))

        def eval_count(self_, x, *a, **k):
            count("piecewise.eval.calls")
            count("piecewise.eval.points", np.size(x))
        for attr in ("eval", "__call__"):
            self._patch(piecewise.PiecewiseFunction, attr,
                        lambda fn: span("piecewise.eval", fn, before=eval_count))

        for module in (fourier, kernel, oscillatory):
            self._patch(module, "integrate", self._quadrature)
        self._patch(oscillatory, "integrate_intervals",
                    lambda fn: self._quadrature(fn, edges_arg=True))
        self._patch(quadrature, "integrate_intervals", self._intervals)

        def dirichlet_count(n, t, *a, **k):
            count("kernel.dirichlet.calls")
            count("kernel.dirichlet.points", np.size(t))
        for module in (kernel, fourier):
            self._patch(module, "dirichlet_kernel",
                        lambda fn: span("kernel.dirichlet", fn, before=dirichlet_count))
        self._patch(kernel, "cosine_sum", lambda fn: span(
            "kernel.cosine_sum", fn, before=lambda n, *a, **k: count("kernel.cosine_sum.terms", n)))
        self._patch(kernel, "kernel_mean", lambda fn: span("kernel.mean", fn))

        def coefficient_count(f, n_max, *a, **k):
            count("fourier.coefficients.calls")
            count("fourier.coefficients.harmonics", n_max)
        self._patch(fourier, "coefficients", lambda fn: span(
            "fourier.coefficients", fn, before=coefficient_count))
        for attr in ("partial_sum", "partial_sum_kernel", "split_integrals",
                     "convergence_report"):
            self._patch(fourier, attr, lambda fn, attr=attr: span(f"fourier.{attr}", fn))

        self._patch(oscillatory, "decompose", lambda fn: span(
            "oscillatory.decompose", fn,
            after=lambda d, *a, **k: count("oscillatory.decompose.blocks", len(d.block_values))))
        self._patch(oscillatory, "tail", lambda fn: span(
            "oscillatory.tail", fn,
            after=lambda t, *a, **k: count("oscillatory.tail.blocks", len(t.terms))))
        self._patch(oscillatory, "limit_verify", lambda fn: span("oscillatory.limit_verify", fn))

        def probe_count(result, kind, n_terms):
            count("counterexample.probe.calls")
            count("counterexample.probe.terms", n_terms)
            arrays = (result.partial_sums, result.ratios)
            count("counterexample.array_bytes", sum(a.nbytes for a in arrays if a is not None))
        self._patch(counterexample, "probe", lambda fn: span(
            "counterexample.probe", fn, after=probe_count, alloc=True))
        self._patch(counterexample, "divergence_witness", lambda fn: span(
            "counterexample.witness", fn, alloc=True))
        self._patch(cli, "main", lambda fn: span("cli.main", fn))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def snapshot(self):
        """This pass's self times and counters, then start the next pass."""
        result = {"self_s": dict(self.self_s), "counts": dict(self.counts),
                  "alloc_peak": self.alloc_peak}
        self.new_pass()
        return result

    def save(self, path):
        """Write every recorded span to a compressed ``.npz`` file."""
        rows = [s for s in self.spans if s is not None]
        columns = list(zip(*rows)) if rows else [()] * 6
        np.savez_compressed(
            path, names=np.array(sorted(self.names, key=self.names.get)),
            name=np.array(columns[0], dtype=np.int32), start=np.array(columns[1]),
            end=np.array(columns[2]), parent=np.array(columns[3], dtype=np.int64),
            op=np.array(columns[4], dtype=np.int32),
            pass_index=np.array(columns[5], dtype=np.int32))


def layer_metrics(self_s, counts, alloc_peak):
    """The per-layer metrics of one traced pass, as ``name: (value, unit)``."""
    def s(name):
        return (self_s.get(name, 0.0), "s")

    def c(name, unit="count"):
        return (counts.get(name, 0), unit)

    quad_calls = counts.get("quadrature.calls", 0)
    harmonics = counts.get("fourier.coefficients.harmonics", 0)
    from_coeffs = counts.get("quadrature.calls_from.fourier.coefficients", 0)
    return {
        "piecewise.parse.calls": c("piecewise.parse.calls"),
        "piecewise.parse.self_s": s("piecewise.parse"),
        "piecewise.eval.calls": c("piecewise.eval.calls"),
        "piecewise.eval.points": c("piecewise.eval.points"),
        "piecewise.eval.self_s": s("piecewise.eval"),
        "quadrature.calls": c("quadrature.calls"),
        "quadrature.intervals": c("quadrature.intervals"),
        "quadrature.integrand_calls": c("quadrature.integrand_calls"),
        "quadrature.integrand_points": c("quadrature.integrand_points"),
        "quadrature.points_per_call": (
            counts.get("quadrature.integrand_points", 0) / quad_calls if quad_calls else 0.0,
            "count"),
        "quadrature.self_s": s("quadrature"),
        "quadrature.failed": c("quadrature.failed"),
        "kernel.dirichlet.calls": c("kernel.dirichlet.calls"),
        "kernel.dirichlet.points": c("kernel.dirichlet.points"),
        "kernel.dirichlet.self_s": s("kernel.dirichlet"),
        "kernel.cosine_sum.terms": c("kernel.cosine_sum.terms"),
        "kernel.cosine_sum.self_s": s("kernel.cosine_sum"),
        "kernel.mean.self_s": s("kernel.mean"),
        "fourier.coefficients.calls": c("fourier.coefficients.calls"),
        "fourier.coefficients.harmonics": c("fourier.coefficients.harmonics"),
        "fourier.coefficients.self_s": s("fourier.coefficients"),
        "fourier.coefficients.quad_calls_per_harmonic": (
            from_coeffs / harmonics if harmonics else 0.0, "count"),
        "fourier.partial_sum.self_s": s("fourier.partial_sum"),
        "fourier.partial_sum_kernel.self_s": s("fourier.partial_sum_kernel"),
        "fourier.split_integrals.self_s": s("fourier.split_integrals"),
        "fourier.convergence_report.self_s": s("fourier.convergence_report"),
        "oscillatory.decompose.self_s": s("oscillatory.decompose"),
        "oscillatory.decompose.blocks": c("oscillatory.decompose.blocks"),
        "oscillatory.tail.self_s": s("oscillatory.tail"),
        "oscillatory.tail.blocks": c("oscillatory.tail.blocks"),
        "oscillatory.limit_verify.self_s": s("oscillatory.limit_verify"),
        "counterexample.probe.calls": c("counterexample.probe.calls"),
        "counterexample.probe.terms": c("counterexample.probe.terms"),
        "counterexample.probe.self_s": s("counterexample.probe"),
        "counterexample.witness.self_s": s("counterexample.witness"),
        "counterexample.array_bytes": c("counterexample.array_bytes", "B"),
        "counterexample.alloc_peak_mb": (alloc_peak / 2**20, "MB"),
        "cli.main.self_s": s("cli.main"),
        "cli.bytes_out": c("cli.bytes_out", "B"),
        "cli.exit_nonzero": c("cli.exit_nonzero"),
    }
