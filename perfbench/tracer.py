"""In-memory span tracer wrapped around fubinipoly's public functions.

Every wrapped call is a span.  Each span adds to per-name totals: calls,
inclusive time, and self time, which is the span's duration minus the time
its child spans cover.  Spans from :meth:`Tracer.span` and
:meth:`Tracer.wrap_kept` (checks, memo growth, ``cli.main``) are also kept
whole, as (id, parent id, name, start, end), and written out when the
process ends.  Kernel spans run into the millions, so they are kept as
totals only.

Nothing here edits the library's source: :func:`install` rebinds names on
the already imported modules and on :class:`Polynomial`.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.totals: dict = {}      # name -> [calls, total_ns, self_ns]
        self.spans: list = []       # (id, parent_id, name, start_ns, end_ns)
        # Each frame is [child_ns, id of the nearest kept span]; the bottom
        # frame is the root, so a span always has a parent frame to charge.
        self._stack = [[0, 0]]
        self._next_id = 1

    def _totals(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0, 0])

    def wrap(self, name: str, fn):
        """Aggregate-only span around every call of ``fn``."""
        tot = self._totals(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, stack[-1][1]]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack.pop()
                stack[-1][0] += dur
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]

        return traced

    def count(self, name: str, fn):
        """Call counter without timing, for constructors too cheap to time."""
        tot = self._totals(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tot[0] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """A kept span around a block."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        frame = [0, span_id]
        self._stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            dur = end - start
            self._stack.pop()
            parent[0] += dur
            tot = self._totals(name)
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[0]
            self.spans.append((span_id, parent[1], name, start, end))

    def wrap_kept(self, name_of, fn):
        """Kept span around every call of ``fn``, named from its arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return fn(*args, **kwargs)

        return traced

    def snapshot(self) -> dict:
        return {name: list(tot) for name, tot in self.totals.items()}


# (span name, module, owner attribute path, kind).  "count" counts only,
# "check" keeps one named span per verify check, "span" aggregates.
# fubini_direct, power_sum_poly and hadamard have no metric of their own;
# they are wrapped so that library time under cli.main is never counted
# as the CLI's own (rendering) time.
TARGETS = (
    ("exactpoly.init", "exactpoly", "Polynomial.__init__", "count"),
    ("exactpoly.mul", "exactpoly", "Polynomial.__mul__", "span"),
    ("exactpoly.add", "exactpoly", "Polynomial.__add__", "span"),
    ("exactpoly.derivative", "exactpoly", "Polynomial.derivative", "span"),
    ("exactpoly.antiderivative", "exactpoly", "Polynomial.antiderivative", "span"),
    ("exactpoly.eval", "exactpoly", "Polynomial.__call__", "span"),
    ("exactpoly.reflect_about", "exactpoly", "Polynomial.reflect_about", "span"),
    ("exactpoly.in_reflection_class", "exactpoly", "Polynomial.in_reflection_class", "span"),
    ("combinat.sf", "combinat", "sf", "span"),
    ("combinat.sf_row", "combinat", "sf_row", "span"),
    ("combinat.stirling2", "combinat", "stirling2", "span"),
    ("combinat.harmonic", "combinat", "harmonic", "span"),
    ("combinat.bernoulli", "combinat", "bernoulli", "span"),
    ("combinat.bernoulli_poly", "combinat", "bernoulli_poly", "span"),
    ("fubini.fubini_direct", "fubini", "fubini_direct", "span"),
    ("fubini.hfubini_direct", "fubini", "hfubini_direct", "span"),
    ("fubini.lambda_poly", "fubini", "lambda_poly", "span"),
    ("fubini.psi_poly", "fubini", "psi_poly", "span"),
    ("fubini.remainder_R", "fubini", "remainder_R", "span"),
    ("fubini.power_sum_poly", "fubini", "power_sum_poly", "span"),
    ("fubini.power_sum_gn", "fubini", "power_sum_gn", "span"),
    ("transforms.binomial_transform", "transforms", "binomial_transform", "span"),
    ("transforms.hadamard", "transforms", "hadamard", "span"),
    ("transforms.euler_hadamard", "transforms", "euler_hadamard", "span"),
    ("transforms.hfubini_via_derivatives", "transforms", "hfubini_via_derivatives", "span"),
    ("verify.run_check", "verify", "run_check", "check"),
)


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it wherever the package binds it.

    ``verify`` imports ``lambda_poly``, ``sf_row`` and others by name, the
    package ``__init__`` re-exports them, and ``__radd__``/``__rmul__`` are
    the same functions as ``__add__``/``__mul__``; each such binding gets
    the wrapper, so no call path escapes it.
    """
    namespaces = [m for name, m in sys.modules.items()
                  if name == "fubinipoly" or name.startswith("fubinipoly.")]
    poly_cls = sys.modules["fubinipoly.exactpoly"].Polynomial
    for span_name, module, path, kind in TARGETS:
        owner = sys.modules[f"fubinipoly.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            original = vars(getattr(owner, cls_name))[attr]
        else:
            original = getattr(owner, path)
        if kind == "count":
            wrapper = tracer.count(span_name, original)
        elif kind == "check":
            wrapper = tracer.wrap_kept(lambda check_id, *a, **k: f"verify.{check_id}", original)
        else:
            wrapper = tracer.wrap(span_name, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
        for key, value in list(vars(poly_cls).items()):
            if value is original:
                setattr(poly_cls, key, wrapper)
