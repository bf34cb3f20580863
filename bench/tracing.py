"""Spans around the package's public functions, from outside the package.

:class:`Tracer` replaces each traced function with a wrapper that records
a span ``(name, start, end, parent, op, count)``.  A function imported
with ``from .x import y`` has one binding per importing module, so every
module attribute that holds the original is replaced, and methods are
replaced on their class.  Spans of the op in progress are kept in memory;
when the op ends they are folded into per-name totals, and the spans of
the first ``keep_ops`` ops are kept whole to be written out at the end.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

PACKAGE = "motivic_betti"

# (layer, module, attribute): a module-level function, or "Class.method".
TRACED = [
    ("cli", "cli", "main"),
    ("betti", "betti", "m_betti_table"),
    ("betti", "betti", "emit"),
    ("motivic", "motivic", "verify_congruence_chain"),
    ("motivic", "motivic", "virtual_poincare"),
    ("tautgen", "tautgen", "monomial_series"),
    ("tautgen", "tautgen", "a_coeff"),
    ("tautgen", "tautgen", "relation_count"),
    ("hilb", "hilb", "hilb_poincare"),
    ("hilb", "hilb", "stable_series"),
    ("hilb", "hilb", "stable_betti"),
    ("hilb", "hilb", "HilbCache.get"),
    ("hilb", "hilb", "HilbCache.put"),
    ("series", "series", "IntPoly.__mul__"),
    ("series", "series", "IntPoly.divmod"),
    ("series", "series", "IntPoly.to_str"),
    ("series", "series", "TruncatedSeries.__mul__"),
]

LAYERS = ["cli", "betti", "motivic", "tautgen", "hilb", "series"]


def _mul_products(args, result, before):
    a, b = args
    return len(a.coeffs) * (1 if isinstance(b, int) else len(b.coeffs))


def _cache_hit(args, result, before):
    return 0 if result is None else 1


def _put_bytes(args, result, before):
    cache, hp = args
    path = cache.path_for(hp.n)
    return 0 if path is None else os.stat(path).st_size


def _emit_start(args):
    return args[2].tell()  # the benchmark captures stdout in a StringIO


def _emit_bytes(args, result, before):
    return len(args[2].getvalue()[before:].encode("utf-8"))


# attribute -> (taken before the call, count after it)
COUNTERS = {
    "IntPoly.__mul__": (None, _mul_products),
    "HilbCache.get": (None, _cache_hit),
    "HilbCache.put": (None, _put_bytes),
    "emit": (_emit_start, _emit_bytes),
}


class Tracer:
    """Installs the wrappers; :meth:`end_op` folds one op's spans."""

    def __init__(self, keep_ops: int):
        self.keep_ops = keep_ops
        self.op = 0
        self.spans: list[list] = []
        self.kept: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, before_hook, after_hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            before = before_hook(args) if before_hook else None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after_hook:
                rec[5] = after_hook(args, result, before)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]
        for layer, module, attr in TRACED:
            name = f"{layer}.{attr}"
            self.layer_of[name] = layer
            before_hook, after_hook = COUNTERS.get(attr, (None, None))
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original, before_hook, after_hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, before_hook, after_hook)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def end_op(self) -> dict[str, float]:
        """Fold the op's spans into the totals; return its self time per layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        layers = dict.fromkeys(LAYERS, 0.0)
        for rec, inner in zip(spans, child):
            name, duration = rec[0], rec[2] - rec[1]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - inner
            self.count[name] += rec[5]
            layers[self.layer_of[name]] += duration - inner
        if self.op < self.keep_ops:
            self.kept.extend(spans)
        spans.clear()
        self.op += 1
        return layers

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per op, from the folded spans of ``ops`` ops."""
        c, t, s, n = self.calls, self.total, self.self_time, self.count

        def per_op(value, unit):
            return (value / ops, unit)

        def ms(table, name):
            return per_op(1000.0 * table[name], "ms")

        gets = c["hilb.HilbCache.get"]
        return {
            "hilb.poincare_calls": per_op(c["hilb.hilb_poincare"], "count"),
            "hilb.poincare_self_ms": ms(s, "hilb.hilb_poincare"),
            "hilb.rows_written": per_op(c["hilb.HilbCache.put"], "count"),
            "hilb.cache_put_ms": ms(t, "hilb.HilbCache.put"),
            "hilb.cache_bytes_written": per_op(n["hilb.HilbCache.put"], "bytes"),
            "hilb.cache_gets": per_op(gets, "count"),
            "hilb.cache_hit_ratio": (n["hilb.HilbCache.get"] / gets if gets else 0.0, "ratio"),
            "hilb.cache_get_ms": ms(t, "hilb.HilbCache.get"),
            "hilb.stable_series_calls": per_op(c["hilb.stable_series"], "count"),
            "hilb.stable_series_self_ms": ms(s, "hilb.stable_series"),
            "series.intpoly_mul_calls": per_op(c["series.IntPoly.__mul__"], "count"),
            "series.intpoly_mul_ms": ms(t, "series.IntPoly.__mul__"),
            "series.intpoly_mul_coeff_products": per_op(n["series.IntPoly.__mul__"], "count"),
            "series.truncated_mul_calls": per_op(c["series.TruncatedSeries.__mul__"], "count"),
            "series.truncated_mul_self_ms": ms(s, "series.TruncatedSeries.__mul__"),
            "series.divmod_ms": ms(t, "series.IntPoly.divmod"),
            "series.to_str_ms": ms(t, "series.IntPoly.to_str"),
            "tautgen.monomial_series_calls": per_op(c["tautgen.monomial_series"], "count"),
            "tautgen.monomial_series_self_ms": ms(s, "tautgen.monomial_series"),
            "tautgen.relation_count_calls": per_op(c["tautgen.relation_count"], "count"),
            "motivic.verify_calls": per_op(c["motivic.verify_congruence_chain"], "count"),
            "motivic.verify_self_ms": ms(s, "motivic.verify_congruence_chain"),
            "motivic.virtual_poincare_ms": ms(t, "motivic.virtual_poincare"),
            "betti.m_betti_table_calls": per_op(c["betti.m_betti_table"], "count"),
            "betti.m_betti_table_self_ms": ms(s, "betti.m_betti_table"),
            "betti.emit_ms": ms(t, "betti.emit"),
            "betti.emit_bytes": per_op(n["betti.emit"], "bytes"),
            "cli.main_calls": per_op(c["cli.main"], "count"),
            "cli.main_self_ms": ms(s, "cli.main"),
        }
