"""Spans and jet-operation counters for the traced run.

Both live in the benchmark: spans wrap the benchmark's own calls into the
public layer functions, and the counters wrap the public ``Jet4``
arithmetic methods for the duration of a ``with JetCounter(fn):`` block.
Nothing inside the package is changed.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from math import comb
from time import perf_counter
from typing import Dict, List, Tuple

MAX_ORDER = 4
# Convolution pairs that reach a product's valid order r: the monomial pairs
# of total degree <= r in two variables, C(r + 4, 4) = 1, 5, 15, 35, 70.
USEFUL_PAIRS = tuple(comb(r + 4, 4) for r in range(MAX_ORDER + 1))
FULL_PAIRS = USEFUL_PAIRS[MAX_ORDER]


class Tracer:
    """In-memory spans: name, start, end, parent index, point id, status."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str, pid: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, pid, ""])

    def end(self, status: str = "ok") -> None:
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        span[5] = status

    def call(self, name: str, pid: int, func, *args, catch=(), status=False,
             **kwargs):
        """Run ``func`` inside a span.  Returns (result, None), or
        (None, exc) when it raises one of ``catch``; the span's status is
        the exception's class name, else "ok", or the result itself when
        ``status`` is set."""
        self.begin(name, pid)
        try:
            out = func(*args, **kwargs)
        except catch as exc:
            self.end(type(exc).__name__)
            return None, exc
        except BaseException:
            self.end("error")
            raise
        self.end(out if status else "ok")
        return out, None

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def totals(self, since: int = 0) -> Dict[str, float]:
        """Per span name: total duration of the spans from index ``since``."""
        out: Dict[str, float] = defaultdict(float)
        for name, t0, t1, _, _, _ in self.spans[since:]:
            out[name] += t1 - t0
        return dict(out)

    def status_counts(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Counter] = defaultdict(Counter)
        for name, _, _, _, _, status in self.spans:
            out[name][status] += 1
        return {k: dict(sorted(v.items())) for k, v in sorted(out.items())}

    def columns(self) -> dict:
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        keys = ("name", "start", "end", "parent", "point", "status")
        return {k: list(c) for k, c in zip(keys, cols)}


# Jet4 methods counted, by the name they are reported under.  A product of
# two jets is a "mul" (the 70-pair convolution); by a number, a "scale".
_ARITH = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub",
    "__rsub__": "sub", "__neg__": "neg", "__truediv__": "div",
    "__rtruediv__": "div", "__pow__": "pow", "du": "deriv", "dv": "deriv",
}


class JetCounter:
    """Counts jet operations by kind and by the result's valid order 0-4."""

    def __init__(self, fn):
        self._fn = fn
        self.counts: Dict[str, List[int]] = defaultdict(
            lambda: [0] * (MAX_ORDER + 1))
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "JetCounter":
        jet4, jetmod = self._fn.Jet4, self._fn.jet
        for meth, kind in _ARITH.items():
            self._patch(jet4, meth, self._counted(getattr(jet4, meth), kind))
        for meth in ("__mul__", "__rmul__"):
            self._patch(jet4, meth, self._counted_mul(getattr(jet4, meth)))
        # Every elementary function and reciprocal is a series composition.
        self._patch(jetmod, "_compose",
                    self._counted(jetmod._compose, "compose"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counted(self, orig, kind: str):
        row = self.counts[kind]

        def wrapper(*args):
            out = orig(*args)
            row[out.valid_order] += 1
            return out
        return wrapper

    def _counted_mul(self, orig):
        mul, scale = self.counts["mul"], self.counts["scale"]
        jet4 = self._fn.Jet4

        def wrapper(a, b):
            out = orig(a, b)
            (mul if isinstance(b, jet4) else scale)[out.valid_order] += 1
            return out
        return wrapper

    def total(self, kind: str) -> int:
        return sum(self.counts.get(kind, ()))

    def useful_pair_frac(self) -> float:
        row = self.counts.get("mul", [0] * (MAX_ORDER + 1))
        done = sum(row) * FULL_PAIRS
        return sum(n * p for n, p in zip(row, USEFUL_PAIRS)) / done if done else 0.0

    def table(self) -> Dict[str, List[int]]:
        return {k: list(v) for k, v in sorted(self.counts.items())}
