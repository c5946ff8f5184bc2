"""In-memory span tracing for the benchmark's traced run.

A `Tracer` replaces package functions by wrappers that record one span
per call: name, start, end, the enclosing span and the iteration id.
Spans are kept in compact columns in memory until `write` is called at
the end of the run.  Self time is a span's duration minus the part of it
that its child spans cover, so a layer is not charged for the layers it
calls.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    iteration: int
    amount: float  # counter recorded at the boundary (bytes, minima, ...)


class Tracer:
    """Records spans of wrapped functions; a sequence of `Span`.

    Spans are indexed in the order their calls started, so a parent
    precedes its children and siblings are in start order.
    """

    def __init__(self):
        self.iteration = -1
        self._names: list[str] = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._iteration = array("q")
        self._amount = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._start)

    def __getitem__(self, i: int) -> Span:
        return Span(self._names[self._name[i]], self._start[i], self._end[i],
                    self._parent[i], self._iteration[i], self._amount[i])

    def wrap(self, name, fn, amount=None):
        """Wrapper of fn recording a span; amount(args, result) -> number."""
        if name not in self._names:
            self._names.append(name)
        code = self._names.index(name)
        stack, clock = self._stack, time.perf_counter
        names, starts, ends = self._name, self._start, self._end
        parents, iterations, amounts = self._parent, self._iteration, self._amount

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            iterations.append(self.iteration)
            amounts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if amount is not None:
                amounts[index] = amount(args, result)
            return result

        return traced

    def patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package: str, targets) -> None:
        """Wrap each target at every name the package binds it to.

        targets: (module, qualified attribute, span name, amount or None).
        A function that one module imported from another by value is
        bound under both names; both are replaced by the same wrapper.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, qualname, span_name, amount in targets:
            owner = sys.modules[f"{package}.{module_name}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original, amount)
            if path:  # a method: the class attribute is its only binding
                self.patch(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self.patch(module, name, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path, comment: str) -> None:
        """Write the spans as gzipped CSV after a `# comment` line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(f"# {comment}\nid,name,start,end,parent,iteration,amount\n")
            for i in range(len(self)):
                fh.write(f"{i},{self._names[self._name[i]]},{self._start[i]!r},"
                         f"{self._end[i]!r},{self._parent[i]},"
                         f"{self._iteration[i]},{self._amount[i]!r}\n")


def per_iteration_totals(spans) -> dict[int, dict[str, dict[str, float]]]:
    """iteration -> span name -> {calls, s, self_s, amount} summed.

    spans: a sequence in which each parent precedes its children and the
    children of a span are in start order, as a `Tracer` records them.
    Self time subtracts the union of the child intervals, clipped to the
    parent.  `s` sums whole durations, so it double counts only where a
    span name encloses itself; none of the benchmark's traced names do.
    """
    n = len(spans)
    reach = array("d", bytes(8 * n))  # right edge of the children swept
    stop = array("d", bytes(8 * n))
    covered = array("d", bytes(8 * n))
    for i in range(n):
        s = spans[i]
        reach[i], stop[i] = s.start, s.end
        if s.parent >= 0:
            lo, hi = max(s.start, reach[s.parent]), min(s.end, stop[s.parent])
            if hi > lo:
                covered[s.parent] += hi - lo
                reach[s.parent] = hi
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "amount": 0.0}))
    for i in range(n):
        s = spans[i]
        row = out[s.iteration][s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += s.end - s.start - covered[i]
        row["amount"] += s.amount
    return out


def median_over_iterations(totals, name: str, field: str) -> float:
    """Median over iterations of one field; 0 where the span never ran."""
    values = [per_name[name][field] if name in per_name else 0
              for per_name in totals.values()]
    return statistics.median(values) if values else 0
