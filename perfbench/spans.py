"""In-memory span recording and the statistics the benchmark reports.

A span is one call into a wrapped function: its name, start, end, the
span that was open when it began (its parent), and the generation it
belongs to.  Spans stay in memory and are written out once the campaign
ends.  A layer's self time is its duration minus the part of it that its
children cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence

TAIL_MIN_BEYOND = 10


def tail_percentile(values: Sequence[float]) -> tuple[float, int, int]:
    """Highest whole percentile that still has at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  The percentile ``p`` is the
    largest integer with ``n * (100 - p) / 100 >= 10``, and its value is
    the nearest-rank sample, so at least ten samples lie above it.  With
    ten or fewer samples no percentile qualifies, and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    p = (100 * (n - TAIL_MIN_BEYOND)) // n
    if p < 1:
        return ordered[-1], 100, n
    return ordered[-(-p * n // 100) - 1], p, n


def covered_length(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Self time of every span, keyed by span id.

    ``spans`` holds ``(id, name, start, end, parent, generation)`` tuples.
    Children that ran concurrently on worker threads are merged before
    they are subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered_length(start, end, children.get(sid, ()))
        for sid, _, start, end, _, _ in spans
    }


def layer_table(spans: Sequence[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, name, start, end, _, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return dict(table)


class Tracer:
    """Collects spans and counts from wrapped functions.

    Each thread keeps its own stack of open spans.  A span that starts on
    a worker thread with nothing open takes the main thread's innermost
    open span as its parent, so pool work hangs under the call that
    started the pool.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.generation = -1
        self._count_lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: int = 1) -> None:
        """Add to a count; pool threads call this concurrently."""
        with self._count_lock:
            self.counts[key] += n

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            generation = self.generation
            stack.append(sid)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, generation))

        return traced


def replace_everywhere(package: str, original: object, replacement: object) -> None:
    """Rebind every module-level name in ``package`` that refers to ``original``.

    Modules that imported a function by name hold their own reference to
    it, so each of them must be rebound.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
