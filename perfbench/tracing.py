"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces module attributes with wrappers that open a span, call
the original and close the span. Callers inside the program look their
callees up as module globals at call time (``evaluation.run_sweep`` calls
``solve_msdro_opf`` through ``msdro_opf.evaluation``), so wrapping the
attribute the caller reads is enough; the program's source is not touched.
Everything is restored by ``uninstall``.

Spans are kept in memory as (name, start, end, parent) and written out as
JSON when the benchmark ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records nested spans and per-span counters while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent]
        self._stack = []
        self.counts = Counter()
        self._patches = Patches()
        self.t0 = time.perf_counter()

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self.t0, None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter() - self.t0

    def wrap(self, owner, attr, name, after=None):
        """Trace calls to ``owner.attr`` as span ``name``.

        ``after(counts, result, args, kwargs)`` runs once the span is
        closed, so counting work is not charged to the layer.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
                if after is not None:
                    after(tracer.counts, result, args, kwargs)
                return result
            return traced

        self._patches.replace(owner, attr, make)

    def uninstall(self):
        self._patches.restore()

    def dump(self, path, **meta):
        payload = dict(meta, spans=[
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh)


def subtree(spans, root: int) -> list:
    """Indices of ``root`` and every span opened inside it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] not in inside:
            break
        inside.add(i)
    return sorted(inside)


def self_times(spans, root: int) -> dict:
    """Self time per span name inside the subtree of span ``root``."""
    members = subtree(spans, root)
    children = defaultdict(float)
    for i in members[1:]:
        children[spans[i][3]] += spans[i][2] - spans[i][1]
    out = defaultdict(float)
    for i in members:
        name, start, end, _ = spans[i]
        out[name] += (end - start) - children[i]
    return dict(out)


def durations(spans, root: int, name: str) -> float:
    """Summed duration of the spans called ``name`` inside ``root``.

    For layers that never nest in themselves, such as the tightening re-run.
    """
    return sum(spans[i][2] - spans[i][1] for i in subtree(spans, root)
               if spans[i][0] == name)
