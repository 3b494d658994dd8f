"""In-memory span recorder for the traced replay.

A span is (name, start, end, parent index, request id).  Spans nest
strictly because the benchmark is single-threaded, so a span's self time
is its duration minus the durations of its direct children.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import threshtest._kernels as kernels

_KERNEL_NAMES = ("sup_abs_cols", "block_max_norm_cols", "norm_cols")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, request]
        self.counts = defaultdict(float)
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record one span; the yielded record's name may be changed before exit."""
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counts[name] += value

    def self_seconds(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def span_count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "request"],
                "spans": [[n, s - origin, e - origin, p, r]
                          for n, s, e, p, r in self.spans],
                "self_seconds": self.self_seconds(),
                "counts": self.counts,
            }, fh)


@contextmanager
def kernel_spans(tracer):
    """Time the column reductions of ``threshtest._kernels``.

    They are reached only from inside ``Evaluator.evaluate_batch``, which
    looks them up on the module at call time, so wrapping the module
    attributes for the length of one replay gives them their own spans.
    The bytes each one reads are computed from its input's shape.
    """
    originals = {name: getattr(kernels, name) for name in _KERNEL_NAMES}

    def wrap(fn):
        def traced(z, *args):
            tracer.count("kernels.bytes_read", z.size * z.itemsize)
            with tracer.span("_kernels.reduce"):
                return fn(z, *args)
        return traced

    for name, fn in originals.items():
        setattr(kernels, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(kernels, name, fn)
