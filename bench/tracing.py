"""Spans and counters recorded around calls into kgzsl's layers.

Spans are recorded from the benchmark's side of each call, never from
inside the program: a traced op calls the same public functions as an
untraced one, only through the wrappers built here.  Everything stays
in memory until the run ends, when `self_times` reduces the spans to
per-layer self time.
"""

import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "name start end parent op")


class Tracer:
    """One span per call into a layer, plus named counters.

    The program is single-threaded, so spans nest strictly: a span
    opened while another is open is that span's child.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._open = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def begin(self, name):
        parent = self._open[-1][0] if self._open else None
        self._open.append((len(self.spans), name, parent, time.perf_counter()))
        self.spans.append(None)

    def end(self):
        end = time.perf_counter()
        index, name, parent, start = self._open.pop()
        self.spans[index] = Span(name, start, end, parent, self.op)

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced


def through(tracer, name, fn):
    """`fn` itself when not tracing, so timed ops call the program directly."""
    return fn if tracer is None else tracer.wrap(name, fn)


def hits_through(tracer, source):
    """`source` itself when not tracing, else a `TracedHits` around it."""
    return source if tracer is None else TracedHits(source, tracer)


def self_times(spans):
    """Seconds per span name, each span minus the time its children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    out = Counter()
    for span, inner in zip(spans, covered):
        out[span.name] += span.end - span.start - inner
    return out


class CountingFeatures:
    """Delegating FeatureTable that counts lookups.

    gnn_forward reads one feature per node of the sampled DAG it
    builds, so lookups per encode is the DAG size.
    """

    def __init__(self, table, counts):
        self._table = table
        self._counts = counts
        self.dimension = table.dimension

    def __getitem__(self, node):
        self._counts["features.lookups"] += 1
        return self._table[node]


class TracedHits:
    """Delegating hits callable: one "sampler" span and count per call.

    HitSource caches every table it computes for the life of the
    source, so a call is a cache miss exactly when it is the first
    call for that node through this wrapper.  Wrap a source before its
    first call, and make one wrapper per source.
    """

    def __init__(self, source, tracer):
        self._source = source
        self._tracer = tracer
        self._queried = set()

    def __call__(self, node):
        counts = self._tracer.counts
        counts["sampler.calls"] += 1
        if node not in self._queried:
            self._queried.add(node)
            counts["sampler.misses"] += 1
        self._tracer.begin("sampler")
        try:
            return self._source(node)
        finally:
            self._tracer.end()
