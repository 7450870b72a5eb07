"""Self-time arithmetic: turn the spans of one traced run into per-layer
wall time that adds up to the run's wall clock.

Within one process spans nest like the call stack, so at every instant
one span is innermost; a layer's self time is the time its spans are
innermost (its span's duration minus the part its child spans cover).
Across processes, an instant in which k pool workers are inside a span
is split evenly among those k workers' innermost layers, and the
coordinating process (which is waiting on them) gets none of it.  Every
instant of the run is therefore charged once: to a layer, or to
``residual_s`` when no span covers it.
"""

from __future__ import annotations

import heapq
from collections import defaultdict


def innermost_segments(spans):
    """Non-overlapping ``(start, end, key)`` segments, in time order, in
    which ``key`` is the innermost open span.  ``spans`` are
    ``(start, end, key)`` intervals that nest properly."""
    segments = []
    stack = []  # (end, key) of open spans, innermost last
    cursor = None

    def emit(start, end, key):
        if end > start:
            segments.append((start, end, key))

    for start, end, key in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][0] <= start:
            top_end, top_key = stack.pop()
            emit(cursor, top_end, top_key)
            cursor = top_end
        if stack:
            emit(cursor, start, stack[-1][1])
        cursor = start
        stack.append((end, key))
    while stack:
        top_end, top_key = stack.pop()
        emit(cursor, top_end, top_key)
        cursor = top_end
    return segments


def covered(spans) -> float:
    """Seconds covered by the union of ``spans`` (inclusive time of the
    outermost ones)."""
    total = 0.0
    reach = None
    for start, end, _key in sorted(spans):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _events(segments, lane):
    for start, end, key in segments:
        yield start, 1, lane, key
        yield end, 0, lane, None


def attribute(main_spans, worker_spans=()) -> dict:
    """Wall seconds per key for a coordinator plus pool workers.

    ``worker_spans`` holds one span list per worker process.  Where no
    worker is inside a span, time goes to the coordinator's innermost
    key; where k workers are, each of their innermost keys gets 1/k."""
    workers = [innermost_segments(spans) for spans in worker_spans]
    main = innermost_segments(main_spans)
    if not any(workers):
        totals: dict = defaultdict(float)
        for start, end, key in main:
            totals[key] += end - start
        return dict(totals)
    # Lane 0 is the coordinator.  At equal times an end (0) sorts before
    # a start (1), so back-to-back segments never overlap.
    streams = [_events(main, 0)] + [
        _events(segments, lane) for lane, segments in enumerate(workers, 1)
    ]
    current = [None] * (len(workers) + 1)
    totals = defaultdict(float)
    last = None
    for time, _kind, lane, key in heapq.merge(*streams):
        if last is not None and time > last:
            dt = time - last
            busy = [k for k in current[1:] if k is not None]
            if busy:
                share = dt / len(busy)
                for k in busy:
                    totals[k] += share
            elif current[0] is not None:
                totals[current[0]] += dt
        current[lane] = key
        last = time
    return dict(totals)


def by_layer(times: dict) -> dict:
    """Fold ``layer:function`` keys into per-layer totals."""
    layers: dict = defaultdict(float)
    for key, seconds in times.items():
        layers[key.partition(":")[0]] += seconds
    return dict(layers)
