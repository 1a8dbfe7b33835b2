"""Benchmark-side spans: one span around each timed call into a layer.

The recorder keeps spans in memory as the repository's own
:class:`repro.obs.CompileReport` events, so a traced run exports them with
:func:`repro.obs.chrome_trace` (the Chrome trace-event format
``python -m repro.obs.schema chrome`` validates) and its per-layer numbers
as a ``repro-metrics/1`` snapshot.  Nothing inside ``repro`` is changed:
calls the benchmark does not make itself (the passes inside ``optimize``,
the cache writes inside ``cached_optimize``) are timed by wrapping the
public function at the module attribute its caller looks it up through,
and only for the duration of one traced operation.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import CompileReport, MetricsRegistry, SpanEvent, chrome_trace


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.report = CompileReport(record_events=True)
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - t0
            self._stack.pop()
            self.report.add_span(name, duration)
            self.report.add_event(
                SpanEvent(
                    id=sid,
                    parent=parent,
                    name=name,
                    start=t0 - self.report.epoch,
                    duration=duration,
                    attrs=dict(attrs),
                )
            )

    def count(self, name: str, n: int = 1) -> None:
        self.report.add_count(name, n)

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Recorder", object], None]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``after(recorder, result)`` records counts
        from the result at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    @contextmanager
    def patched(
        self, targets: Sequence[Tuple[object, str, str, Optional[Callable]]]
    ) -> Iterator[None]:
        """Wrap ``getattr(owner, attr)`` for the block; ``targets`` holds
        ``(owner, attr, span name, after)`` tuples."""
        saved = []
        try:
            for owner, attr, name, after in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, after))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its direct child
        spans cover (spans nest on one thread, so children never overlap)."""
        child_time: Dict[int, float] = {}
        for e in self.report.events:
            if e.parent is not None:
                child_time[e.parent] = child_time.get(e.parent, 0.0) + e.duration
        out: Dict[str, float] = {}
        for e in self.report.events:
            own = e.duration - child_time.get(e.id, 0.0)
            out[e.name] = out.get(e.name, 0.0) + own
        return out

    def chrome(self) -> Dict[str, object]:
        return chrome_trace(self.report)


def metrics_snapshot(values: Dict[str, float], counts: Dict[str, int], **meta):
    """Per-layer numbers as a ``repro-metrics/1`` snapshot: measured
    values as gauges, whole counts as counters."""
    reg = MetricsRegistry()
    for name, value in values.items():
        reg.set_gauge(name, float(value))
    for name, n in counts.items():
        reg.inc(name, int(n))
    reg.meta.update(meta)
    return reg.snapshot()
