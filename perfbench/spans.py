"""In-memory spans around the benchmark's calls into the library.

A span records one public call: its ``module.function`` name, start and
end times, the span that caused it and the job it belongs to.  Each span
also names the per-layer metric its duration is charged to.  Spans stay in
memory while the benchmark runs and are written out once, at the end.

With tracing off, ``Tracer.call`` only forwards the call and records
nothing.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    metric: str | None
    start: float
    end: float
    parent: int | None
    job: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def span_name(fn: Callable) -> str:
    """``module.function`` for a library function, without the package."""
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__name__}"


class Tracer:
    """Records a span around each call made through it, when enabled."""

    def __init__(self, enabled: bool, first_job_id: int = 0) -> None:
        self.enabled = enabled
        self.first_job_id = first_job_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._job = first_job_id

    def call(self, metric: str | None, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` and charge the span's duration to ``metric``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._span(span_name(fn), metric, fn, args, kwargs)

    def job(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one job under a root span with a fresh job id."""
        try:
            if not self.enabled:
                return fn(*args)
            return self._span("perfbench.job", None, fn, args, {})
        finally:
            self._job += 1

    def _span(self, name, metric, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, metric, start, end, parent, self._job))


FIELDS = ("pass", "id", "name", "metric", "start", "end", "parent", "job")


def write_spans(path: Path, passes: list[list[Span]]) -> None:
    """Write the spans of every traced pass as JSON lines: a header line
    naming the fields, then one array per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(json.dumps({"fields": FIELDS}) + "\n")
        for number, spans in enumerate(passes):
            for s in sorted(spans, key=lambda s: s.id):
                row = (number, s.id, s.name, s.metric, s.start, s.end, s.parent, s.job)
                out.write(json.dumps(row) + "\n")
