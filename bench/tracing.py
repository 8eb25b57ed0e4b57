"""Outside-in span recorder for the benchmark's traced run.

The package is not edited: its public functions and methods are replaced,
for the duration of a traced run, by wrappers installed under the name each
caller looks up (a module attribute or a class attribute). Every wrapped call
records one span - name, start, end, parent span - plus attributes taken from
its arguments and return value. Spans are kept in memory and written out when
the benchmark ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; patches are undone by restore()."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    @contextmanager
    def root(self, name: str):
        """Span around one benchmark operation; wrapped calls record only inside it."""
        self.active = True
        try:
            with self._open(name) as span:
                yield span
        finally:
            self.active = False

    @contextmanager
    def _open(self, name: str):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, attrs):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer._open(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if attrs is not None:
                        span.attrs.update(attrs(args, kwargs, None, exc))
                    raise
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result, None))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace owner.attr by a traced wrapper; attrs(args, kwargs, result, exc) -> dict."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, attrs))
        else:
            replacement = self._wrap(original, name, attrs)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]
