"""Span tracing from outside the program: wrap public callables, attribute time.

The benchmark must not edit ``src/``, so its per-layer numbers come from
wrappers installed around the program's public functions and methods for
the duration of one traced pass.  Each wrapper opens a span on entry and
closes it on exit; a span's parent is whatever span was open when it
started (the top of :class:`Tracer`'s stack), so every layer's *self*
time -- its duration minus the part its child spans cover -- falls out
exactly, and the root span's self time is the unattributed remainder.

Spans are aggregated per name in memory as they close: the hot
per-configuration layers close hundreds of thousands of spans per pass,
too many to keep one record each.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

ROOT = "trace.root"


class Tracer:
    """A span stack plus per-name aggregates."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list[Any]] = []
        # Open spans per name: a name's total counts only its outermost
        # span, so recursion (ParallelExecutor -> SerialExecutor, a
        # subclass calling super()) never double-counts wall time.
        self._open: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        self._open[name] -= 1
        if not self._open[name]:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def root(self) -> Iterator[None]:
        """The pass being traced; its self time is the unattributed rest."""
        if self._stack:
            raise RuntimeError("the root span must be the outermost span")
        self.enter(ROOT)
        try:
            yield
        finally:
            self.exit()

    @property
    def wall_s(self) -> float:
        return self.total_s.get(ROOT, 0.0)

    @property
    def unattributed_s(self) -> float:
        return self.self_s.get(ROOT, 0.0)


def span_function(
    tracer: Tracer, fn: Callable, name: str | Callable[..., str]
) -> Callable:
    """``fn`` wrapped in a span (``name`` may derive from the arguments)."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name(*args, **kwargs) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def span_generator(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """``fn`` returning an iterator: each ``next`` on it becomes a span.

    A lazy stream does its work when consumed, not when created, so the
    span has to follow the consumer's pulls for its time to land in the
    right layer.
    """

    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        tracer.enter(name)
        try:
            inner = iter(fn(*args, **kwargs))
        finally:
            tracer.exit()
        while True:
            tracer.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


@contextmanager
def patched(replacements: list[tuple[Any, str, Callable[[Callable], Callable]]]):
    """Install wrappers, then restore every original on exit.

    Each entry is ``(owner, attribute, make_wrapper)``.  An owner that is
    a class is patched in place (methods are looked up through it).  A
    module-level function is also replaced wherever another ``repro``
    module imported it by name (``from x import f`` copies the binding),
    so every caller goes through the wrapper.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, make_wrapper in replacements:
            original = owner.__dict__[attribute]
            wrapper = make_wrapper(original)
            if isinstance(owner, type):
                undo.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and namespace.get(attribute) is original
                ):
                    undo.append((module, attribute, original))
                    setattr(module, attribute, wrapper)
        yield
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
