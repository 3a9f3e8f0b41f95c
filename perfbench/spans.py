"""Spans around the package's public functions, recorded from outside it.

A `Tracer` swaps chosen module attributes (``losses.total_loss_grad``,
``warp.sample_bilinear`` ...) for timing wrappers and puts the originals
back on exit. This works because the package resolves these names through
module globals at call time (``geometry.warp_chain(...)`` inside ``losses``,
``step``/``adam_update`` inside ``optimize``). A refactor that renames or
moves one of them makes `Tracer.__enter__` raise, and one that stops
calling it fails the call-count checks of the workload.

Spans are kept in memory: name, start, end, parent span and repetition.
Time a wrapper spends on an observer (counting valid pixels, sizing files)
is charged to no span, so the self times exclude it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top level
    rep: int
    skip: float  # observer time inside the span, excluded from its duration
    child: float  # time covered by traced calls made inside this one

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start - self.skip)

    @property
    def self_ms(self) -> float:
        return self.ms - 1e3 * self.child


class _Frame:
    __slots__ = ("index", "child", "skip")

    def __init__(self, index: int):
        self.index = index
        self.child = 0.0
        self.skip = 0.0


class Target(NamedTuple):
    module: object
    attr: str
    # observe(args, kwargs, result, counters) adds to the tracer's counters
    observe: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.__name__.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Context manager that wraps `targets` and records a span per call."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.rep = 0
        self.restored = False
        self._stack: list[_Frame] = []
        self._originals: list[tuple[Target, Callable]] = []

    def __enter__(self) -> "Tracer":
        self._originals = []
        for target in self.targets:
            original = getattr(target.module, target.attr)  # AttributeError if renamed
            self._originals.append((target, original))
            setattr(target.module, target.attr, self._wrap(target, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, original in self._originals:
            setattr(target.module, target.attr, original)
        self.restored = all(
            getattr(target.module, target.attr) is original
            for target, original in self._originals
        )

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        observe = target.observe
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1].index if stack else -1
            frame = _Frame(len(spans))
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame.index] = Span(
                    name, start, end, parent, self.rep, frame.skip, frame.child
                )
                if stack:
                    stack[-1].child += end - start - frame.skip
            if observe is not None:
                t0 = clock()
                observe(args, kwargs, result, self.counters)
                spent = clock() - t0
                for open_frame in stack:
                    open_frame.skip += spent
            return result

        return traced

    def calls(self, name: str, parent: str | None = None) -> int:
        """Calls of `name`, optionally only those made inside `parent`."""
        if parent is None:
            return sum(1 for s in self.spans if s.name == name)
        return sum(
            1 for s in self.spans
            if s.name == name and s.parent >= 0 and self._outer(s, parent)
        )

    def _outer(self, span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False
