"""In-memory spans recorded around calls into the program's layers.

A span is (name, start, end, parent index).  Spans stay in memory until the
run ends; a layer's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, module, attrs: dict[str, str]):
        """Replace ``module.<attr>`` by a traced wrapper named ``attrs[attr]``."""
        saved = {attr: getattr(module, attr) for attr in attrs}
        try:
            for attr, name in attrs.items():
                setattr(module, attr, self.wrap(saved[attr], name))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        children = sum(e - s for _, s, e, parent in self.spans if parent == idx)
        return (end - start) - children

    def dump(self) -> list[list]:
        """Spans with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
