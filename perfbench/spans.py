"""In-memory spans around calls into gridpipe's modules.

A span is a name, a start and an end (``time.perf_counter``), an id
(its index among its run's spans), the id of the span that was open
when it began, the run id shared by every span of one child process,
and a few counts taken from the call's arguments or result. Spans stay
in a list until the run ends and are written out with the child's
result.

With ``memory=True`` each span also records the growth of
``tracemalloc``'s traced memory from the span's start to its peak,
nested spans included. Tracing allocations slows the program, so
memory spans come from their own child runs and their times are not
used.
"""

from __future__ import annotations

import functools
import time
import tracemalloc


class Tracer:
    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of the spans now open
        self._peaks: list[int] = []  # traced peak so far of each open span

    def start(self, name: str) -> int:
        index = len(self.spans)
        span = {
            "id": index,
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(index)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            self._peaks.append(0)
            span["base"] = current
            tracemalloc.reset_peak()
        span["start"] = time.perf_counter()
        return index

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["attrs"].update(attrs)
        self._open.pop()
        if self.memory:
            # The peak counter was last reset when this span or one of
            # its children started; what ran before that is in _peaks.
            peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
            span["attrs"]["peak_bytes"] = peak - span.pop("base")
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)

    def wrap(self, name: str, fn, describe=None):
        """``fn`` inside a span; ``describe(args, result)`` gives its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.start(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, **(describe(args, result) if describe and result is not None else {}))

        return traced

    def patch(self, name: str, attr: str, owners, describe=None) -> None:
        """Replace ``attr`` on every module in ``owners`` (the defining
        module and those that imported the name) with one traced wrapper."""
        wrapped = self.wrap(name, getattr(owners[0], attr), describe)
        for owner in owners:
            setattr(owner, attr, wrapped)
