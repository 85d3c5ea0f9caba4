"""Span recording from outside the package under test.

Each wrapped function is replaced at the attribute its caller looks up
(a module global such as `cumulants.eval_3f2_optimized`), so the package
itself is not edited.  A wrapper records a span only while an operation
is open; outside one it calls straight through.  Spans are kept in flat
arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from bench_stats import self_times


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.op_id = -1
        self.ops = 0
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Open the next operation with its top-level span."""
        self.op_id = self.ops
        self.ops += 1
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = -1

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, *, on_result=None, on_args=None) -> None:
        """Replace module.attr by a span-recording wrapper.

        on_args(args, kwargs) may return replacement arguments (used to
        count integrand evaluations); on_result(result) sees each result.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return original(*args, **kwargs)
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        own = self_times(start, end, np.frombuffer(self.parent, dtype=np.int32))
        dur = end - start
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum()) / 1e6,
                "self_ms": float(own[sel].sum()) / 1e6,
            }
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
