"""Span tracer for ``--trace 1`` runs.

The program is not instrumented: the tracer wraps the functions that form
each layer's boundary (listed in ``workloads.TRACE_POINTS``) from outside,
in this process only. A span records the CPU time of its thread
(``time.thread_time``); a layer's *self* time is that minus the time of
spans nested inside it on the same thread. Spans are kept per thread (the
yield service handles requests on its own threads, and the serve
workload's clients run on several) and summed under a lock. CPU time,
unlike wall time, does not count a thread's waits for a lock, a socket or
another thread, so self times do not double count when threads overlap:
on the one CPU a run is pinned to, they add up to at most the wall time.
Nothing is wrapped in ``--trace 0`` runs, whose end-to-end numbers
therefore carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import types
from collections import defaultdict
from time import thread_time
from typing import Callable, Optional

#: The benchmark's own modules (top-level names: ``run.py`` puts its
#: directory first on ``sys.path``).
BENCH_MODULES = ("designs", "workloads")


class Tracer:
    def __init__(self):
        #: Spans are recorded only while set: the harness sets it around
        #: each timed round, so set-up, input generation and verification
        #: stay out of the layer totals.
        self.enabled = False
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> None:
        self._stack().append([name, thread_time(), 0.0])

    def _exit(self) -> None:
        stack = self._stack()
        name, start, child = stack.pop()
        elapsed = thread_time() - start
        if stack:
            stack[-1][2] += elapsed
        with self._lock:
            self.self_s[name] += elapsed - child

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn: Callable, span: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``span``; ``after(tracer, args, result)`` runs
        on each normal return (to read counters off the result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if isinstance(result, types.GeneratorType):
                return self._traced_generator(result, span)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _traced_generator(self, gen, span: str):
        # A generator's body runs on each resumption, not at the call.
        while True:
            self._enter(span)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def patch(self, module_name: str, qualname: str, span: str,
              after: Optional[Callable] = None) -> None:
        """Wrap ``module_name.qualname`` everywhere it is reachable.

        A module-level function is also replaced in every loaded ``repro``
        or benchmark module that imported it by name. A target that no
        longer exists is reported and skipped; its layer then reads 0.
        """
        *path, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: trace point {module_name}.{qualname} not "
                  "found; its layer reads 0", file=sys.stderr)
            return
        wrapped = self.wrap(original, span, after)
        setattr(owner, attr, wrapped)
        if not path:
            for key, module in list(sys.modules.items()):
                if module is None or not (
                    key.startswith("repro") or key in BENCH_MODULES
                ):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
