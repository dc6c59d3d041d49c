"""Spans around the calls into the program, recorded from outside it.

``Tracer.installed`` replaces every public function of the traced
``hardstars`` modules, wherever a ``hardstars`` module holds a reference
to it (a module attribute or a value of a module-level dict), by a wrapper
that records a span, and puts the originals back on exit.  Calls the
program makes internally therefore nest: a ``cli.main`` span holds the
``background.build_star`` span it caused, which holds the solver's.

Spans are folded into per-name totals as they close (calls, total time,
self time = total minus the time of child spans), so a run of 10^5 steps
keeps a table of a few dozen rows, not 10^5 records.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._open: list[float] = []  # child seconds of each open span
        self.enabled = False

    # ------------------------------------------------------------ recording

    def _row(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def _close(self, row: list, elapsed: float) -> None:
        child = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - child

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        row = self._row(name)
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(row, time.perf_counter() - start)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        row = self._row(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(row, clock() - start)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------- patching

    @contextmanager
    def installed(self, modules: dict[str, object],
                  on_result: dict[str, Callable] | None = None) -> Iterator[None]:
        """Trace the public functions of ``modules`` (span prefix -> module)."""
        on_result = on_result or {}
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for prefix, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{prefix}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, on_result.get(name)))

        undo: list[Callable[[], None]] = []

        def swap(holder: dict, key, obj) -> None:
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                holder[key] = hit[1]
                undo.append(lambda: holder.__setitem__(key, obj))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hardstars" or mod_name.startswith("hardstars.")):
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        swap(obj, key, val)
                else:
                    swap(namespace, attr, obj)
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            for restore in reversed(undo):
                restore()
