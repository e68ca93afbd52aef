"""In-memory span recorder, fed by wrappers installed from outside the library.

``install`` replaces every binding of each target function in the loaded
``zitterlab`` modules (``run_process`` is bound in ``process``, ``scenarios``,
``verification`` and the package itself) with a wrapper that records one span
(name, start, end, parent) per call and then runs an optional counting hook
on the call's arguments and result.  Methods are replaced on their class.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span names plus the spans and counts of the current recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._replaced: list[tuple] = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._open = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_index(name))
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> np.ndarray:
        """Per span, its duration minus the durations of its direct children."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.names[n], s, e, p]
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
            ],
        }


def _wrap(tracer: Tracer, fn, name: str, hook):
    nid = tracer.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, functions: dict, methods: dict, hooks: dict) -> dict:
    """Wrap ``functions`` ({function: span name}) under every name a loaded
    ``zitterlab`` module binds them to, and ``methods`` ({(class, attribute):
    span name}) on their class, until ``uninstall``.  Returns {span name:
    [binding, ...]}."""
    wrappers = {id(fn): (fn, _wrap(tracer, fn, name, hooks.get(name)), name) for fn, name in functions.items()}
    bindings: dict[str, list[str]] = {name: [] for name in functions.values()}
    modules = [m for n, m in sorted(sys.modules.items()) if n == "zitterlab" or n.startswith("zitterlab.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                tracer._replaced.append((module, attr, value))
                setattr(module, attr, entry[1])
                bindings[entry[2]].append(f"{module.__name__}.{attr}")
    for (cls, attr), name in methods.items():
        tracer._replaced.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, _wrap(tracer, cls.__dict__[attr], name, hooks.get(name)))
        bindings[name] = [f"{cls.__module__}.{cls.__qualname__}.{attr}"]
    return bindings


def uninstall(tracer: Tracer) -> None:
    """Put back every binding that ``install`` replaced."""
    while tracer._replaced:
        owner, attr, original = tracer._replaced.pop()
        setattr(owner, attr, original)
