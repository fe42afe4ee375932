"""In-memory span tracer for the public functions of mandeldip's modules.

`Tracer.install` replaces every public function of the named modules by
a wrapper that records one span (name, start, end, parent). Functions
are replaced as module attributes, so calls made through `fock.` /
`pdc.` / `detect.` from other modules, and calls inside a module through
its own globals, are all caught. `Tracer.uninstall` puts the originals
back. Spans stay in memory until `write` stores them.
"""

from __future__ import annotations

import contextlib
import inspect
import time
import warnings
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

# Extra counter read from one call: (args, kwargs, result, warnings) -> n.
# A function with probes runs with its warnings recorded, not printed.
Probe = Callable[[tuple, dict, object, list], float]


class Tracer:
    def __init__(self, probes: Dict[str, Dict[str, Probe]] | None = None):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: List[int] = []
        self.probes = probes or {}
        self.counters: Dict[str, float] = {}
        self._saved: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        probes = self.probes.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                if probes is None:
                    return fn(*args, **kwargs)
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            except BaseException:
                self.count(name + ".raised")
                raise
            finally:
                self.close(idx)
            for key, probe in probes.items():
                self.count(f"{name}.{key}", probe(args, kwargs, result, seen))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Wrap every public function defined in each module."""
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(f"{short}.{attr}", obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # ------------------------------------------------------- analysis

    def arrays(self):
        name = np.frombuffer(self.name_id, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        return name, start, end, parent

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds."""
        name, start, end, parent = self.arrays()
        incl, own = self_times(start, end, parent)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl_sum = np.bincount(name, weights=incl, minlength=n)
        self_sum = np.bincount(name, weights=own, minlength=n)
        return {nm: {"calls": int(calls[i]), "incl_s": float(incl_sum[i]),
                     "self_s": float(self_sum[i])}
                for i, nm in enumerate(self.names)}

    def write(self, path) -> None:
        name, start, end, parent = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            start=start - t0, end=end - t0, parent=parent)


def self_times(start, end, parent) -> Tuple[np.ndarray, np.ndarray]:
    """Inclusive duration of each span and its self time: the duration
    minus the part covered by its direct children. Children of one span
    never overlap on a single thread, so that part is their summed
    duration."""
    incl = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=incl[has], minlength=len(incl))
    return incl, incl - covered
