"""Span tracing from outside the package.

The tracer replaces a public function or method with a wrapper that records a
span (name, start, end, parent) around each call. Spans live in flat arrays
in memory and are written out once, when the benchmark ends. Self time is a
span's duration minus the durations of its direct children; the program is
single-threaded wherever a wrapper is installed, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Any, Callable, Optional

import numpy as np

ROOT_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # one number per span, filled by the wrapper's ``value`` callback
        self.value = array("d")
        self._stack = [ROOT_PARENT]
        self._patches: list[tuple[Any, str, Any]] = []

    # --- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, value: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._intern(name)
        name_id, parent, start, end, values, stack = (
            self.name_id, self.parent, self.start, self.end, self.value, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            values.append(value(*args, **kwargs) if value is not None else 0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, value=None) -> None:
        """Wrap ``module.attr`` and every ``uvrpipe`` module's alias of it.

        A function that does not exist is left alone: its metrics read 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        traced = self.wrap(name, original, value)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "uvrpipe" and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, value=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis ----------------------------------------------------------

    def analyse(self) -> "SpanTable":
        return SpanTable(self)

    def save(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.asarray(self.names, dtype=str),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                value=np.frombuffer(self.value, dtype=np.float64),
            )


class SpanTable:
    """Per-name totals over the recorded spans, optionally filtered by parent."""

    def __init__(self, tracer: Tracer) -> None:
        self._ids = dict(tracer._name_ids)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.value = np.frombuffer(tracer.value, dtype=np.float64).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.duration = np.frombuffer(tracer.end, dtype=np.float64) - self.start
        n = len(self.duration)
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        self.self_time = self.duration - covered[:n]
        self.parent_name = np.full(n, ROOT_PARENT, dtype=np.int32)
        self.parent_name[has_parent] = self.name_id[self.parent[has_parent]]

    def __len__(self) -> int:
        return len(self.duration)

    def select(
        self, name: str, parent: Optional[str] = None, grandparent: Optional[str] = None
    ) -> np.ndarray:
        """Spans called ``name``, optionally only those under the given callers."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(len(self), dtype=bool)
        mask = self.name_id == nid
        if parent is not None:
            mask &= self.parent_name == self._ids.get(parent, -2)
        if grandparent is not None:
            idx = np.nonzero(mask)[0]
            mask[idx] = self.parent_name[self.parent[idx]] == self._ids.get(grandparent, -2)
        return mask

    def count(self, name: str, parent: Optional[str] = None) -> int:
        return int(self.select(name, parent).sum())

    def total_s(self, name: str, parent: Optional[str] = None) -> float:
        return float(self.duration[self.select(name, parent)].sum())

    def self_s(self, name: str, parent: Optional[str] = None) -> float:
        return float(self.self_time[self.select(name, parent)].sum())

    def values(self, name: str, parent: Optional[str] = None) -> np.ndarray:
        return self.value[self.select(name, parent)]

    def starts(self, name: str, parent: Optional[str] = None) -> np.ndarray:
        return self.start[self.select(name, parent)]

    def per_call_us(self, name: str, parent: Optional[str] = None) -> float:
        n = self.count(name, parent)
        return 1e6 * self.total_s(name, parent) / n if n else 0.0
