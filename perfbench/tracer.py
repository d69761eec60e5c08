"""Span tracer that wraps zmeasure's public functions from outside the package.

Every public module-level function of the traced modules is replaced, in every
zmeasure namespace that binds it, by a wrapper that records one span per call:
name, start, end, parent span and the benchmark op it belongs to.  Spans are
kept in flat in-memory arrays and written out once, at the end of a run.
``FunctionTable.build`` is wrapped on its class as well, because it is the one
place where table builds and their sizes can be counted.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("specfun", "kernels", "measures", "partitions", "sampling", "verification", "cli")


def _public_functions(module):
    """Public callables defined in ``module`` (plain functions and lru_cache wrappers)."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Records spans for calls into zmeasure while ``active`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.rows_by_op: Counter[int] = Counter()
        self.current_op = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn, on_result=None):
        nid = self._name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_rows(self, table) -> None:
        self.rows_by_op[self.current_op] += table.size

    def install(self) -> None:
        """Patch every binding of every public function in the zmeasure package."""
        package = importlib.import_module("zmeasure")
        modules = {layer: importlib.import_module(f"zmeasure.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)
        table_cls = modules["kernels"].FunctionTable
        build = table_cls.__dict__["build"]
        self._restore.append((table_cls, "build", build))
        table_cls.build = classmethod(
            self._wrap("kernels.FunctionTable.build", build.__func__, self._count_rows)
        )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time (span time minus child span time) per traced name."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        self_s = np.bincount(name_id, weights=self_time, minlength=size)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def calls_by_op(self, qualname: str) -> Counter[int]:
        """Number of spans named ``qualname`` in each op."""
        nid = self._name_ids.get(qualname)
        if nid is None:
            return Counter()
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        ops = np.frombuffer(self.op, dtype=np.int32)[name_id == nid]
        return Counter(ops.tolist())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
