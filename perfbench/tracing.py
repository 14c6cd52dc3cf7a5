"""Span tracing of the normalobs package, installed from outside it.

:meth:`Tracer.install` finds, by introspection of every loaded
``normalobs`` module, each public function the package defines and
replaces it at every place it is bound (its home module, ``from .x import
y`` re-bindings and the package namespace) with one shared wrapper. Public
methods, classmethods and ``__post_init__`` of the package's classes are
wrapped on the class. Functions added to the package later are traced
without editing this file.

Each wrapped call records one span: name, start, end and the index of the
enclosing span (-1 at top level). Spans live in flat arrays in memory and
are written out only by :meth:`Tracer.save`. A span's name is
``<module>.<qualname>``; its layer is the module.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "normalobs"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _layer(obj) -> str:
    return obj.__module__.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # id(original) -> (original, wrapper); the original is kept so its
        # id cannot be reused by another object
        self._wrappers: dict[int, tuple[object, object]] = {}

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and methods wherever bound.

        Wrappers are made on the first install and reused by later ones,
        so one tracer can be switched on and off around single calls.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        bindings = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith(PACKAGE)
                    and _public(value.__name__)
                ):
                    name = f"{_layer(value)}.{value.__qualname__}"
                    bindings.append((module, attr, self._wrapper(value, name)))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    bindings += self._class_bindings(value)
        for owner, attr, wrapper in bindings:
            # vars(), not getattr(): a classmethod must be put back as itself
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def _wrapper(self, fn, name: str):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = (fn, self._wrap(fn, name))
        return self._wrappers[id(fn)][1]

    def _class_bindings(self, cls) -> list[tuple[object, str, object]]:
        bindings = []
        for attr, value in list(vars(cls).items()):
            if not (_public(attr) or attr == "__post_init__"):
                continue
            if inspect.isfunction(value):
                name = f"{_layer(cls)}.{value.__qualname__}"
                bindings.append((cls, attr, self._wrapper(value, name)))
            elif isinstance(value, (classmethod, staticmethod)):
                fn = value.__func__
                wrapped = self._wrapper(fn, f"{_layer(cls)}.{fn.__qualname__}")
                bindings.append((cls, attr, type(value)(wrapped)))
        return bindings

    def uninstall(self) -> None:
        """Put every original function back where it was bound."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name id, parent index, start, end) of every span recorded so far."""
        return (
            np.frombuffer(self.name_of, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_of=name_of,
                 parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - children


def totals_by_name(names, name_of, parent, start, end) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self time in seconds)."""
    own = self_times(parent, start, end)
    calls = np.bincount(name_of, minlength=len(names))
    seconds = np.bincount(name_of, weights=own, minlength=len(names))
    return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(names)}
