"""Outside-in span tracer for the benchmark.

Wraps public functions of ``demoaug`` from the outside, without editing the
package: every module (or class) that binds a listed function by name gets
the same timing wrapper, so calls through ``from .x import f`` bindings and
through ``module.f`` attribute lookups are both seen.  Spans (layer, start,
end, parent) are kept in memory and written out when the run ends.  Every
original attribute is restored on exit, also when the workload raises.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced layer: ``attr`` on ``owner`` (a module, or ``module:Class``)."""

    layer: str
    owner: str
    attr: str
    # called with the wrapped function's return value, for layers whose
    # results the benchmark checks or counts
    on_return: object = None


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = sys.modules.get(module_name)
    if obj is None:
        __import__(module_name)
        obj = sys.modules[module_name]
    return getattr(obj, class_name) if class_name else obj


def _package_modules(package: str):
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


class Tracer:
    """Context manager that patches the targets and records one span per call.

    Spans are stored column-wise; ``parent`` is the index of the enclosing
    span, or -1.  Root spans come from :meth:`root`, which the benchmark puts
    around each call into the program's entry point.
    """

    def __init__(self, targets, package: str = "demoaug"):
        self.targets = list(targets)
        self.package = package
        self.clock = time.perf_counter_ns
        self.layers: list[str] = []
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _open(self, layer_id: int) -> int:
        idx = len(self.names)
        self.names.append(layer_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def _wrap(self, layer_id: int, fn, on_return):
        open_, close = self._open, self._close

        if on_return is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = open_(layer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = open_(layer_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                on_return(result)
                return result

        return traced

    @contextlib.contextmanager
    def root(self, layer: str = "entry"):
        """A span around the benchmark's own call into the program."""
        idx = self._open(self._layer_id(layer))
        try:
            yield
        finally:
            self._close(idx)

    def __enter__(self):
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, target: Target) -> None:
        layer_id = self._layer_id(target.layer)
        try:
            owner = _resolve_owner(target.owner)
            # a class is patched in its own namespace, never an inherited slot
            original = (vars(owner)[target.attr] if isinstance(owner, type)
                        else getattr(owner, target.attr))
        except (ImportError, AttributeError, KeyError):
            # a layer that a later version removed or renamed reports zero
            # calls instead of breaking the whole run
            self.missing.append(target.layer)
            return
        wrapper = self._wrap(layer_id, original, target.on_return)
        if isinstance(owner, type):
            self._set(owner, target.attr, original, wrapper)
            return
        for module in _package_modules(self.package):
            if getattr(module, target.attr, None) is original:
                self._set(module, target.attr, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self._restore()
        return False

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def write(self, path) -> None:
        """Write every span as tab-separated ``layer start_ns end_ns parent``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in zip(self.names, self.starts, self.ends,
                                                self.parents):
                fh.write(f"{self.layers[name]}\t{start}\t{end}\t{parent}\n")

    def summary(self) -> dict:
        """Per layer: calls, total ns, self ns (total minus direct children)
        and the list of span durations in ns."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += durations[i]
        out = {layer: {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []}
               for layer in self.layers}
        for i in range(n):
            entry = out[self.layers[self.names[i]]]
            entry["calls"] += 1
            entry["total_ns"] += durations[i]
            entry["self_ns"] += durations[i] - child[i]
            entry["durations"].append(durations[i])
        return out
