"""Span tracer that wraps library functions from outside the library.

A ``Tracer`` replaces every binding of each traced function across the
loaded ``ccme.*`` modules (a module that did ``from .kernels import gram``
holds its own binding, so patching ``ccme.kernels.gram`` alone would miss
it) and restores the originals when the ``traced`` block ends.  Classes are
traced by patching their ``__init__`` and named classmethods in place, which
every binding of the class shares.

Spans are kept in memory as tuples and written out by the caller when the
run ends.  Each span records its name, trace id, span id, parent span id,
start and end.  A span opened with no open parent, or by a function marked
as a root, starts a new trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# (name, trace_id, span_id, parent_id, start, end); parent_id 0 = no parent
Span = tuple[str, int, int, int, float, float]

# hook(bound_arguments, result, counts) -> None, run after a traced call
Hook = Callable[[inspect.BoundArguments, Any, Counter], None]


@dataclass
class Target:
    """One traced function: ``module.attr``, or ``module.Class`` whose
    ``__init__`` and ``methods`` are all recorded under the class name."""

    module: str
    attr: str
    hook: Hook | None = None
    root: bool = False
    methods: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


PACKAGE = "ccme"


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    missing: list[str] = field(default_factory=list)
    _stack: list[tuple[int, int]] = field(default_factory=list)
    _next_id: int = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None,
             root: bool = False) -> Callable:
        """Return ``fn`` wrapped so each call records one span under ``name``."""
        sig = inspect.signature(fn) if hook is not None else None
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._new_id()
            if stack and not root:
                trace_id, parent_id = stack[-1][0], stack[-1][1]
            else:
                trace_id, parent_id = span_id, stack[-1][1] if stack else 0
            stack.append((trace_id, span_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((name, trace_id, span_id, parent_id, start, end))
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound, result, counts)
            return result

        return traced

    @contextmanager
    def traced(self, targets: list[Target]) -> Iterator["Tracer"]:
        """Patch every target for the length of the block, then restore."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for target in targets:
                undo.extend(self._install(target))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, target: Target) -> list[tuple[Any, str, Any]]:
        module = sys.modules.get(target.module)
        original = getattr(module, target.attr, None) if module else None
        if original is None:
            warnings.warn(f"trace target {target.module}.{target.attr} not "
                          "found; it will report zero calls", RuntimeWarning)
            self.missing.append(target.name)
            return []
        if inspect.isclass(original):
            return self._install_class(target, original)
        wrapped = self.wrap(target.name, original, target.hook, target.root)
        undo = []
        for mod in self._package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        return undo

    def _install_class(self, target: Target, cls: type
                       ) -> list[tuple[Any, str, Any]]:
        undo = []
        for attr in ("__init__", *target.methods):
            raw = cls.__dict__.get(attr)
            if raw is None:
                warnings.warn(f"trace target {target.name}.{attr} not found",
                              RuntimeWarning)
                self.missing.append(f"{target.name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(target.name, raw.__func__,
                                                target.hook, target.root))
            else:
                patched = self.wrap(target.name, raw, target.hook, target.root)
            undo.append((cls, attr, raw))
            setattr(cls, attr, patched)
        return undo

    def _package_modules(self) -> list[Any]:
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``.

    Self time is a span's duration minus the part of its interval covered by
    its direct child spans.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, _, parent, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for name, _, span_id, _, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - covered(start, end,
                                                  children.get(span_id, []))
    return out


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
