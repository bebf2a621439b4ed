"""Span tracing of the corridors layers from outside the package.

A Tracer replaces every public function of the layer modules, at every
``corridors.*`` module attribute that binds it, with a wrapper that records a
span (name, start, end, parent).  Spans stay in memory; the caller writes
them out once.  ``uninstall`` puts the identical original objects back, and
``assert_clean`` proves that no wrapper is left anywhere in the package, so
the untraced measurement runs the program's own code only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYER_MODULES = (
    "constructions",
    "complex_core",
    "coloring",
    "quotient",
    "bounds",
    "pipeline",
    "cli",
)

_MARK = "__perfbench_span__"

# result sizes recorded at the span boundary, summed per function
RESULT_SIZES = {"complex_core.ridges_of": len}


def layer_functions() -> dict:
    """Public functions defined in the layer modules, keyed "module.function"."""
    found = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"corridors.{short}")
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                found[f"{short}.{name}"] = obj
    return found


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "corridors" or name.startswith("corridors."))
    ]


def assert_clean() -> None:
    """Raise RuntimeError if any corridors module attribute is a span wrapper."""
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{mod.__name__}.{attr} is still traced")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[sid]):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent_index]."""

    def __init__(self):
        self.spans: list = []
        self.items: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        size_of = RESULT_SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if size_of is not None:
                self.items[name] += size_of(result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        # keyed by id: module attributes need not be hashable
        names = {id(fn): name for name, fn in layer_functions().items()}
        wrappers = {}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                name = names.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[name])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        for mod, attr, original in self._patched:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")
        self._patched = []
        assert_clean()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def per_function(self) -> dict:
        """{name: {"self_s": total self seconds, "calls": span count}}."""
        totals: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = totals.setdefault(span[0], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
        return totals
