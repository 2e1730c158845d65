"""Span tracing of oplab from outside the package.

Every public function of every ``oplab`` module is replaced, in each module
namespace where it is bound, by a wrapper that records a span; the
``numpy.linalg`` functions oplab calls are wrapped the same way.  oplab
looks these names up at call time (``np.linalg.norm``, module globals), so
no file under ``src/`` changes.  Spans nest by call order: the program is
single-threaded here, so a span's children never overlap and its self time
is its duration minus the sum of its children's durations.

Spans are kept in memory (up to MAX_SPANS) and written out at the end;
per-name counts and self times are accumulated for every span.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

MAX_SPANS = 200_000     # spans kept per run; later ones are only counted
LINALG = ("norm", "svd", "eigh", "eigvalsh", "eigvals", "matrix_power", "inv", "solve")

_GEN_PREFIX = "generators.gen_"
_EXPANSIVE_GEN = "generators.gen_expansive_invertible"


class _Frame:
    __slots__ = ("name", "start", "child", "index", "svd_children")

    def __init__(self, name, index):
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.index = index
        self.svd_children = 0


class Tracer:
    """Wraps oplab and numpy.linalg while installed; records spans while active."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]; parent -1 for roots
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)   # order_sum, draws, failures, suite tallies
        self.active = False
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Bind wrappers in every oplab module namespace and in numpy.linalg."""
        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "oplab" or name.startswith("oplab.")) and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                origin = value.__module__ or ""
                if not origin.startswith("oplab."):
                    continue
                layer = origin.rsplit(".", 1)[1]
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        for attr in LINALG:
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(f"linalg.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- span recording ---------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(frame, ok)
            tracer._observe(name, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _enter(self, name) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if name == "linalg.svd" and parent is not None and parent.name == _EXPANSIVE_GEN:
            parent.svd_children += 1
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent.index if parent else -1])
        else:
            self.dropped += 1
        frame = _Frame(name, index)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, ok: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        name = frame.name
        self.calls[name] += 1
        self.self_s[name] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if frame.index >= 0:
            span = self.spans[frame.index]
            span[1], span[2] = frame.start, end
        if name.startswith(_GEN_PREFIX):
            if not ok:
                self.counts[name + ".failed"] += 1
            if not any(f.name.startswith(_GEN_PREFIX) for f in self._stack):
                # top-level fixture draw: one draw per call, except that the
                # resampling generator draws once per sigma_min test (svd)
                draws = max(1, frame.svd_children) if name == _EXPANSIVE_GEN else 1
                self.counts["generators.draws"] += draws
                self.counts["generators.fixtures"] += 1 if ok else 0
            if name == _EXPANSIVE_GEN:
                self.counts[_EXPANSIVE_GEN + ".draws"] += frame.svd_children

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "expansivity.defect":
            spec = args[0] if args else kwargs["spec"]
            self.counts["expansivity.defect.order_sum"] += spec.m
        elif name == "suite.run_suite":
            rows = result["rows"]
            self.counts["suite.instances"] += len(rows)
            self.counts["suite.premises_met"] += sum(1 for r in rows if r["premises_met"])

    def write(self, path) -> None:
        """Write the recorded spans as JSON: one [name, start, end, parent] per span."""
        with open(path, "w") as handle:
            json.dump({"dropped": self.dropped, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, handle)
