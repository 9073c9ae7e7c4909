"""Span tracing of diskclass from the outside, for the traced benchmark run.

A :class:`Tracer` replaces every public function and method of the layer
modules with a wrapper that records one span per call: name, start, end,
parent span and, for a few layers, a size (points evaluated by a
functional, bytes written by the canonical encoder) or the exception that
ended the call.  Names that other modules rebound with ``from .x import y``
are replaced too, as are functions held in module-level dispatch tables, so
every route into a layer is seen.  Nothing in the package source changes;
:meth:`Tracer.uninstall` puts every original back.

Spans stay in memory.  :func:`layer_metrics` turns one slice of them into the
per-layer table, and the run writes one slice out at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import types
from collections import defaultdict, namedtuple
from time import perf_counter

import numpy as np

LAYERS = ("series", "catalog", "operators", "hankel", "membership",
          "explorer", "serialize", "cli")

FUNCTIONAL = "operators.PointFunctional.__call__"
SCAN = "membership.extremal_on_circle"
RADIUS = "membership.radius_of"
BUILD = "catalog.build_member"
CANON = "serialize.canonical_json"

# Exceptions build_member raises for inadmissible parameters; any other
# type is counted under "other".
REJECTIONS = ("DenominatorVanishes", "ParamOutOfRange")

# Refine probes of a circle scan evaluate one point per bracket (three
# brackets); the coarse pass evaluates the whole grid.
REFINE_MAX_POINTS = 3


def _points(args, out):
    return int(np.size(args[1]))


def _bytes(args, out):
    return len(out)


SIZERS = {FUNCTIONAL: _points, CANON: _bytes}


# One call: span id, parent span id (0 for none), name, start and end
# (perf_counter seconds), size (points or bytes, where measured) and the
# name of the exception that ended it.
Span = namedtuple("Span", "sid parent name t0 t1 size error")


class Tracer:
    """Records spans of calls into the layer modules while installed."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._patches = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
            return stack

    def _wrap(self, name, fn):
        tracer = self
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's outermost call belongs to the call that
                # is open on the main thread (run_campaign's pool).
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            size, error = None, None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(args, out)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, t0, t1, size, error))

        return traced

    # -- installation -------------------------------------------------------
    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self):
        """Wrap every public function and method of the layer modules."""
        modules = [importlib.import_module(f"diskclass.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                    self._set(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        # Names rebound by ``from .x import y`` and dispatch tables such as
        # the CLI's command map still point at the originals.
        for mod in [importlib.import_module("diskclass")] + modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrapped:
                            self._set(obj, key, wrapped[value])

    def _install_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# per-layer figures from one slice of spans
# ---------------------------------------------------------------------------
def self_times(spans):
    """Self time per span: its duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


def layer_metrics(spans):
    """Counts and self times of one slice, keyed by span name.

    Returns (by_name, extra): by_name maps a span name to
    {"calls", "self_ms", "size"}; extra holds the figures that need the
    span tree (scan split, radius scans, rejections).
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    by_name = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "size": 0})
    extra = {"coarse_ms": 0.0, "refine_ms": 0.0, "radius_scans": 0,
             "build_ok": 0, "rejected": defaultdict(int)}
    for s in spans:
        row = by_name[s.name]
        row["calls"] += 1
        row["self_ms"] += 1e3 * selfs[s.sid]
        row["size"] += s.size or 0
        parent = by_id.get(s.parent)
        parent_name = parent.name if parent is not None else None
        if s.name == FUNCTIONAL and parent_name == SCAN and s.size is not None:
            key = "refine_ms" if s.size <= REFINE_MAX_POINTS else "coarse_ms"
            extra[key] += 1e3 * (s.t1 - s.t0)
        elif s.name == SCAN and parent_name == RADIUS:
            extra["radius_scans"] += 1
        elif s.name == BUILD:
            if s.error is None:
                extra["build_ok"] += 1
            else:
                bucket = s.error if s.error in REJECTIONS else "other"
                extra["rejected"][bucket] += 1
    return dict(by_name), extra


def dump_spans(spans, fileobj):
    """Write spans as JSON lines: id, parent, name, start/end (s), size, error."""
    base = min((s.t0 for s in spans), default=0.0)
    for s in sorted(spans, key=lambda s: s.t0):
        fileobj.write(json.dumps({
            "id": s.sid, "parent": s.parent, "name": s.name,
            "start": round(s.t0 - base, 9), "end": round(s.t1 - base, 9),
            "size": s.size, "error": s.error}) + "\n")
