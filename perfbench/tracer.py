"""
Outside-in tracer for the msckit modules.

The tracer touches nothing under `src/`.  It replaces each public
function of each msckit module (plus a few named methods) by a wrapper,
and rebinds that wrapper under every name that pointed at the original
in any msckit module or in the benchmark's own modules, so calls made
through `from .core import find_cycle` style imports are seen too.

While enabled, every wrapped call is a span: name, start, end, parent
span and request id.  Spans are kept in memory (up to a cap; the
aggregates below keep counting past it) and written out at the end.
Per function the tracer aggregates calls, inclusive time and self time
(span duration minus the time covered by its child spans).  A wrapped
target that no longer exists is recorded as missing, never fatal.

Disabled wrappers call straight through, so the checker can run
between traced requests without adding spans.  A function that calls
itself directly stays in one span, so `calls` counts outermost calls.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter
from types import ModuleType
from typing import Callable

# Methods and properties traced besides the public module functions:
# (module, class, attribute, reported name).
METHODS = (
    ("core", "Msc", "__init__", "core.Msc.init"),
    ("core", "Msc", "canonical", "core.Msc.canonical"),
    ("core", "Msc", "hb_reach", "core.Msc.hb_reach"),
    ("mso", "Evaluator", "check", "mso.Evaluator.check"),
    ("mso", "Evaluator", "named_edges", "mso.Evaluator.named_edges"),
)

MODULES = ("io", "core", "relations", "classify", "bounded", "stw", "mso", "network", "cfsm")

# Spans kept in memory; the aggregates keep counting past it.
SPAN_CAP = 200_000


def _edge_count(result) -> int:
    return len(result.edges)


# Work counters taken from return values: reported name -> (counter, fn).
RESULT_COUNTERS = {
    "relations.transitive_closure": ("edges_out", _edge_count),
    "relations.relb": ("edges_out", _edge_count),
    "relations.relb_asy": ("edges_out", _edge_count),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        # open spans: [span index, start, time covered by children, name id]
        self._stack: list[list] = []
        self._self_total = 0.0
        self._request = -1
        self._request_self_mark = 0.0
        self._request_frame: list | None = None
        self.requests: list[tuple[float, float]] = []  # (wall, sum of span self times)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        idx = len(self.span_name)
        if idx < SPAN_CAP:
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_request.append(self._request)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [idx, 0.0, 0.0, nid]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, nid: int, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        own = dur - frame[2]
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += own
        self._self_total += own
        if self._stack:
            self._stack[-1][2] += dur
        if frame[0] >= 0:
            self.span_start[frame[0]] = frame[1]
            self.span_end[frame[0]] = end

    def begin_request(self, request_id: int) -> None:
        self._request = request_id
        self._request_self_mark = self._self_total
        self._request_frame = [-1, 0.0, 0.0, -1]
        self._stack.append(self._request_frame)
        self.enabled = True
        self._request_frame[1] = perf_counter()

    def end_request(self) -> None:
        end = perf_counter()
        self.enabled = False
        frame = self._request_frame
        # unwinding after an exception may leave spans open; drop them
        del self._stack[:]
        self.requests.append((end - frame[1], self._self_total - self._request_self_mark))
        self._request_frame = None

    # -- wrappers ---------------------------------------------------------

    def _wrap_callable(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            yields_key = f"{name}.yields"
            self.counts.setdefault(yields_key, 0)

            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return tracer._traced_generator(fn, args, kwargs, nid, yields_key)

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        if counter is not None:
            self.counts.setdefault(f"{name}.{counter[0]}", 0)

        def wrapper(*args, **kwargs):
            # direct recursion stays inside the caller's span
            if not tracer.enabled or tracer._stack[-1][3] == nid:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(nid, frame)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                tracer.counts[key] += counter[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_generator(self, fn, args, kwargs, nid, yields_key):
        """Each resumption of the generator is its own span segment;
        the call is counted once, on creation."""
        frame = self._open(nid)
        try:
            it = fn(*args, **kwargs)
        finally:
            self._close(nid, frame)
        calls = self.calls[nid]  # resumptions below are not new calls
        while True:
            frame = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(nid, frame)
                self.calls[nid] = calls
            self.counts[yields_key] += 1
            yield item

    def _wrap_cached_property(self, prop: property, name: str, key: str) -> property:
        """Trace only the computing calls of a property that memoises
        into the instance's `_cache` dict; cached reads pass through."""
        fget = prop.fget
        traced = self._wrap_callable(fget, name)

        def getter(obj):
            cache = getattr(obj, "_cache", None)
            if isinstance(cache, dict) and key in cache:
                return fget(obj)
            return traced(obj)

        return property(getter, prop.fset, prop.fdel, prop.__doc__)

    # -- installation -----------------------------------------------------

    def install(self, package: str, extra_modules: tuple[ModuleType, ...] = ()) -> None:
        """Wrap every public function of each module of `package` named
        in MODULES, and the METHODS, rebinding the wrappers wherever the
        originals are referenced."""
        mods = {m: sys.modules.get(f"{package}.{m}") for m in MODULES}
        scan = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        scan.extend(extra_modules)
        for short, mod in mods.items():
            if mod is None:
                self.missing.append(f"{short} (module)")
                continue
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap_callable(obj, f"{short}.{attr}")
                for target in scan:
                    for tname, tval in list(vars(target).items()):
                        if tval is obj:
                            self._set(target, tname, wrapped)
        for short, cls_name, attr, name in METHODS:
            mod = mods.get(short)
            cls = getattr(mod, cls_name, None) if mod is not None else None
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, property):
                self._set(cls, attr, self._wrap_cached_property(raw, name, attr))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap_callable(raw, name))
            else:
                self.missing.append(name)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per reported name: calls, inclusive ms and self ms."""
        return {
            name: {
                "calls": self.calls[nid],
                "total_ms": self.total_s[nid] * 1000.0,
                "self_ms": self.self_s[nid] * 1000.0,
            }
            for nid, name in enumerate(self.names)
        }

    def write(self, path: str, extra: dict) -> None:
        """One JSON header line, then one line per stored span:
        [name, start_s, end_s, parent index, request id]."""
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(extra)
            header.update(
                {
                    "totals": self.totals(),
                    "counts": self.counts,
                    "missing": self.missing,
                    "spans_stored": len(self.span_name),
                    "spans_dropped": self.spans_dropped,
                }
            )
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        [
                            names[self.span_name[i]],
                            round(self.span_start[i], 9),
                            round(self.span_end[i], 9),
                            self.span_parent[i],
                            self.span_request[i],
                        ]
                    )
                    + "\n"
                )
