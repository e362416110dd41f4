"""Outside-in span tracing of the recsel layers.

`Tracer.install` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records
a span (name, parent, start, end, work units).  Modules that imported a
function by name (`from .streams import replicate_stream`) hold their own
reference, so every `recsel.*` namespace that refers to a traced function is
rebound too; `restore` puts every original back and reports any it could not.
Spans stay in memory until `Summary` turns them into per-name and per-layer
totals and `write` dumps them.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "streams", "montecarlo", "families", "records", "estimators", "stationarity")


def _critical_value_draws(fn):
    sig = inspect.signature(fn)

    def units(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        return int(bound["replications"]) * len(tuple(bound["n_values"]))
    return units


# work units recorded with a span, by span name
UNITS = {
    "montecarlo.ThetaStream.take": lambda fn: (
        lambda args, kwargs: int(args[1] if len(args) > 1 else kwargs["count"])),
    "records.extract_records": lambda fn: (
        lambda args, kwargs: len(args[0] if args else kwargs["seq"])),
    "stationarity.critical_values": _critical_value_draws,
}

# functions whose return values are kept for the work counters
KEEP_RESULTS = {"montecarlo.simulate_records"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0_ns, t1_ns, units, request)
        self.request = 0  # identifier shared by the spans of one CLI call
        self.results: list[tuple] = []  # (name, return value) of KEEP_RESULTS calls
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []  # (namespace, attribute, original)

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        units_of = UNITS[name](fn) if name in UNITS else None
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a span opened on a worker thread was caused by the span the main
            # thread is blocked in (the pool's submitter)
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                units = units_of(args, kwargs) if units_of else 0
                tracer.spans.append((sid, parent, name, t0, t1, units, tracer.request))
            if keep:
                tracer.results.append((name, result))
            return result

        return traced

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        self._main_stack = self._stack()
        wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"recsel.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._patch_class(layer, obj)
        # rebind the functions wherever a recsel namespace holds them
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "recsel" or modname.startswith("recsel.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    setattr(module, attr, wrappers[id(obj)])
                    self._patched.append((module, attr, obj))

    def _patch_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                continue  # properties and class attributes are left alone
            self._patched.append((cls, attr, raw))

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not return."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        left = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns, attr, original in self._patched
                if (vars(ns).get(attr) if isinstance(ns, type) else getattr(ns, attr)) is not original]
        self._patched.clear()
        return left

    def write(self, path) -> None:
        """All spans, one per line: id, parent, name, start_ns, end_ns, units, request."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tunits\trequest\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


class Summary:
    """Per-name and per-layer totals of one traced pass."""

    def __init__(self, spans: list[tuple]):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid, parent, name, t0, t1, units, _ in spans:
            children[parent].append((t0, t1))
        for sid, parent, name, t0, t1, units, _ in spans:
            covered = _union_length(children.get(sid, ()), t0, t1)
            self.calls[name] += 1
            self.self_ns[name] += (t1 - t0) - covered
            self.incl_ns[name] += t1 - t0
            self.units[name] += units

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.split(".", 1)[0] == layer) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".", 1)[0] == layer)


def _union_length(intervals, lo: int, hi: int) -> int:
    """Length of the part of [lo, hi] covered by the intervals; children on
    worker threads overlap each other, so they are merged, not summed."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)  # skip what earlier intervals covered
        if b > a:
            total += b - a
            end = b
    return total
