"""Outside-in tracer for the outerspine package.

The tracer changes no package source.  It wraps, from outside, the public
functions of the ten layer modules and the constructors of ``Word``,
``MarkedGraph`` and ``RationalCurrent``, and records one span per call:
name, start, end, parent span and the id of the CLI call it belongs to.

A wrapper is installed into every ``outerspine.*`` module dict that binds
the function.  ``from .graphs import transform`` copies the binding into
``minima``, ``diagnostics`` and ``sampling``; patching only the defining
module would miss every call made through those copies.

Spans stay in memory (flat arrays) until ``write`` at the end of the call.
Self time is a span's duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

PACKAGE = "outerspine"
LAYERS = (
    "words",
    "graphs",
    "currents",
    "lipschitz",
    "simplex",
    "minima",
    "sampling",
    "diagnostics",
    "jsonio",
    "cli",
)
CONSTRUCTORS = (("words", "Word"), ("graphs", "MarkedGraph"), ("currents", "RationalCurrent"))


# Counts read from return values and exceptions seen at the wrapper.  Each
# observer gets (counts, args, result, exc); result is None when exc is set.


def _count_raised(key, exc_name):
    def observe(counts, args, result, exc):
        if exc is not None and type(exc).__name__ == exc_name:
            counts[key] = counts.get(key, 0) + 1

    return observe


def _observe_minimize(counts, args, result, exc):
    if result is not None:
        counts["minima.topology_visits"] = counts.get("minima.topology_visits", 0) + result.topology_visits
        if result.budget_exhausted:
            counts["minima.budget_exhausted"] = counts.get("minima.budget_exhausted", 0) + 1


def _observe_canonical(counts, args, result, exc):
    key = "words.canonical_representative.letters"
    counts[key] = counts.get(key, 0) + len(args[0])


def _observe_images(counts, args, result, exc):
    if result is not None and result.images:
        longest = max(len(img) for img in result.images)
        if longest > counts.get("words.max_image_letters", 0):
            counts["words.max_image_letters"] = longest


OBSERVERS = {
    "simplex.solve_lp": _count_raised("simplex.solve_lp.infeasible", "Infeasible"),
    "minima.min_on_topology": _count_raised("minima.min_on_topology.infeasible", "InfeasibleSpine"),
    "minima.minimize": _observe_minimize,
    "words.canonical_representative": _observe_canonical,
    "words.compose": _observe_images,
    "words.power": _observe_images,
    "words.invert": _observe_images,
    "sampling.balanced_point": _count_raised("sampling.balanced_point.failed", "SampleError"),
}


class Tracer:
    """Records spans of one CLI call; ``install`` before it, ``uninstall`` after."""

    def __init__(self, call_id: int = 0):
        self.call_id = call_id
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [[-1, 0.0]]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def targets(self) -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for everything wrapped."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            out.append((f"{layer}.{cls_name}", cls, "__init__", cls.__dict__["__init__"]))
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        __import__(f"{PACKAGE}.cli")
        wrappers: dict[int, object] = {}
        for name, owner, attr, original in self.targets():
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        observer = OBSERVERS.get(name)
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1][0])
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][1] += t1 - t0
                span_start[sid] = t0
                span_end[sid] = t1
                calls[idx] += 1
                self_s[idx] += (t1 - t0) - frame[1]
                if observer is not None:
                    observer(counts, args, result, exc)

        return functools.update_wrapper(wrapper, fn)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span calls and self seconds, per-layer self seconds, counts."""
        spans = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layers[name.split(".", 1)[0]] += self.self_s[i]
        return {"call_id": self.call_id, "spans": spans, "layer_self_s": layers, "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        """Write the summary and every span of this call as one JSON file."""
        obj = self.summary()
        obj["names"] = self.names
        obj["span_fields"] = ["name", "parent", "start", "end"]
        obj["spans_raw"] = [
            list(self.span_name),
            list(self.span_parent),
            list(self.span_start),
            list(self.span_end),
        ]
        with open(path, "w") as fh:
            json.dump(obj, fh, separators=(",", ":"))


def layer_metrics(summary: dict, names) -> dict[str, float]:
    """The named per-layer metrics of one traced call.

    ``<layer>.self_s`` is a layer's self time, ``<span>.calls`` and
    ``<span>.self_s`` a wrapped function's; other names are counts kept by
    the observers, or the two ratios derived from them.
    """
    spans, counts = summary["spans"], summary["counts"]
    visits = counts.get("minima.topology_visits", 0)
    probes = spans.get("minima.min_on_topology", {}).get("calls", 0)
    tries = spans.get("sampling.balanced_point", {}).get("calls", 0)
    derived = {
        "minima.accept_ratio": visits / probes if probes else 0.0,
        "sampling.balanced_point.fail_ratio": (
            counts.get("sampling.balanced_point.failed", 0) / tries if tries else 0.0
        ),
    }
    out: dict[str, float] = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field == "self_s" and span in summary["layer_self_s"]:
            out[name] = summary["layer_self_s"][span]
        elif field in ("calls", "self_s") and span.count(".") == 1:
            out[name] = spans.get(span, {}).get(field, 0)
        else:
            out[name] = counts.get(name, 0)
    return out
