"""Span tracer installed around boundarylab's public functions.

The tracer replaces module attributes and class attributes of the layer
modules with thin wrappers.  A wrapper records a span only where a call
crosses a layer boundary (its caller is a different layer, a benchmark job or
set-up); calls that stay inside one layer pass straight through, feeding only
the counters in HOOKS.  Spans stay in memory as tuples and are summarised or
written once, after measurement.

Calls that reach a function through a name bound by ``from ... import`` in the
library bypass the module-attribute wrappers and stay unmeasured; method calls
are always seen, because methods are looked up on the class.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("unitdisc", "blaschke", "frostman", "herglotz", "series", "grid", "cli", "textio")

# Scalar helpers called once per array element or CSV cell; a wrapper would
# cost more than they do, so their time stays in their caller's span.
UNWRAPPED = ("unitdisc.normalize_angle", "unitdisc.circular_gap", "textio.fmt_float")

# Report writers are thin adapters over the text layer, so their time is
# booked to textio rather than to the module that defines them.
_TEXT_METHODS = ("write_csv",)


def _hook_eval(args, kwargs, result, counts):
    product = args[0]
    counts["factors_used"] += int(result.factors_used)
    counts["evals"] += 1
    counts["certified"] += bool(result.tail_bound <= product.truncation_tolerance)


def _hook_evaluate(args, kwargs, result, counts):
    counts["quad_points"] += int(result.size)


def _hook_series(args, kwargs, result, counts):
    counts["terms_used"] += int(result.terms_used)


def _hook_scan(args, kwargs, result, counts):
    counts["points"] += int(result.values.size)


def _hook_profile(args, kwargs, result, counts):
    counts["terms"] += int(result.angles.size) * len(args[0])


def _hook_rows(args, kwargs, result, counts):
    counts["rows"] += int(len(args[0].angles))


def _hook_call(args, kwargs, result, counts, key):
    counts[key] += 1


# Per-call counters; each adds to the counts of the innermost open span.
HOOKS = {
    "grid.label_components": lambda *a: _hook_call(*a, "labelings"),
    "grid.validate_probe": lambda *a: _hook_call(*a, "probes_validated"),
    "blaschke.BlaschkeProduct.eval_best_effort": _hook_eval,
    "herglotz.BoundaryFunction.evaluate": _hook_evaluate,
    "series.eval_series": _hook_series,
    "blaschke.boundary_scan": _hook_scan,
    "frostman.frostman_profile": _hook_profile,
    "blaschke.BoundaryScan.write_csv": _hook_rows,
}


class Tracer:
    """Records (name, layer, start, end, parent, job, counts) spans."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self.job = None

    # --- installation ----------------------------------------------------
    def install(self) -> None:
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if f"{layer}.{attr}" not in UNWRAPPED:
                        self._patch(mod, attr, obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, layer)

    def _patch_class(self, cls, layer: str) -> None:
        if any(base.__name__ in ("Enum", "IntEnum") for base in cls.__mro__[1:]):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            span_layer = "textio" if attr in _TEXT_METHODS else layer
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = self._wrapper(raw.__func__, span_layer, name)
                self._swap(cls, attr, raw, type(raw)(wrapped))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, raw, span_layer, name)

    def _patch(self, owner, attr, fn, layer, name) -> None:
        self._swap(owner, attr, fn, self._wrapper(fn, layer, name))

    def _swap(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrapper(self, fn, layer: str, name: str):
        stack = self._stack
        spans = self.spans
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                if hook is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                hook(args, kwargs, result, stack[-1][3])
                return result
            counts = defaultdict(int)
            sid = len(spans)
            spans.append(None)  # reserve the id so children can name it
            parent = stack[-1][0] if stack else -1
            frame = [sid, layer, clock(), counts]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result, counts)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, layer, frame[2], end, parent, tracer.job, counts)

        return wrapper

    # --- benchmark-side spans -------------------------------------------
    def open(self, name: str, job) -> list:
        """Open a root span for a job or set-up; close it with close()."""
        self.job = job
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, "bench", time.perf_counter(), defaultdict(int), name]
        self._stack.append(frame)
        return frame

    def close(self, frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[frame[0]] = (frame[4], "bench", frame[2], end, -1, self.job, frame[3])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, layer, start, end, parent, job, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "job": job, "counts": dict(counts),
                }, default=lambda o: o.item()) + "\n")


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer: span time minus child span time."""
    child_time = defaultdict(float)
    for name, layer, start, end, parent, job, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, (name, layer, start, end, parent, job, counts) in enumerate(spans):
        out[layer] += (end - start) - child_time[sid]
    return out
