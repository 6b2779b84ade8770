"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function defined in a conexa module and
rebinds each reference to it: module globals in every conexa module (modules
import names directly, so `disentangle.partial_contract` and
`quantum.partial_contract` are two bindings of one function) and values of
module-level dicts such as the CLI's menu-token table.  A call through any
other reference would escape its span; `profile_counts` lets the self-test
prove that none does.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import types
from collections import Counter

PACKAGE = "conexa"

# Outcome counters for the ratio metrics: a call is a "hit" when this holds.
HIT_TESTS = {
    "quantum.partial_contract": lambda r: r is not None,
    "disentangle.classify_on_subset": lambda r: r.confidence.value == "CERTIFIED",
    "density.is_completely_entangled_on": lambda r: r[1].value == "PPT_NECESSARY",
}


def _holds(test, result) -> bool:
    """A hit test that no longer fits the function's result counts no hit
    instead of breaking the call it observes."""
    try:
        return bool(test(result))
    except (AttributeError, TypeError, IndexError):
        return False


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _public_functions() -> dict:
    """Original function -> "<module>.<name>" for every public function of the package."""
    found = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and value.__module__ == module.__name__
                    and value.__name__ == attr and not attr.startswith("_")):
                found[value] = module.__name__[len(PACKAGE) + 1:] + "." + attr
    return found


class Tracer:
    """Records (layer, item, start, end, parent) spans while installed."""

    def __init__(self):
        self.names = _public_functions()
        self.spans: list = []
        self.hits: Counter = Counter()
        self.item = None
        self._stack: list = []
        self._wrappers = {fn: self._wrap(fn, name) for fn, name in self.names.items()}
        self._rebound: list = []

    def _wrap(self, fn, name):
        spans, stack, hits = self.spans, self._stack, self.hits
        test = HIT_TESTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, self.item, start, end, parent)
            if test is not None and _holds(test, result):
                hits[name] += 1
            return result

        return wrapper

    def install(self) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    self._rebound.append((vars(module), attr, value))
                    setattr(module, attr, self._wrappers[value])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if isinstance(entry, types.FunctionType) and entry in self._wrappers:
                            self._rebound.append((value, key, entry))
                            value[key] = self._wrappers[entry]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._rebound):
            namespace[key] = original
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self.hits.clear()

    def aggregate(self) -> dict:
        """{layer: {"calls", "hits", "self_s"}} over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap because calls are serial.
        """
        self_time = [end - start for _, _, start, end, _ in self.spans]
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out = {}
        for (name, *_), self_s in zip(self.spans, self_time):
            entry = out.setdefault(name, {"calls": 0, "hits": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        for name, hits in self.hits.items():
            out[name]["hits"] = hits
        return out

    def calls_by_item(self) -> dict:
        return dict(Counter((item, name) for name, item, *_ in self.spans))

    def write_spans(self, path) -> None:
        """One JSON line per span: layer, item, start and end in seconds, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def profile_counts(self, run) -> Counter:
        """Calls of every wrapped function as the interpreter's profiler sees them
        while `run()` executes; equal to the span counts when no call escapes."""
        codes = {fn.__code__: name for fn, name in self.names.items()}
        seen: Counter = Counter()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                seen[codes[frame.f_code]] += 1

        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
        return seen


def median_layers(passes: list) -> dict:
    """Per-layer calls and hits of the first pass, median self time over passes."""
    out = {}
    for name in passes[0]:
        entry = dict(passes[0][name])
        entry["self_s"] = statistics.median(p[name]["self_s"] for p in passes)
        out[name] = entry
    return out
