"""Spans around the calls into richain's public functions, recorded from outside.

`install` replaces every binding of each public function of the traced
modules (the defining module, each `from ... import` site and the
package namespace) with a wrapper that records one span per call:
name, start, end and parent.  A span's self time is its duration minus
the time its child spans cover.  Spans stay in memory; `summary`
aggregates them when the traced call returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict


def _evolve_state_keys(params, m):
    return [(params, m)]


def _evolve_density_keys(rho, params, schedule):
    key = (params.E, params.eps, params.eta, params.tau, rho.cutoff)
    return [key] * len(schedule)


# keyed functions: the argument tuples whose repeats the summary counts
_KEY_FUNCTIONS = {
    "dynamics.evolve_state": _evolve_state_keys,
    "fock_oracle.evolve_density": _evolve_density_keys,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.errors: Counter = Counter()
        self._keys: dict[str, list] = defaultdict(list)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        key_fn = _KEY_FUNCTIONS.get(name)
        signature = inspect.signature(fn) if key_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_fn is not None:
                bound = signature.bind(*args, **kwargs)
                self._keys[name].extend(key_fn(*bound.args, **bound.kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per traced name: calls, self seconds, errors and repeat share."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
        for (name, start, end, _), cover in zip(self.spans, covered):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - cover
        for name, count in self.errors.items():
            out[name]["errors"] = count
        for name, keys in self._keys.items():
            seen = set()
            repeats = 0
            for key in keys:
                repeats += key in seen
                seen.add(key)
            out[name]["repeat_share"] = repeats / len(keys) if keys else 0.0
        return dict(out)


def install(tracer: Tracer, modules, methods) -> None:
    """Wrap every public function of `richain.<module>` at all its bindings.

    `methods` maps a module to "Class.method" names whose classmethods
    are wrapped as well.
    """
    package = importlib.import_module("richain")
    loaded = {m: importlib.import_module(f"richain.{m}") for m in modules}
    namespaces = [package, *loaded.values()]
    for layer, module in loaded.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, fn)
            for namespace in namespaces:
                for bound_name, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, bound_name, wrapper)
        for path in methods.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            raw = inspect.getattr_static(cls, meth)
            if not isinstance(raw, classmethod):
                raise TypeError(f"{layer}.{path} is not a classmethod")
            name = f"{layer}.{path}"
            setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
