"""Spans and call counts around the public functions of the spla modules.

The package imports its functions by name (``from .matops import svd``), so a
function is wrapped in every spla module namespace that holds it: the wrapper
of ``matops.svd`` replaces ``spla.sparse_loadings.svd`` and
``spla.variance.svd`` alike. Every wrapper is named after the module that
defines the function. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: The layers are the spla modules whose public functions are wrapped.
LAYERS = ("data", "matops", "sparse_loadings", "blocks", "evaluation",
          "variance", "pipeline", "cli")

#: Functions called often enough (hundreds of thousands of times per
#: analysis) that a span would distort them: these only count calls.
COUNT_ONLY = frozenset({"matops.soft_threshold"})


def public_functions() -> dict[str, object]:
    """``{"layer.name": function}`` for the functions each layer exports.

    A layer's exports are its ``__all__``; ``cli`` has none and exports its
    entry point ``main``.
    """
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"spla.{layer}")
        for name in getattr(mod, "__all__", ("main",)):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """Records spans ``(name, start, end, parent, analysis)`` and call counts.

    ``install`` wraps every public function for one analysis; ``remove``
    puts the originals back. Spans stay in memory until the run ends.
    """

    def __init__(self):
        self.functions = public_functions()
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()  # (name, analysis) -> calls
        self._stack: list[int] = []
        self._analysis = -1
        self._counts: dict[str, list[int]] = {}  # per installed wrapper
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn, count: list[int]):
        """Wrapper of ``fn`` that adds its calls to ``count[0]``."""
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                count[0] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            count[0] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._analysis)
        return spanned

    def install(self, analysis: int) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._analysis = analysis
        self._counts = {name: [0] for name in self.functions}
        wrappers = {
            id(fn): self._wrap(name, fn, self._counts[name])
            for name, fn in self.functions.items()
        }
        for modname, mod in list(sys.modules.items()):
            if modname != "spla" and not modname.startswith("spla."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        for name, count in self._counts.items():
            if count[0]:
                self.calls[name, self._analysis] += count[0]

    def leftover_wrappers(self) -> list[str]:
        """Module attributes that no longer hold their original function."""
        originals = {id(fn) for fn in self.functions.values()}
        left = []
        for modname, mod in list(sys.modules.items()):
            if modname != "spla" and not modname.startswith("spla."):
                continue
            for attr, value in vars(mod).items():
                wrapped = getattr(value, "__wrapped__", None)
                if wrapped is not None and id(wrapped) in originals:
                    left.append(f"{modname}.{attr}")
        return left

    def self_seconds(self) -> dict[str, float]:
        """Total self time per function: span time minus direct child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[index]
        return dict(total)

    def span_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def calls_in(self, analyses) -> Counter:
        """Calls per function, summed over the given analysis ids."""
        wanted = set(analyses)
        out = Counter()
        for (name, analysis), n in self.calls.items():
            if analysis in wanted:
                out[name] += n
        return out
