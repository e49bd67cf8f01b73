"""Call tracer for the fblsec package, installed from outside at run time.

Wraps every public function and every public method of a class defined in
an fblsec module, then rebinds every module-level name that refers to a
wrapped function, so the copies other modules hold through
``from .x import y`` (and the package's re-exports) are traced too.

Statistics are aggregated per function -- calls, inclusive seconds and
self seconds -- so memory stays bounded however many calls a run makes.
Self time is a call's duration minus the durations of the traced calls
it made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# Functions whose returned arrays are channel coefficients. Only the
# outermost of nested calls is counted (sample_rician draws through
# sample_rayleigh).
DRAW_FUNCTIONS = frozenset(
    {"channels.sample_rayleigh", "channels.sample_rician", "channels.apply_reciprocity_error"}
)


class Tracer:
    """Per-function call statistics of one instrumented package."""

    def __init__(self):
        #: qualified name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: complex coefficients returned by the outermost draw calls
        self.draws = 0
        #: while True, wrappers call straight through without recording
        self.paused = False
        self._stack: list[float] = []
        self._draw_depth = 0

    def install(self, package) -> None:
        """Wrap the public callables of every module of ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, tuple[object, object]] = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{name}")
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def _wrap_methods(self, cls, qualname: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrap(attr.__func__, f"{qualname}.{name}"))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(attr, f"{qualname}.{name}")
            else:
                continue
            setattr(cls, name, wrapped)

    def _wrap(self, fn, key: str):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        counts_draws = key in DRAW_FUNCTIONS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if counts_draws:
                tracer._draw_depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if counts_draws:
                    tracer._draw_depth -= 1
            if counts_draws and tracer._draw_depth == 0:
                tracer.draws += int(getattr(result, "size", 0))
            return result

        return traced

    def table(self) -> dict[str, dict]:
        """Per-function aggregates, for writing out when the run ends."""
        return {
            key: {"calls": calls, "total_s": total, "self_s": own}
            for key, (calls, total, own) in sorted(self.stats.items())
        }
