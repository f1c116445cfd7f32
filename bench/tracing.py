"""Timing wrappers installed from outside the program, and the spans they record.

A `Tracer` replaces a public crossrate function at every binding it has in
the loaded crossrate modules: the defining module, each module that
imported it by name, the package namespace and module-level dispatch
dicts (such as `intensity._SEGMENT_METHODS`).  Every call then records a
span `(id, name, start, end, parent id)`; spans stay in memory until the
benchmark writes them out.  Leaving the `installed()` block puts every
original binding back.

Self time of a span is its duration minus the durations of its direct
child spans.  Parents are tracked per thread, so spans opened in worker
threads have no parent.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    `span` is the span name, or a function of the call's (args, kwargs)
    that returns it.  `observe`, if given, is called as
    `observe(result, args, kwargs, seconds)` after each successful call.
    """

    module: str
    name: str
    span: str | Callable[[tuple, dict], str]
    observe: Callable | None = None

    def span_name(self, args: tuple, kwargs: dict) -> str:
        return self.span if isinstance(self.span, str) else self.span(args, kwargs)


PACKAGE = "crossrate"


def _loaded_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.span_name(args, kwargs)
            stack = tracer._stack()
            with tracer._lock:
                sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, name, start, end, parent))
            if target.observe is not None:
                target.observe(result, args, kwargs, end - start)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every binding of each target; restore them all on exit."""
        restore: list[tuple[Callable[[object], None], object]] = []
        try:
            for target in targets:
                original = getattr(sys.modules[target.module], target.name)
                wrapper = self._wrap(original, target)
                for mod in _loaded_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((functools.partial(setattr, mod, attr), original))
                        elif type(value) is dict:
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapper
                                    restore.append((functools.partial(value.__setitem__, key), original))
            yield self
        finally:
            for put_back, original in reversed(restore):
                put_back(original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, name, start, end, _parent in self.spans:
            agg = totals[name]
            agg[0] += 1
            agg[1] += (end - start) - child[sid]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}, fh)
