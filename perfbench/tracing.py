"""In-process tracing of the package's module boundaries.

``Tracer.install`` wraps every public function of each layer module of
``mobstats`` (all modules except the generator, the oracle and the CLI) in
every ``mobstats.*`` namespace that binds it, matched by identity, so both
``from .geo import f`` and ``aggregate.f`` call sites are seen. A name a
module calls on itself is left unwrapped in that module's own namespace:
such calls are not layer boundaries, and some are per-polygon-edge hot
loops whose wrapping would swamp the run. Each wrapped call records one
span ``(name, parent, start, end, busy, out)``; for a generator the span
runs from its first ``next()`` to its exhaustion, ``busy`` counts only
time inside ``next()`` and ``out`` counts the items; otherwise ``out`` is
the length of a returned dict, list, tuple or set, 1 for any other result
and 0 for None. ``restore`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types

# modules that are not layers of the job: the generator, the reference and the CLI
NOT_LAYERS = frozenset({"synth", "oracle", "cli", "errors"})

NAME, PARENT, START, END, BUSY, OUT = range(6)
UNFINISHED = ("unfinished", -1, 0.0, 0.0, 0.0, 0)

_SIZED = (dict, list, tuple, set)


def _referenced_names(module: types.ModuleType) -> set[str]:
    """Global names used by the code of the functions and classes defined in module."""
    names: set[str] = set()
    stack = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            stack.append(obj.__code__)
        elif inspect.isclass(obj):
            stack += [f.__code__ for f in vars(obj).values() if inspect.isfunction(f)]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return names


class Tracer:
    """Span recorder for one traced run; hooks run at a named span's entry."""

    def __init__(self, package: str = "mobstats"):
        self.package = package
        self.spans: list[tuple | None] = []
        self.on_enter: dict[str, object] = {}
        self.marks: dict[str, object] = {}  # values entry hooks record
        self._stack = [-1]
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        pkg = importlib.import_module(self.package)
        modules = [
            importlib.import_module(f"{self.package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        targets: dict[int, tuple[object, str, types.ModuleType]] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            if layer in NOT_LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr}", mod)
        wrappers: dict[int, object] = {}
        for ns in [pkg] + modules:
            own_calls = _referenced_names(ns)
            for attr, obj in list(vars(ns).items()):
                target = targets.get(id(obj))
                if target is None:
                    continue
                fn, name, home = target
                if ns is home and attr in own_calls:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name)
                setattr(ns, attr, wrappers[id(fn)])
                self._patches.append((ns, attr, obj))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def finished_spans(self) -> list[tuple]:
        """The spans, with any still open (a call that never returned) as UNFINISHED."""
        return [s or UNFINISHED for s in self.spans]

    def _hook_span(self, hook, args, kwargs) -> None:
        """Run an entry hook, recorded as its own span so self times exclude it."""
        spans, clock = self.spans, time.perf_counter
        i = len(spans)
        spans.append(None)
        t0 = clock()
        hook(*args, **kwargs)
        t1 = clock()
        spans[i] = ("bench.hook", self._stack[-1], t0, t1, t1 - t0, 0)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_enter = self.on_enter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                i = len(spans)
                spans.append(None)
                parent = stack[-1]
                t0 = clock()
                busy = 0.0
                items = 0
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        stack.append(i)
                        s = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            busy += clock() - s
                            stack.pop()
                        items += 1
                        yield item
                finally:
                    gen.close()
                    spans[i] = (name, parent, t0, clock(), busy, items)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook = on_enter.get(name)
            if hook is not None:
                tracer._hook_span(hook, args, kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            out = 0
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                if res is not None:
                    out = len(res) if isinstance(res, _SIZED) else 1
                return res
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name, parent, t0, t1, t1 - t0, out)
        return wrapper


def named(spans, *names: str) -> list[tuple]:
    wanted = set(names)
    return [s for s in spans if s[NAME] in wanted]


def calls(spans, *names: str) -> int:
    return len(named(spans, *names))


def busy(spans, *names: str) -> float:
    return sum(s[BUSY] for s in named(spans, *names))


def layer_busy(spans, layer: str) -> float:
    """Busy time of a layer's spans that were not called from inside the layer."""
    prefix = layer + "."
    return sum(
        s[BUSY] for s in spans
        if s[NAME].startswith(prefix) and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith(prefix))
    )


def self_time(spans, parent: int, start: float, end: float) -> float:
    """Length of [start, end] minus the busy time of parent's child spans inside it."""
    children = sum(
        s[BUSY] for s in spans
        if s[PARENT] == parent and s[START] >= start and s[END] <= end
    )
    return (end - start) - children


def write_spans(spans, path: str) -> None:
    """Spans as CSV: id, name, parent, start, end, busy, out.

    Times are integer nanoseconds from the earliest span's start.
    """
    t0 = min((s[START] for s in spans if s is not UNFINISHED), default=0.0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,name,parent,start_ns,end_ns,busy_ns,out\n")
        fh.writelines(
            f"{i},{s[NAME]},{s[PARENT]},{round((s[START] - t0) * 1e9)},"
            f"{round((s[END] - t0) * 1e9)},{round(s[BUSY] * 1e9)},{s[OUT]}\n"
            for i, s in enumerate(spans)
        )
