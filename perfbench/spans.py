"""In-memory span recorder and the wrappers that put spans around layer calls.

A span is one call into a layer: its name, start, end, parent span and the
request it belongs to.  Spans are kept in flat arrays while the program runs
and written out once, at the end.  A span's self time is its duration minus
the time its direct children cover; it is accumulated as each child closes.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array

# The program's layers: the modules whose public calls are traced.
LAYERS = ("cli", "oracle", "cyclotomic", "core", "riemann_roch", "bounds", "exact_arith")
# Operators that are part of the field API but are dunders; wrapped so that
# generic Q(zeta_e) products show up as their own layer calls.
TRACED_DUNDERS = ("__mul__", "__rmul__")


class Tracer:
    """Records spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self.current_request = 0

    def count(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self._stack.pop()
        self.end[idx] = t
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured elsewhere (such as in a child process)."""
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.request.append(self.current_request)
        self.start.append(start)
        self.end.append(end)
        self.child.append(0.0)
        if parent >= 0:
            self.child[parent] += end - start
        return idx

    def span(self, name: str) -> "_Span":
        return _Span(self, self.intern(name))

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- summaries -------------------------------------------------------

    def summary(self, requests: set[int]) -> "Summary":
        """Durations by span name, self time by layer and top-level coverage."""
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out = Summary()
        for i in range(len(self.start)):
            if self.request[i] not in requests:
                continue
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            out.durations.setdefault(name, []).append(dur)
            layer = layer_of[self.name_id[i]]
            out.self_s[layer] = out.self_s.get(layer, 0.0) + dur - self.child[i]
            if self.parent[i] < 0:
                out.covered_s += dur
        return out

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\trequest\tparent\tstart_s\tend_s\tself_s\n")
            for i in range(len(self.start)):
                dur = self.end[i] - self.start[i]
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.request[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{dur - self.child[i]:.9f}\n"
                )


class Summary:
    """Aggregates of the spans of some requests."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.covered_s = 0.0


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self) -> "_Span":
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.idx)


def install(tracer: Tracer, package: str, layers: tuple[str, ...]) -> list:
    """Wrap every public function and method defined in the layer modules.

    Each wrapper replaces the original wherever the package binds it, so
    calls made through ``from .x import y`` names are traced too.  Returns
    the undo list for ``uninstall``.
    """
    methods: dict[int, object] = {}
    functions: dict[int, tuple] = {}
    undo: list = []
    for layer in layers:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for mname, meth in list(vars(obj).items()):
                    if not isinstance(meth, types.FunctionType):
                        continue
                    if mname.startswith("_") and mname not in TRACED_DUNDERS:
                        continue
                    w = methods.get(id(meth))
                    if w is None:
                        w = methods[id(meth)] = tracer.wrap(
                            meth, f"{layer}.{obj.__name__}.{meth.__name__}")
                    undo.append((obj, mname, meth))
                    setattr(obj, mname, w)
            elif callable(obj):
                functions[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{attr}"))
    for name, mod in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = functions.get(id(obj))
            if entry is not None and entry[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, entry[1])
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
