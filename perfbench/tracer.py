"""Spans around the public functions of every ``dirac2mm`` module, from outside.

``Tracer.install`` replaces each public module-level function, and the
constructor, arithmetic operators and public methods of each class defined
in a ``dirac2mm`` module, by a wrapper that records one span per call.  A
function is rebound under every name any ``dirac2mm`` module (the package
itself included) binds it to, so ``canonicalize`` is traced whether it is
called as ``words.canonicalize`` or through the copy ``sde`` imported.
Nothing in the package's source changes; ``uninstall`` restores it.

A span is (name, start, end, parent), held in flat arrays until the run ends.
A generator function gets one span per resumption, so the time its consumer
spends between items is not charged to it.  The layer of a span is the
module that defines the function; a span's self time is its duration minus
the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

PACKAGE = "dirac2mm"
ROOT_LAYER = "bench"

# Class members traced besides public methods.  Hashing, equality of
# generated dataclass code, rendering and container protocol are left out:
# they are cheap, numerous and belong to whoever calls them.
_TRACED_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
})


class Tracer:
    """Span recorder; install it, run the traced code inside ``root``."""

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.overhead = (0.0, 0.0)   # (inside, outside) seconds per span

    # -- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def root(self):
        """Context manager recording the span every other span nests in."""
        return _Span(self, self._nid(f"{ROOT_LAYER}.pass"))

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call (per resumption for a generator)."""
        nid = self._nid(name)
        observer = self.observers.get(name)
        # bound once: the wrapper runs millions of times
        name_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        end, stack, clock = self.end, self._stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                if observer is not None:
                    observer(args, kwargs, None)
                while True:
                    sid = len(end)
                    name_append(nid)
                    parent_append(stack[-1])
                    end_append(0.0)
                    stack.append(sid)
                    start_append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[sid] = clock()
                        stack.pop()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(end)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(sid)
            start_append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, out)
            return out

        return traced

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure the wrapper's own cost per span, to take it out of self times.

        ``inside`` is the extra time a span's own duration carries, ``outside``
        the time its caller spends in the wrapper around it.  The smallest of
        a few repeats is kept, as timing noise only ever adds.
        """
        def noop(a, b):
            return None

        inside = outside = float("inf")
        for _ in range(repeats):
            probe = Tracer()
            wrapped = probe.wrap("probe", noop)
            t0 = time.perf_counter()
            for i in range(calls):
                noop(i, probe)
            t1 = time.perf_counter()
            for i in range(calls):
                wrapped(i, probe)
            t2 = time.perf_counter()
            plain = (t1 - t0) / calls
            per_span = (t2 - t1) / calls - plain
            spans = np.frombuffer(probe.end) - np.frombuffer(probe.start)
            extra_inside = float(np.median(spans)) - plain
            inside = min(inside, max(extra_inside, 0.0))
            outside = min(outside, max(per_span - extra_inside, 0.0))
        self.overhead = (inside, outside)

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrapped: dict[int, object] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj, mod.__file__)
        # rebind every name that refers to an original public function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def _install_class(self, layer: str, cls, source_file: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            fn = member.__func__ if isinstance(member, classmethod) else member
            # skip properties and code that dataclasses generated
            if not inspect.isfunction(fn) or fn.__code__.co_filename != source_file:
                continue
            traced = self.wrap(f"{layer}.{cls.__name__}.{attr}", fn)
            self._set(cls, attr, classmethod(traced) if fn is not member else traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with durations and self times.

        Self time is the duration less the children's durations and less the
        calibrated wrapper cost (``overhead``) the span carries for itself
        and for each child; that cost is returned per span as ``tracing``.
        """
        if self._stack != [-1]:
            raise RuntimeError("spans still open")
        name_id = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        n_children = np.bincount(parent[has_parent], minlength=dur.size)
        inside, outside = self.overhead
        tracing = n_children * outside + has_parent * inside
        return {
            "name_id": name_id, "parent": parent, "start": start, "end": end,
            "dur": dur, "self": dur - child - tracing, "tracing": tracing,
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        The entry ``trace.overhead`` holds the wrapper cost taken out of the
        self times, so all self times together equal the root span.
        """
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        incl = np.bincount(a["name_id"], weights=a["dur"], minlength=n)
        own = np.bincount(a["name_id"], weights=a["self"], minlength=n)
        out = {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        cost = float(a["tracing"].sum())
        out["trace.overhead"] = {"calls": 0, "s": cost, "self_s": cost}
        return out

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_id=a["name_id"],
            parent=a["parent"], start=a["start"], end=a["end"],
        )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.end)
        t.name_id.append(self.nid)
        t.parent.append(t._stack[-1])
        t.end.append(0.0)
        t._stack.append(self.sid)
        t.start.append(time.perf_counter())

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.sid] = time.perf_counter()
        t._stack.pop()
