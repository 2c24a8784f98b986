"""Span tracing of the ntumatch modules, installed from outside the library.

``Tracer.install`` replaces every public function of every ``ntumatch``
module with a recording wrapper, in every module that binds it: the
wrapper for ``graphs.max_matching`` also replaces the ``max_matching`` name
that ``couples`` imported.  A few methods named by the benchmark's metrics
get the same treatment, or only a call counter where a span per call would
cost more than the work it measures.  ``Tracer.uninstall`` restores every
binding, so untraced passes run the unmodified library.

A span records its name, start, end, parent span and query id.  Self time
(the span's duration minus the time its child spans cover) is summed per
name while the run goes; spans themselves stay in memory, up to a cap, and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# (module, class, method, mode): "span" records spans, "count" only counts.
METHODS = (
    ("graphs", "Graph", "__init__", "count"),
    ("graphs", "Matching", "__init__", "count"),
    ("matroids", "MatchingMatroid", "indep", "count"),
    ("games", "BlockCertificate", "validate", "span"),
)

# Per-call extra figures for functions whose result carries a size.
ITEMS = {
    "constant_players.frontier": lambda res: len(res.maximal_vectors),
}


def find_caches(modules: dict) -> dict:
    """Every ``functools.lru_cache`` object bound at module level, keyed by
    ``module.function`` of the function it wraps.  Found by scanning, so
    caches that are renamed, scoped or deleted drop out without a change
    here."""
    caches = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                getattr(obj, "cache_info", None)
            ):
                inner = getattr(obj, "__wrapped__", obj)
                key = f"{inner.__module__.rpartition('.')[2]}.{inner.__name__}"
                caches.setdefault(key, obj)
    return caches


class Stat:
    __slots__ = ("calls", "self_s", "hits", "yielded", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        self.yielded = 0
        self.items = 0


class Tracer:
    def __init__(self, modules: dict, span_cap: int = 200_000):
        """``modules`` maps short module names (``graphs``) to modules."""
        self.modules = modules
        self.span_cap = span_cap
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.query = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._wrappers = self._build_wrappers()

    # -- wrappers ---------------------------------------------------------

    def _stat(self, key: str) -> tuple[Stat, int]:
        if key not in self.stats:
            self.stats[key] = Stat()
            self.names.append(key)
        return self.stats[key], self.names.index(key)

    def _new_span(self) -> tuple[int, int]:
        """A fresh span id and the id of the span it runs under."""
        sid = self._next_id
        self._next_id += 1
        return sid, self._stack[-1][2] if self._stack else -1

    def _enter(self, sid: int, parent: int) -> list:
        """Pushes a frame: start, time covered by children, span, parent."""
        frame = [time.perf_counter(), 0.0, sid, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, st: Stat, name_id: int, record: bool) -> float:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        st.self_s += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if record:
            self._record(name_id, frame[0], end, frame[2], frame[3])
        return end

    def _record(self, name_id, start, end, sid, parent) -> None:
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, name_id, start, end, parent, self.query))
        else:
            self.spans_dropped += 1

    def _span_wrapper(self, key: str, fn):
        st, name_id = self._stat(key)
        items = ITEMS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(*self._new_span())
            try:
                res = fn(*args, **kwargs)
            finally:
                self._exit(frame, st, name_id, True)
                st.calls += 1
            if res is not None and res is not False:
                st.hits += 1
            if items is not None:
                st.items += items(res)
            return res

        return wrapper

    def _generator_wrapper(self, key: str, fn):
        """Times each resume of the generator as part of the span, and
        leaves the consumer's time between resumes out of it."""
        st, name_id = self._stat(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            gen = fn(*args, **kwargs)
            sid, parent = self._new_span()
            first = last = None
            try:
                while True:
                    frame = self._enter(sid, parent)
                    if first is None:
                        first = frame[0]
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        last = self._exit(frame, st, name_id, False)
                    st.yielded += 1
                    yield item
            finally:
                gen.close()
                if first is not None:
                    self._record(name_id, first, last, sid, parent)

        return wrapper

    def _count_wrapper(self, key: str, fn):
        st, _ = self._stat(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build_wrappers(self) -> dict:
        """id(original) -> (original, wrapper) for every public function
        defined in an ntumatch module, lru-cached ones included."""
        out = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or id(obj) in out:
                    continue
                inner = getattr(obj, "__wrapped__", obj)
                if not inspect.isfunction(inner) or inner.__module__ != mod.__name__:
                    continue
                key = f"{short}.{name}"
                if inspect.isgeneratorfunction(inner):
                    wrapper = self._generator_wrapper(key, obj)
                else:
                    wrapper = self._span_wrapper(key, obj)
                out[id(obj)] = (obj, wrapper)
        return out

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for short, cls_name, meth, mode in METHODS:
            cls = getattr(self.modules.get(short), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                continue
            key = f"{short}.{cls_name}.{meth}"
            if mode == "span":
                wrapper = self._span_wrapper(key, orig)
            else:
                wrapper = self._count_wrapper(key, orig)
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """A header line naming the fields and the span names, then one
        JSON array per span: id, name index, start, end, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "fields": ["id", "name", "start", "end", "parent", "query"],
                "names": self.names,
                "dropped": self.spans_dropped,
            }
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
