"""Outside-in tracer: wraps duvalk3's public functions from the benchmark.

Each public function of a traced module is replaced in *every* duvalk3
module that binds it, because several modules import functions by name
(`search` binds `well_formed`, `threefolds` binds `form_signature`).  A
wrapper counts the call, measures it, and charges its duration to the
enclosing span, so a layer's self time is its duration minus the time its
traced children covered.  Spans (name, start, end, parent) are kept in
memory up to a cap and written out when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

MODULES = ("ade", "wps", "search", "homology", "threefolds", "catalog", "cli")
SPAN_CAP = 50_000


class Tracer:
    """Per-function calls and self time, named counters and capped spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.edges: dict[tuple[int, int], int] = {}
        self.spans: list[list] = []
        self.dropped = 0
        self._child = [0.0]   # time covered by traced children, per open span
        self._sids = [-1]     # span index per open span (-1: not recorded)
        self._callers = [-1]  # name index per open span (-1: none)

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, fn, name: str, after=None):
        i = self._index(name)
        calls, self_s, edges, spans = self.calls, self.self_s, self.edges, self.spans
        child, sids, callers = self._child, self._sids, self._callers
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = callers[-1]
            key = (parent, i)
            edges[key] = edges.get(key, 0) + 1
            if len(spans) < SPAN_CAP:
                sid = len(spans)
                spans.append([i, 0.0, 0.0, sids[-1]])
            else:
                sid = -1
                self.dropped += 1
            child.append(0.0)
            sids.append(sid)
            callers.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                callers.pop()
                sids.pop()
                dur = t1 - t0
                self_s[i] += dur - child.pop()
                child[-1] += dur
                calls[i] += 1
                if sid >= 0:
                    spans[sid][1] = t0
                    spans[sid][2] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """A benchmark-level span (a pass phase) around traced calls."""
        return _Span(self, self._index(name))

    def install(self) -> None:
        """Patch every duvalk3 binding of each public function."""
        hooks = {
            "ade.form_signature":
                lambda args, res: self.count("ade.form_signature.rank_sum", args[0].dim),
            "search.enumerate_k3_hypersurfaces":
                lambda args, res: self.count("search.families_found", len(res)),
        }
        loaded = [m for n, m in sys.modules.items()
                  if n == "duvalk3" or n.startswith("duvalk3.")]
        for short in MODULES:
            mod = importlib.import_module(f"duvalk3.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(obj, name, hooks.get(name))
                for m in loaded:
                    if getattr(m, attr, None) is obj:
                        setattr(m, attr, wrapper)
        from duvalk3.homology import FormalClass

        init = FormalClass.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["homology.FormalClass.constructions"] = (
                counts.get("homology.FormalClass.constructions", 0) + 1)
            init(obj, *args, **kwargs)

        FormalClass.__init__ = counted_init

    def summary(self) -> dict:
        calls = {n: c for n, c in zip(self.names, self.calls) if c}
        self_s = {n: s for n, s in zip(self.names, self.self_s) if calls.get(n)}
        edges = {f"{self.names[p] if p >= 0 else '-'} > {self.names[c]}": k
                 for (p, c), k in self.edges.items()}
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts),
                "edges": edges}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "dropped": self.dropped,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


class _Span:
    """Times a phase as a traced span and snapshots call counts inside it."""

    def __init__(self, tracer: Tracer, i: int) -> None:
        self.t, self.i = tracer, i

    def __enter__(self):
        t = self.t
        self.before = list(t.calls), dict(t.counts)
        sid = len(t.spans)
        t.spans.append([self.i, 0.0, 0.0, t._sids[-1]])
        t._child.append(0.0)
        t._sids.append(sid)
        t._callers.append(self.i)
        self.sid = sid
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.t
        t1 = time.perf_counter()
        t._callers.pop()
        t._sids.pop()
        dur = t1 - self.t0
        t.self_s[self.i] += dur - t._child.pop()
        t._child[-1] += dur
        t.calls[self.i] += 1
        t.spans[self.sid][1:3] = [self.t0, t1]
        calls, counts = self.before
        self.delta = {n: c - b for n, c, b in zip(t.names, t.calls, calls) if c != b}
        self.delta.update({n: c - counts.get(n, 0) for n, c in t.counts.items()
                           if c != counts.get(n, 0)})
        self.seconds = dur
        return False
