"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program by replacing functions
where they are looked up (a module global, or a method on its class). Each
span keeps its name, start, end and parent; spans stay in flat arrays until
the run ends, when :meth:`SpanRecorder.write` dumps them and
:meth:`SpanRecorder.restore` puts the original functions back.

The program is single-threaded, so spans nest as a call stack: the children
of a span are disjoint and lie inside it, and its self time is its duration
minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        nid = self._intern(name)
        stack, name_ids, starts, ends, parents = (
            self._stack, self.name_id, self.start, self.end, self.parent
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, adapt=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.

        ``adapt(original)``, when given, returns the callable to trace in
        place of the original, for probes that also count arguments or keep
        results.
        """
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(adapt(original) if adapt else original, name))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span ``name``; used for the benchmark's phases."""
        return self.wrap(fn, name)(*args, **kwargs)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]

    def write(self, path: str) -> None:
        """Dump every span as ``index name start end parent``, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# index name start_s end_s parent_index\n")
            for i, (name, s, e, p) in enumerate(self.spans()):
                fh.write(f"{i} {name} {s!r} {e!r} {p}\n")


def fold(spans: list[tuple[str, float, float, int]]) -> dict[str, dict[str, dict[str, float]]]:
    """Per root span name, then per span name: calls, total time and self time.

    ``spans`` are ``(name, start, end, parent_index)`` in start order with
    parent -1 for a root, as :meth:`SpanRecorder.spans` returns them. A
    root's own row is grouped under itself.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    out: dict[str, dict[str, dict[str, float]]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        rows = out.setdefault(spans[root[i]][0], {})
        row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def merge(folded: dict[str, dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Sum the rows of :func:`fold` over all roots."""
    out: dict[str, dict[str, float]] = {}
    for rows in folded.values():
        for name, row in rows.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
    return out
