"""Chrome-trace spans and per-layer self time.

A span's self time is its duration minus the part of it covered by the
given child spans on the same thread. Children may overlap each other
(a child and its own nested grandchild, or two children of different
layers), so coverage is the length of the union of the children's
intervals clipped to the parent, never the plain sum of their
durations.
"""

import bisect
import json
from collections import defaultdict


class Span:
    __slots__ = ("name", "tid", "start", "end", "args")

    def __init__(self, name, tid, start, end, args=None):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.args = args or {}

    @property
    def dur(self):
        return self.end - self.start


def load_trace(path):
    """Complete ('X') events of a Chrome trace file, times in ns."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        start = round(float(e["ts"]) * 1000)
        spans.append(Span(e["name"], e.get("tid", 0), start,
                          start + round(float(e["dur"]) * 1000),
                          e.get("args")))
    return spans


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if s < end and e > start)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(parent, children):
    """parent.dur minus its coverage by children (spans or intervals)."""
    ivs = [(c.start, c.end) if isinstance(c, Span) else c for c in children]
    return parent.dur - covered(parent.start, parent.end, ivs)


class SpanIndex:
    """Spans grouped by (name, thread), sorted by start."""

    def __init__(self, spans):
        self._by = defaultdict(list)
        for s in spans:
            self._by[(s.name, s.tid)].append(s)
        self._starts = {}
        for key, lst in self._by.items():
            lst.sort(key=lambda s: s.start)
            self._starts[key] = [s.start for s in lst]

    def named(self, name, within=None):
        """Every span called name, optionally starting inside within."""
        out = []
        for (n, _), lst in self._by.items():
            if n == name:
                out.extend(s for s in lst if within is None or
                           within[0] <= s.start < within[1])
        return out

    def inside(self, parent, names):
        """Spans of the given names on parent's thread that start
        inside parent and overlap it."""
        out = []
        for name in names:
            key = (name, parent.tid)
            lst = self._by.get(key)
            if not lst:
                continue
            starts = self._starts[key]
            i = bisect.bisect_left(starts, parent.start)
            j = bisect.bisect_left(starts, parent.end)
            out.extend(s for s in lst[i:j] if s is not parent)
        return out

    def enclosing(self, child, names):
        """The latest-starting span of the given names on child's thread
        that contains child's start, or None."""
        best = None
        for name in names:
            key = (name, child.tid)
            lst = self._by.get(key)
            if not lst:
                continue
            i = bisect.bisect_right(self._starts[key], child.start) - 1
            if i >= 0 and lst[i].end >= child.end and lst[i] is not child:
                if best is None or lst[i].start > best.start:
                    best = lst[i]
        return best

    def self_times(self, name, child_names, within=None):
        """Self time of every span called name (see module doc)."""
        return [(s, self_time(s, self.inside(s, child_names)))
                for s in self.named(name, within)]


def union_length(spans):
    """Wall time covered by spans, per thread, summed over threads."""
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s.tid].append((s.start, s.end))
    total = 0
    for ivs in by_tid.values():
        lo = min(s for s, _ in ivs)
        hi = max(e for _, e in ivs)
        total += covered(lo, hi, ivs)
    return total
