import json
import os
import tempfile
import unittest

from pb.spans import (Span, SpanIndex, covered, load_trace, self_time,
                      union_length)


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        parent = Span("p", 1, 0, 100)
        kids = [Span("c", 1, 10, 20), Span("c", 1, 50, 80)]
        self.assertEqual(self_time(parent, kids), 60)

    def test_overlapping_children_count_once(self):
        parent = Span("p", 1, 0, 100)
        # [10,30) and [20,50) overlap: the union covers 40, not 50.
        kids = [Span("a", 1, 10, 30), Span("b", 1, 20, 50)]
        self.assertEqual(self_time(parent, kids), 60)

    def test_nested_grandchild_is_inside_its_parent(self):
        parent = Span("p", 1, 0, 100)
        kids = [Span("a", 1, 10, 60), Span("b", 1, 20, 30)]
        self.assertEqual(self_time(parent, kids), 50)

    def test_children_are_clipped_to_the_parent(self):
        parent = Span("p", 1, 0, 100)
        kids = [(90, 120), (-5, 5)]
        self.assertEqual(self_time(parent, kids), 85)

    def test_covered_of_nothing(self):
        self.assertEqual(covered(0, 10, []), 0)
        self.assertEqual(covered(0, 10, [(20, 30)]), 0)

    def test_union_length_is_per_thread(self):
        spans = [Span("t", 1, 0, 10), Span("t", 1, 5, 15),
                 Span("t", 2, 0, 10)]
        self.assertEqual(union_length(spans), 15 + 10)


class Index(unittest.TestCase):
    def setUp(self):
        self.op = Span("bench.episode", 7, 100, 200, {"format": 3})
        self.tick = Span("hil.tick", 7, 110, 150, {"solve_iters": 25})
        self.refresh = Span("hil.refresh", 7, 115, 125)
        self.other = Span("hil.refresh", 8, 115, 125)  # another thread
        self.idx = SpanIndex([self.op, self.tick, self.refresh, self.other])

    def test_inside_stays_on_the_thread(self):
        self.assertEqual(self.idx.inside(self.tick, ("hil.refresh",)),
                         [self.refresh])

    def test_enclosing(self):
        self.assertIs(self.idx.enclosing(self.tick, ("bench.episode",)),
                      self.op)
        self.assertIsNone(self.idx.enclosing(self.other, ("bench.episode",)))

    def test_self_times_within_window(self):
        got = self.idx.self_times("hil.tick", ("hil.refresh",), (0, 1000))
        self.assertEqual(got, [(self.tick, 30)])
        self.assertEqual(self.idx.self_times("hil.tick", (), (200, 300)), [])


class LoadTrace(unittest.TestCase):
    def test_microsecond_fields_become_nanoseconds(self):
        doc = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3},
            {"name": "hil.tick", "cat": "hil", "ph": "X", "ts": 12.345,
             "dur": 1.5, "pid": 1, "tid": 3, "args": {"solve_iters": 7}},
        ]}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            spans = load_trace(path)
        self.assertEqual(len(spans), 1)
        s = spans[0]
        self.assertEqual((s.name, s.tid, s.start, s.dur), ("hil.tick", 3,
                                                           12345, 1500))
        self.assertEqual(s.args["solve_iters"], 7)


if __name__ == "__main__":
    unittest.main()
