import unittest

from pb.report import _replay_metrics, best_times, end_to_end


def op(key, ns, cpu_ns, phase=""):
    return {"key": key, "phase": phase, "ns": ns, "cpu_ns": cpu_ns}


class EndToEnd(unittest.TestCase):
    def test_best_time_per_op_and_phase(self):
        ops = [op("a", 30, 3), op("a", 10, 5), op("a", 20, 1, "warm")]
        self.assertEqual(best_times(ops), {("a", ""): 10, ("a", "warm"): 20})
        self.assertEqual(best_times(ops, "cpu_ns"),
                         {("a", ""): 3, ("a", "warm"): 1})

    def test_metrics_use_each_ops_best_repetition(self):
        # 100 distinct ops of 1..100 ms, each repeated with a slower
        # copy in another process.
        fast = [op(f"k{i}", i * 1_000_000, i * 500_000) for i in range(1, 101)]
        slow = [op(f"k{i}", i * 3_000_000, i * 2_000_000)
                for i in range(1, 101)]
        m = end_to_end([{"ops": slow, "setup_ns": 3e9, "peak_rss_kb": 1024},
                        {"ops": fast, "setup_ns": 1e9, "peak_rss_kb": 2048},
                        {"ops": slow[:1], "setup_ns": 2e9, "peak_rss_kb": 1}])
        self.assertEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["ops_per_s"], 100 / 5.050)
        self.assertEqual(m["op_ms_p50"], 50.0)
        self.assertEqual(m["op_ms_p90"], 90.0)
        self.assertAlmostEqual(m["cpu_s"], 2.525)
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_too_few_distinct_ops_for_p90(self):
        ops = [op(f"k{i}", 1, 1) for i in range(99)] * 3
        with self.assertRaises(ValueError):
            end_to_end([{"ops": ops, "setup_ns": 1, "peak_rss_kb": 1}])


class ReplayFamilies(unittest.TestCase):
    def test_ns_per_uop_over_every_hot_op_of_the_family(self):
        def dr(key, phase, ns, fam, uops):
            return {"key": key, "phase": phase, "ns": ns, "family": fam,
                    "uops": uops}
        ops = [dr("dr|q|0", "cold", 900, "cpu.inorder", 100),
               dr("dr|q|0", "hot", 300, "cpu.inorder", 100),
               dr("dr|q|0", "hot", 200, "cpu.inorder", 100),
               dr("dr|q|1", "hot", 600, "cpu.inorder", 200),
               dr("dr|q|9", "hot", 50, "systolic.gemmini", 10)]
        layers = {"dse_cells": 0, "dse_replays": 0}
        m = _replay_metrics({"ops": ops, "layers": layers})
        # Best hot times (200 + 600) over one repetition's uops (300);
        # the cold op, which also emitted, is left out.
        self.assertAlmostEqual(m["cpu.inorder.ns_per_uop"], 800 / 300)
        self.assertEqual(m["systolic.gemmini.ns_per_uop"], 5.0)
        self.assertEqual(m["cpu.ooo.ns_per_uop"], 0.0)
        self.assertEqual(m["replay.uops"], 510)


if __name__ == "__main__":
    unittest.main()
