import unittest

from pb.check import failed_checks, failed_frac, failed_ops, tally


def op(key, sig, rep=0, phase=""):
    return {"key": key, "sig": sig, "rep": rep, "phase": phase}


class FailedFrac(unittest.TestCase):
    expected = {"a": "x", "b": "y", "frontier|q": "h1"}

    def test_matching_ops_do_not_fail(self):
        ops = [op("a", "x"), op("b", "y"), op("a", "x", 1)]
        self.assertEqual(failed_ops(ops, self.expected), [])

    def test_mismatch_and_unpinned_ops_fail(self):
        ops = [op("a", "x"), op("b", "z"), op("c", "x")]
        self.assertEqual(failed_ops(ops, self.expected), [1, 2])

    def test_warm_and_hot_must_equal_cold_of_the_same_pass(self):
        # Both differ from the pin; the warm one also disagrees with its
        # own pass's cold phase. Each op still counts once.
        ops = [op("a", "q", 0, "cold"), op("a", "r", 0, "warm"),
               op("a", "x", 1, "cold"), op("a", "x", 1, "warm")]
        self.assertEqual(failed_ops(ops, self.expected), [0, 1])
        self.assertEqual(failed_ops(ops, {"a": "q"}), [1, 2, 3])
        # A hot replay is held to the same pass's cold phase too.
        ops = [op("a", "q", 0, "cold"), op("a", "r", 0, "hot")]
        self.assertEqual(failed_ops(ops, {"a": "r"}), [0, 1])

    def test_checks_fail_on_flag_or_pinned_detail(self):
        checks = [{"name": "pool_equals_serial", "ok": True, "detail": ""},
                  {"name": "runstream|a|1", "ok": False, "detail": "1 vs 2"},
                  {"name": "frontier|q", "ok": True, "detail": "h2"}]
        self.assertEqual(failed_checks(checks, self.expected),
                         ["runstream|a|1", "frontier|q"])

    def test_tally_counts_ops_and_checks(self):
        results = [
            {"ops": [op("a", "x"), op("b", "bad")],
             "checks": [{"name": "pool_equals_serial", "ok": True,
                         "detail": ""}]},
            {"ops": [op("a", "x")], "checks": []},
        ]
        attempted, failed, problems = tally(results, self.expected)
        self.assertEqual((attempted, failed, problems), (4, 1, ["b"]))
        self.assertEqual(failed_frac(attempted, failed), 0.25)

    def test_failed_frac_of_nothing_is_total_failure(self):
        self.assertEqual(failed_frac(0, 0), 1.0)


if __name__ == "__main__":
    unittest.main()
