import unittest

from pb.stats import median, min_samples, percentile


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples
        self.assertEqual(percentile(values, 90), 90)
        with self.assertRaises(ValueError):
            percentile(values[:99], 90)

    def test_p50_needs_ten_samples_beyond(self):
        self.assertEqual(percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            percentile(list(range(19)), 50)

    def test_min_samples_matches_the_rule(self):
        self.assertEqual(min_samples(90), 100)
        self.assertEqual(min_samples(50), 20)
        for p in (50, 90, 99):
            n = min_samples(p)
            percentile(list(range(n)), p)
            with self.assertRaises(ValueError):
                percentile(list(range(n - 1)), p)

    def test_nearest_rank_ignores_input_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
        self.assertEqual(percentile(values, 50), 3.0)
        self.assertEqual(percentile(values, 90), 5.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            percentile([], 50)


class Median(unittest.TestCase):
    def test_median_default(self):
        self.assertEqual(median([]), 0.0)
        self.assertEqual(median([3, 1, 2]), 2)


if __name__ == "__main__":
    unittest.main()
