"""Unit tests of the benchmark's reductions: python3 kokobench/test_stats.py"""
import unittest

from stats import median, self_times, tail


def span(i, parent, start, end):
    return {"id": i, "parent": parent, "start_ns": start, "end_ns": end}


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)

    def test_empty(self):
        with self.assertRaises(ValueError):
            median([])


class TailTest(unittest.TestCase):
    def test_ten_beyond_with_many_samples(self):
        xs = list(range(1, 101))  # 1..100, shuffled order must not matter
        value, pct, n = tail(reversed(xs))
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(x > value for x in xs), 10)

    def test_exactly_thirty(self):
        value, pct, _ = tail(range(30))
        self.assertEqual(value, 19)
        self.assertAlmostEqual(pct, 100 * 20 / 30)

    def test_short_run_keeps_a_third_beyond(self):
        value, pct, n = tail([5, 1, 4, 2, 3, 100, 6, 7, 8])
        self.assertEqual((value, n), (6, 9))
        self.assertAlmostEqual(pct, 100 * 6 / 9)

    def test_tiny_runs(self):
        self.assertEqual(tail([2.0]), (2.0, 100.0, 1))
        self.assertEqual(tail([1, 9]), (9, 100.0, 2))
        self.assertEqual(tail([1, 9, 5])[0], 5)


class SelfTimeTest(unittest.TestCase):
    def test_leaf(self):
        self.assertEqual(self_times([span(0, -1, 10, 30)]), {0: 20})

    def test_nested(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 1, 15, 25),
                 span(3, 0, 50, 60)]
        st = self_times(spans)
        self.assertEqual(st[0], 100 - 30 - 10)
        self.assertEqual(st[1], 30 - 10)
        self.assertEqual(st[2], 10)
        self.assertEqual(st[3], 10)

    def test_overlapping_children_counted_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 40, 70),
                 span(3, 0, 60, 65)]
        self.assertEqual(self_times(spans)[0], 100 - 60)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 150), span(2, 0, -20, 5)]
        self.assertEqual(self_times(spans)[0], 100 - 10 - 5)


if __name__ == "__main__":
    unittest.main()
