"""Hand-computed checks of the steadiness runner's statistics.

Run with `python3 perfbench/run.py --selftest` (or `python3 -m unittest`
from this directory).
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import steady  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_quartiles_of_ten(self):
        # statistics.quantiles' default (exclusive) method: position
        # p * (n + 1), here 2.75, 5.5 and 8.25 of 1..10.
        q1, q2, q3 = steady.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        values = [90, 95, 100, 100, 100, 100, 100, 105, 110, 100]
        # Sorted: 90 95 100 100 100 100 100 100 105 110 -> q1 98.75,
        # median 100, q3 101.25.
        self.assertAlmostEqual(steady.spread(values), 0.025)

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(steady.worsening([10, 10, 10], [11, 11, 11],
                                                "lower"), 0.1)
        self.assertAlmostEqual(steady.worsening([10, 10, 10], [11, 11, 11],
                                                "higher"), -0.1)
        self.assertAlmostEqual(steady.worsening([100, 100], [80, 80],
                                                "higher"), 0.2)


if __name__ == "__main__":
    unittest.main()
