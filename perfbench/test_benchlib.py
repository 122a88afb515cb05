"""Self-tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(benchlib.tail_percentile([3.0, 1.0, 2.0]),
                         ("max", 3.0))
        self.assertEqual(benchlib.tail_percentile(list(range(19)))[0], "max")

    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 21))  # 20 samples: p50 leaves 10 beyond.
        self.assertEqual(benchlib.tail_percentile(values), ("p50", 10))
        values = list(range(1, 101))  # p90 leaves 10, p99 only 1.
        self.assertEqual(benchlib.tail_percentile(values), ("p90", 90))
        values = list(range(1, 1000))  # 999 samples: p99 leaves 9.99.
        self.assertEqual(benchlib.tail_percentile(values)[0], "p90")
        values = list(range(1, 1001))
        self.assertEqual(benchlib.tail_percentile(values), ("p99", 990))

    def test_order_does_not_matter(self):
        values = list(range(1000, 0, -1))
        self.assertEqual(benchlib.tail_percentile(values), ("p99", 990))

    def test_nearest_rank(self):
        self.assertEqual(benchlib.nearest_rank([1, 2, 3, 4], 50), 2)
        self.assertEqual(benchlib.nearest_rank([1, 2, 3, 4], 51), 3)
        self.assertEqual(benchlib.nearest_rank([7], 1), 7)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([])


class F1Test(unittest.TestCase):
    SPEC = """# seldon learned specification
# <role> <score> <representation>
source 0.900000 a.src()
source 0.500000 b.src()
source 0.100000 edge.src()
sanitizer 0.800000 s.clean()
sanitizer 0.200000 seeded.clean()
sink 0.700000 k.sink()
sink 0.090000 below.sink()
"""

    def test_parsers(self):
        scores = benchlib.parse_learned_spec(self.SPEC)
        self.assertEqual(scores[("a.src()", "source")], 0.9)
        self.assertEqual(len(scores), 7)
        self.assertEqual(benchlib.parse_seed_reps("# Sources\no: x()\n"
                                                  "b: *.log\ni: y()\n"),
                         {"x()", "y()"})
        truth = benchlib.parse_truth("source\ta.src()\nsink\tk.sink()\n")
        self.assertEqual(truth["source"], {"a.src()"})
        self.assertEqual(truth["sanitizer"], set())

    def test_macro_f1(self):
        scores = benchlib.parse_learned_spec(self.SPEC)
        truth = {"source": {"a.src()", "c.src()"},
                 "sanitizer": {"s.clean()", "seeded.clean()"},
                 "sink": {"k.sink()", "below.sink()"}}
        seed = {"seeded.clean()"}
        # source: predicted {a, b, edge} (0.1 is at the threshold), 1
        # correct of 2 relevant -> P 1/3, R 1/2, F1 0.4.
        # sanitizer: the seeded rep leaves both sets -> F1 1.
        # sink: below.sink() is under 0.1 -> P 1, R 1/2, F1 2/3.
        expected = (0.4 + 1.0 + 2.0 / 3.0) / 3.0
        self.assertAlmostEqual(
            benchlib.macro_f1(scores, truth, seed, 0.1), expected)

    def test_empty_role_scores_zero(self):
        truth = {"source": {"a()"}, "sanitizer": set(), "sink": set()}
        self.assertEqual(benchlib.macro_f1({}, truth, set()), 0.0)
        scores = {("a()", "source"): 1.0}
        self.assertAlmostEqual(benchlib.macro_f1(scores, truth, set()),
                               1.0 / 3.0)


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span("a", 1.0, 3.5)]), [2.5])

    def test_children_are_subtracted_once_when_they_overlap(self):
        spans = [span("root", 0.0, 10.0),
                 span("x", 1.0, 4.0, 0),
                 span("y", 3.0, 5.0, 0),  # Overlaps x by 1.
                 span("z", 8.0, 12.0, 0)]  # Runs past the parent's end.
        own = benchlib.self_times(spans)
        # Covered: [1, 5] and [8, 10] -> 6 of 10.
        self.assertAlmostEqual(own[0], 4.0)
        self.assertEqual(own[1:], [3.0, 2.0, 4.0])

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("root", 0.0, 10.0),
                 span("mid", 2.0, 8.0, 0),
                 span("leaf", 3.0, 4.0, 1)]
        self.assertEqual(benchlib.self_times(spans), [4.0, 5.0, 1.0])

    def test_layers_and_unattributed_add_up_to_the_wall(self):
        spans = [span("learn", 0.0, 5.0),
                 span("parse", 0.5, 2.0, 0),
                 span("solve", 2.0, 4.5, 0),
                 span("request", 6.0, 7.0),
                 span("parse", 6.2, 6.6, 3)]
        layers, wall = benchlib.layer_self_times(spans, ("learn", "request"))
        self.assertEqual(wall, 6.0)
        self.assertAlmostEqual(layers["parse"], 1.9)
        self.assertAlmostEqual(layers["solve"], 2.5)
        unattributed = wall - sum(layers.values())
        self.assertAlmostEqual(unattributed, 0.5 + 0.5 + 0.6)


if __name__ == "__main__":
    unittest.main()
