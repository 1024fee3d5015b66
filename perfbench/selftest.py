"""Self-tests for the benchmark's own arithmetic, at smoke size.

    python3 perfbench/selftest.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from stats import median, tail_percentile  # noqa: E402


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(range(1, 101)), (90.0, 90, 10))
        self.assertEqual(tail_percentile(range(1, 1001)), (99.0, 990, 10))
        self.assertEqual(tail_percentile(range(1, 2001)), (99.0, 1980, 20))
        self.assertEqual(tail_percentile(range(1, 20001)), (99.9, 19980, 20))

    def test_input_order_does_not_matter(self):
        self.assertEqual(tail_percentile(range(100, 0, -1)), (90.0, 90, 10))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(tail_percentile([3, 1, 2]), (100.0, 3, 0))

    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # outer 0..10 holds inner 1..3 and inner 4..8, which holds leaf 5..6
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
        leaf = tracer.wrap("leaf", lambda: None)

        def inner_body(nested):
            if nested:
                leaf()

        inner = tracer.wrap("inner", inner_body)

        def outer_body():
            inner(False)
            inner(True)

        tracer.item = 7
        tracer.call("outer", outer_body)
        totals = tracer.totals()
        self.assertEqual(totals["outer"], [1, 10, 10 - 2 - 4])
        self.assertEqual(totals["inner"], [2, 6, 2 + 3])
        self.assertEqual(totals["leaf"], [1, 1, 1])
        self.assertEqual(tracer.spans, [("outer", 0, 10, None, 7, 4)])

    def test_span_parent_and_item(self):
        tracer = tracing.Tracer(clock=FakeClock(range(10)))
        tracer.item = 3
        tracer.call("a", lambda: tracer.call("b", lambda: None))
        spans = {s[0]: s for s in tracer.spans}
        self.assertEqual(spans["b"][3], 0)  # parent is span 0, "a"
        self.assertIsNone(spans["a"][3])
        self.assertEqual({s[4] for s in tracer.spans}, {3})


class Phase(unittest.TestCase):
    def test_min_passes_and_reference_scale(self):
        steps = [workloads.Step("a", True, lambda: "1")]
        slow_host = lambda: 2 * reference.REFERENCE_PROBE_S  # noqa: E731
        phase = worker.run_phase(
            workloads.Workload(steps, {}), 0.0, min_passes=3, probe=slow_host
        )
        self.assertEqual((phase["passes"], phase["attempted"]), (3, 3))
        self.assertAlmostEqual(phase["elapsed_s"], phase["measured_elapsed_s"] / 2)
        self.assertAlmostEqual(
            phase["item_latency_ms"][0], phase["measured_item_latency_ms"][0] / 2
        )

    def test_raising_item_counts_and_run_continues(self):
        def boom():
            raise workloads.CheckFailed("wrong")

        steps = [
            workloads.Step("a", True, lambda: "1"),
            workloads.Step("b", True, boom),
            workloads.Step("c", True, lambda: "3"),
        ]
        phase = worker.run_phase(workloads.Workload(steps, {}), 0.0)
        self.assertEqual((phase["attempted"], phase["failed"]), (3, 1))
        self.assertEqual(len(phase["item_latency_ms"]), 3)
        self.assertEqual(len(phase["errors"]), 1)
        self.assertIn("CheckFailed", phase["errors"][0])

    def test_failed_item_changes_the_digest(self):
        good = [workloads.Step("a", True, lambda: "1")]
        bad = [workloads.Step("a", True, lambda: 1 / 0)]
        d_good = worker.run_phase(workloads.Workload(good, {}), 0.0)["digest"]
        d_bad = worker.run_phase(workloads.Workload(bad, {}), 0.0)["digest"]
        self.assertNotEqual(d_good, d_bad)


class Digest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        worker.import_library()

    def words_digest(self, seed):
        wl = workloads.build("words", seed, worker.direct_call, word_rounds=1)
        phase = worker.run_phase(wl, 0.0)
        self.assertEqual(phase["failed"], 0, phase["errors"])
        return phase["digest"]

    def test_stable_for_one_seed(self):
        self.assertEqual(self.words_digest(5), self.words_digest(5))

    def test_seed_changes_the_words(self):
        self.assertNotEqual(self.words_digest(5), self.words_digest(6))

    def test_traced_run_gives_the_same_output(self):
        tracer = tracing.Tracer()
        wl = workloads.build("words", 5, tracer.call, word_rounds=1)
        uninstall = tracing.install(tracer)
        try:
            digest = worker.run_phase(wl, 0.0, tracer=tracer)["digest"]
        finally:
            uninstall()
        self.assertEqual(digest, self.words_digest(5))
        self.assertEqual(tracer.totals()["freealg.reduce"][0], 80)

    def test_uninstall_restores_the_library(self):
        from m2alg import groebner, sequences
        from m2alg.fields import FpElem

        mul = FpElem.__dict__["__mul__"]
        f_st = sequences.f_st
        uninstall = tracing.install(tracing.Tracer())
        self.assertIsNot(FpElem.__dict__["__mul__"], mul)
        self.assertIsNot(groebner.f_st, f_st)
        uninstall()
        self.assertIs(FpElem.__dict__["__mul__"], mul)
        self.assertIs(groebner.f_st, f_st)


if __name__ == "__main__":
    unittest.main()
