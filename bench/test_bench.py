"""Tests of the benchmark itself, not of the package. Run from the root of a
checkout with:

    python3 -m pytest bench -q        (or: python3 -m unittest discover -s bench)
"""

from pathlib import Path
import signal
import statistics
import sys
import unittest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import vanishingflats  # noqa: E402
import vanishingflats.cli  # noqa: E402,F401

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def package_objects():
    """Every attribute of the package and its layer modules, plus every
    attribute of the classes they define."""
    found = {}
    for ns in [vanishingflats] + [getattr(vanishingflats, layer) for layer in spans.LAYERS]:
        for name, obj in vars(ns).items():
            found[ns.__name__, name] = obj
            if isinstance(obj, type) and obj.__module__.startswith("vanishingflats"):
                for attr, raw in vars(obj).items():
                    found[obj.__module__, obj.__name__, attr] = raw
    return found


def wrapped(objects):
    """Keys of the objects that are tracer wrappers."""
    return sorted(str(k) for k, v in objects.items()
                  if getattr(getattr(v, "__func__", v), "__bench_wrapped__", False))


class SelfTimeArithmetic(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on
        # [3, 4]; a has child c [2, 3] and 0.5 s of counted-layer time.
        tree = [Span(0, 7, "cli", "root", 0.0, 10.0),
                Span(1, 7, "vflats", "a", 1.0, 4.0, parent=0, leaf_s=0.5),
                Span(2, 7, "boolfunc", "b", 3.0, 6.0, parent=0),
                Span(3, 7, "vflats", "c", 2.0, 3.0, parent=1)]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[0], 10 - 5)       # children cover [1, 6]
        self.assertAlmostEqual(selfs[1], 3 - 1 - 0.5)
        self.assertAlmostEqual(selfs[2], 3)
        self.assertAlmostEqual(selfs[3], 1)
        layers = spans.layer_self_times(tree)
        self.assertAlmostEqual(layers["vflats"], 1.5 + 1)
        self.assertAlmostEqual(layers["cli"], 5)
        # a child sticking out of its parent only counts inside the parent
        clipped = [Span(0, 0, "cli", "p", 0.0, 2.0), Span(1, 0, "cli", "k", 1.0, 5.0, parent=0)]
        self.assertAlmostEqual(spans.self_times(clipped)[0], 1.0)

    def test_outermost_time(self):
        tree = [Span(0, 0, "boolfunc", "build", 0.0, 4.0),
                Span(1, 0, "gf", "other", 0.5, 3.5, parent=0),
                Span(2, 0, "boolfunc", "build", 1.0, 2.0, parent=1),
                Span(3, 0, "boolfunc", "build", 5.0, 6.0)]
        self.assertAlmostEqual(spans.outermost_time(tree, {"build"}), 4.0 + 1.0)


def tiny_ops(cli):
    """Three fast ops; the first has a deliberately wrong oracle."""
    def count_is(want):
        return lambda o, ctx: oracles.expect(oracles.single_int(o) == want, "wrong count")

    def explode():
        raise RuntimeError("boom")

    return [workloads.cli_op(cli, ["vflats", "count", "--n", "6", "--monomial", "7"],
                             count_is(85)),                      # right answer is 84
            workloads.Op("raises", explode, lambda o, ctx: None),
            workloads.cli_op(cli, ["vflats", "count", "--n", "6", "--monomial", "7"],
                             count_is(oracles.TABLE2[6][7]), top=True)]


class FailureAccounting(unittest.TestCase):
    def test_wrong_answer_counted_and_pass_continues(self):
        ops = tiny_ops(vanishingflats.cli)
        results = workloads.run_pass(ops, sampler=hostspeed.Sampler())
        self.assertEqual(len(results), 3)
        self.assertIn("wrong count", results[0].error)
        self.assertIn("RuntimeError", results[1].error)
        self.assertIsNone(results[2].error)
        workload = workloads.Workload("tiny", ops)
        passes = [{"traced": False, "results": results}, {"traced": False, "results": results}]
        _, attempted, failed, probe_failed = run.summarize(workload, passes)
        self.assertEqual((attempted, failed, probe_failed), (6, 4, 0))

    def test_probe_failures_kept_apart(self):
        ops = tiny_ops(vanishingflats.cli)
        ops[0].probe = True
        workload = workloads.Workload("tiny", ops)
        passes = [{"traced": False, "results": workloads.run_pass(ops, sampler=hostspeed.Sampler())}]
        _, attempted, failed, probe_failed = run.summarize(workload, passes)
        self.assertEqual((attempted, failed, probe_failed), (3, 1, 1))


class Wrappers(unittest.TestCase):
    def test_untraced_run_installs_nothing(self):
        before = package_objects()
        workload = workloads.Workload("tiny", tiny_ops(vanishingflats.cli))
        handler = signal.getsignal(signal.SIGALRM)
        passes = run.measure(workload, 0, hostspeed.Sampler())
        self.assertTrue(all(r.scaled > 0 for r in passes[0]["results"]))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        after = package_objects()
        self.assertEqual(wrapped(after), [])
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(before[k] is after[k] for k in before))

    def test_traced_run_restores_everything(self):
        before = package_objects()
        tracer = spans.Tracer(vanishingflats)
        tracer.install()
        try:
            self.assertIn(str(("vanishingflats.gf2n", "GF", "mul")), wrapped(package_objects()))
            self.assertIn(str(("vanishingflats.cli", "kloosterman")), wrapped(package_objects()))
        finally:
            tracer.uninstall()
        workload = workloads.Workload("tiny", tiny_ops(vanishingflats.cli))
        passes = run.measure(workload, 0, hostspeed.Sampler(), spans.Tracer(vanishingflats))
        self.assertEqual([p["traced"] for p in passes], [False, True])
        layers = passes[1]["layers"]
        self.assertGreater(layers["vflats.count_s"], 0)
        self.assertGreater(layers["gf2n.pow_calls"], 0)
        after = package_objects()
        self.assertEqual(wrapped(after), [])
        self.assertTrue(all(before[k] is after[k] for k in before))


class HostSpeed(unittest.TestCase):
    def sampler(self, starts, seconds):
        sampler = hostspeed.Sampler()
        sampler.starts, sampler.seconds = list(starts), list(seconds)
        return sampler

    def test_scaled_time(self):
        ref = hostspeed.REFERENCE_S
        # samples every 0.1 s from 0 to 2 s: the host runs at half the
        # reference speed from 1 s on
        starts = [i / 10 for i in range(21)]
        seconds = [ref if t < 1 else 2 * ref for t in starts]
        sampler = self.sampler(starts, seconds)
        self.assertAlmostEqual(sampler.inside(0.25, 0.55), 3 * ref)
        self.assertAlmostEqual(sampler.scaled(0.25, 0.55), 0.3 - 3 * ref)
        self.assertAlmostEqual(sampler.scaled(1.25, 1.55), (0.3 - 6 * ref) / 2)
        # a short op between samples takes the speed of the nearest ones
        self.assertAlmostEqual(sampler.speed(1.72, 1.73), 2 * ref)
        self.assertAlmostEqual(sampler.rescale(1.0, 0.31, 0.32), 1.0)

    def test_long_op_scaled_stretch_by_stretch(self):
        ref = hostspeed.REFERENCE_S
        starts = [i / 100 for i in range(201)]
        seconds = [ref if t < 1 else 2 * ref for t in starts]
        sampler = self.sampler(starts, seconds)
        # [0.5, 1.5] holds 101 samples, 50 fast then 51 slow; in stretches of
        # 9, the first 54 samples have a fast median and the other 47 a slow one
        work = 1.0 - (50 + 2 * 51) * ref
        self.assertAlmostEqual(sampler.scaled(0.5, 1.5), work * (54 + 47 / 2) / 101)

    def test_around_samples_both_sides(self):
        sampler = hostspeed.Sampler()
        scaled = sampler.around(lambda: 0.5)
        self.assertEqual(len(sampler.seconds), hostspeed.NEAREST)
        self.assertAlmostEqual(scaled, 0.5 * hostspeed.REFERENCE_S
                               / statistics.median(sampler.seconds))


class Oracles(unittest.TestCase):
    def test_closed_forms_match_table2(self):
        self.assertEqual([oracles.kloosterman(n) for n in (2, 3, 5, 6)], [4, -4, 12, -8])
        self.assertEqual(oracles.d7_count(8), oracles.TABLE2[8][7])
        self.assertEqual(oracles.gold_count(8, 4), oracles.TABLE2[8][17])
        self.assertEqual(oracles.gold_count(6, 3), oracles.TABLE2[6][9])
        self.assertEqual(oracles.inverse_count(6), oracles.TABLE2[6][31])

    def test_cover_facts_rejects_overlap(self):
        cover = workloads._trivial_cover(9, [3, 5])
        self.assertEqual(oracles.cover_facts(cover, 9, 2), (False, False))
        cover["flats"][1]["base"] = cover["flats"][0]["base"]
        with self.assertRaises(oracles.OracleFailure):
            oracles.cover_facts(cover, 9, 2)

    def test_balanced_support_cost(self):
        import random
        rng = random.Random(0)
        for n in (8, 9, 10):
            for size in range(1, 7):
                support = workloads.balanced_support(rng, n, size)
                self.assertEqual(len(support), size)
                self.assertTrue(all(0 <= i < j < n for i, j in support))
                self.assertEqual(sum(i + j for i, j in support), size * (n - 1))


if __name__ == "__main__":
    unittest.main()
