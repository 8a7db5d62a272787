"""Unit tests of the benchmark's own rules (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class SetupTiming(unittest.TestCase):
    class FakeBench:
        """Stands in for Bench: a host that runs `slowdown` times slower
        than the reference."""
        def __init__(self, work, slowdown):
            self.work, self.slowdown, self.probes = work, slowdown, 0

        def host_factor(self):
            self.probes += 1
            return self.slowdown

    def test_setup_time_is_rescaled_and_only_the_last_set_up_kept(self):
        with tempfile.TemporaryDirectory() as work:
            b = self.FakeBench(work, 2.0)
            made = []

            def setup(d):
                with open(os.path.join(d, "trace"), "w") as f:
                    f.write("x")
                time.sleep(0.05)
                made.append(d)
                return d

            seconds, last = run.timed_setups(b, setup)
            self.assertEqual(last, made[-1])
            self.assertEqual(os.listdir(work), [os.path.basename(last)])
        self.assertGreaterEqual(len(made), run.SETUP_MIN_REPEATS)
        self.assertEqual(b.probes, run.SETUP_MIN_REPEATS + 1)
        # Each set-up takes 0.05 s on a host twice as slow as the
        # reference: 0.025 s at the reference speed.
        self.assertGreaterEqual(seconds, 0.025)
        self.assertLess(seconds, 0.05)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: exactly ten lie beyond p90, fewer beyond p95.
        p, value, n = run.tail_percentile([float(v) for v in range(1, 101)])
        self.assertEqual((p, value, n), (90, 90.0, 100))
        # One sample fewer leaves only nine beyond p90: fall back to p75.
        p, value, n = run.tail_percentile([float(v) for v in range(1, 100)])
        self.assertEqual((p, value, n), (75, 75.0, 99))
        # 1000 samples reach p99 (ten beyond), not p99.9 (one beyond).
        self.assertEqual(run.tail_percentile(list(range(1000)))[0], 99)

    def test_too_few_samples(self):
        self.assertIsNone(run.tail_percentile(list(range(19))))
        self.assertEqual(run.tail_percentile(list(range(20)))[0], 50)

    def test_beyond_counts_strictly_larger_ranks(self):
        self.assertEqual(run.beyond(100, 90), 10)
        self.assertEqual(run.beyond(189, 90), 18)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["root", 0, 100, -1],
            ["decode", 10, 30, 0],
            ["apply", 30, 80, 0],
            ["metrics", 40, 45, 2],
            ["metrics", 60, 70, 2],
        ]
        self.assertEqual(run.self_times(spans), [30, 20, 35, 5, 10])
        self.assertEqual(run.self_by_name(spans),
                         {"root": 30, "decode": 20, "apply": 35, "metrics": 15})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            ["parent", 0, 50, -1],
            ["a", 10, 30, 0],
            ["b", 20, 40, 0],   # overlaps a by 10
            ["c", 45, 70, 0],   # runs past the parent's end
        ]
        self.assertEqual(run.self_times(spans)[0], 50 - 30 - 5)

    def test_root_without_children_keeps_its_duration(self):
        self.assertEqual(run.self_times([["x", 5, 9, -1]]), [4])

    def test_encode_time_per_trace_follows_root_order(self):
        spans = [
            ["encode_pass", 0, 100, -1],
            ["trace_codec.encode", 0, 2_000_000, 0],
            ["trace_codec.encode", 0, 500_000, 0],
            ["encode_pass", 100, 200, -1],
            ["trace_codec.encode", 0, 1_000_000, 3],
        ]
        self.assertEqual(run.encode_ms_per_root(spans), [2.5, 1.0])


CHECK_OUTPUT = """\
a.hmdt: no anomalies
b.hmdt: 2 anomaly report(s):
  Root: range violation (above calibrated maximum) — value 0.97 vs calibrated [-0.50, 0.50] at sample 35 (in step)
    implicated: step
  In=Out: range violation (above calibrated maximum) — value 19.53 vs calibrated [14.30, 19.52] at sample 42 (in step)
    implicated: step
"""

REFERENCE = {
    "a.hmdt": {"bugs": [], "rate": 1.0},
    "b.hmdt": {"bugs": [
        "Root: range violation (above calibrated maximum) — value 0.97 vs calibrated "
        "[-0.50, 0.50] at sample 35 (in step)",
        "In=Out: range violation (above calibrated maximum) — value 19.53 vs calibrated "
        "[14.30, 19.52] at sample 42 (in step)",
    ], "rate": 1.0},
}


class CorrectnessGate(unittest.TestCase):
    def test_matching_verdicts_pass(self):
        self.assertEqual(run.gate(run.parse_check_output(CHECK_OUTPUT), REFERENCE), [])

    def test_tampered_verdict_is_rejected(self):
        tampered = CHECK_OUTPUT.replace("value 0.97", "value 0.98")
        self.assertEqual(run.gate(run.parse_check_output(tampered), REFERENCE), ["b.hmdt"])

    def test_dropped_report_is_rejected(self):
        lines = [l for l in CHECK_OUTPUT.splitlines() if "In=Out" not in l]
        self.assertEqual(run.gate(run.parse_check_output("\n".join(lines)), REFERENCE),
                         ["b.hmdt"])

    def test_missing_trace_is_rejected(self):
        only_b = CHECK_OUTPUT.split("\n", 1)[1]
        self.assertEqual(run.gate(run.parse_check_output(only_b), REFERENCE), ["a.hmdt"])

    def test_sampled_gate_compares_reports_and_the_filter_outcome(self):
        line = ("Root: range violation (above calibrated maximum) — value 94.90 vs "
                "calibrated [-2.64, 2.64] at sample 5 (sampled at 0.036, 17.47 band-widths out)")
        out = f"a.hmdt: 1 anomaly report(s) (sampled at 0.1669):\n  {line}\n"
        ref = {"a.hmdt": {"bugs": [line], "rate": 0.16692}}
        self.assertEqual(run.gate(run.parse_check_output(out), ref, sampled=True), [])
        # The same finding widened differently is a different verdict.
        widened = out.replace("[-2.64, 2.64]", "[-2.81, 2.81]")
        self.assertEqual(run.gate(run.parse_check_output(widened), ref, sampled=True),
                         ["a.hmdt"])
        ref["a.hmdt"]["rate"] = 0.1675
        self.assertEqual(run.gate(run.parse_check_output(out), ref, sampled=True), ["a.hmdt"])

    def test_daemon_verdicts_parse_per_tenant(self):
        out = ("fleet daemon up: ingest 127.0.0.1:1 http 127.0.0.1:2\n"
               "tenant c0-00000: 5000 events, 1 bug(s), 0 bundle(s), complete\n"
               "  " + REFERENCE["b.hmdt"]["bugs"][0] + "\n"
               "tenant c1-00000: 900 events, 0 bug(s), 0 bundle(s), partial\n")
        v = run.parse_serve_output(out)
        self.assertEqual(v["c0-00000"], {"events": 5000, "state": "complete",
                                          "bugs": REFERENCE["b.hmdt"]["bugs"][:1]})
        self.assertEqual(v["c1-00000"]["state"], "partial")


if __name__ == "__main__":
    unittest.main()
