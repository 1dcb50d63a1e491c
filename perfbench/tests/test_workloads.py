"""Tests that the benchmark's known-answer judges can fail."""

import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import VERIFY_ALL, jobs  # noqa: E402


def report(check, mode, status="pass", err=0.0, path="exact-symbolic"):
    return {"check_name": check, "mode": mode, "status": status,
            "decision_path": path, "max_abs_error": err, "witness": None}


def verify_all_output(reports):
    return json.dumps({"reports": reports, "summary": {}})


class JobSequenceTest(unittest.TestCase):
    def test_seed_fixes_inputs_and_job_1_repeats_job_0(self):
        for workload in workloads.WORKLOADS:
            a = [j.invocations[0].argv for j, _ in zip(jobs(workload, 5), range(4))]
            b = [j.invocations[0].argv for j, _ in zip(jobs(workload, 5), range(4))]
            c = [j.invocations[0].argv for j, _ in zip(jobs(workload, 6), range(4))]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)
            self.assertEqual(a[0], a[1])
            self.assertNotEqual(a[1], a[2])

    def test_pythagorean_points_are_rational(self):
        rng = random.Random(1)
        for _ in range(50):
            g, gp, s, R = workloads.pythagorean_point(rng)
            self.assertEqual(g * g + gp * gp, s * s)
            self.assertGreater(min(g, gp, R), 0)


class VerifyAllJudgeTest(unittest.TestCase):
    def setUp(self):
        self.judge = next(jobs("verify-all", 1)).invocations[0].judge
        self.good = [report(c, m) for c, m in VERIFY_ALL]

    def test_known_answer_passes(self):
        self.assertEqual(self.judge(0, verify_all_output(self.good)), [])

    def test_each_defect_counts(self):
        failed = list(self.good)
        failed[3] = report(*VERIFY_ALL[3], status="fail", err=-1.0)
        self.assertEqual(len(self.judge(1, verify_all_output(failed))), 11)
        self.assertEqual(len(self.judge(0, verify_all_output(failed))), 1)
        inexact = list(self.good)
        inexact[0] = report(*VERIFY_ALL[0], err=1e-15)
        self.assertEqual(len(self.judge(0, verify_all_output(inexact))), 1)
        loose = list(self.good)
        loose[8] = report(*VERIFY_ALL[8], err=2e-10, path="numeric-oracle")
        self.assertEqual(len(self.judge(0, verify_all_output(loose))), 1)
        self.assertEqual(len(self.judge(0, verify_all_output(self.good[:-1]))), 11)
        self.assertEqual(len(self.judge(0, "Traceback")), 11)


class MassesJudgeTest(unittest.TestCase):
    def output(self, **changes):
        # g=3, gp=4, R=2: m_W = 3, m_Z = 5, e = 12/5, cos = 3/5
        d = {"m_A": 0.0, "m_Z": 5.0, "m_W": 3.0, "e_charge": 2.4, "cos_theta_W": 0.6,
             "exact": {"m_Z_sq": "25", "m_W_sq": "9", "m_Z": "5", "m_W": "3",
                       "e_charge": "12/5", "cos_theta_W": "3/5"}}
        for key, value in changes.items():
            if key.startswith("exact_"):
                d["exact"][key[6:]] = value
            else:
                d[key] = value
        return json.dumps(d)

    def test_known_answers(self):
        judge = workloads._masses_judge(Fraction(3), Fraction(4), Fraction(2), Fraction(5))
        self.assertEqual(judge(0, self.output()), [])
        for bad in ({"exact_m_W_sq": "10"}, {"exact_m_Z_sq": "24"}, {"m_A": 1e-9},
                    {"m_W": 3.0000001}, {"exact_cos_theta_W": "4/5"}):
            self.assertEqual(len(judge(0, self.output(**bad))), 1, bad)
        self.assertEqual(len(judge(2, self.output())), 1)


class TailTest(unittest.TestCase):
    def test_tail_needs_ten_beyond(self):
        self.assertIsNone(run.tail(list(range(10))))
        value, pct = run.tail(list(range(40)))
        self.assertEqual(value, 29)
        self.assertEqual(pct, 75.0)


if __name__ == "__main__":
    unittest.main()
