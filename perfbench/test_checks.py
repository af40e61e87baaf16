#!/usr/bin/env python3
"""Tests of the benchmark's result checker.

Each test runs the benchmark command on tiny inputs. The fault tests make
perfbench_e2e corrupt what the first run_all_pairs call delivered (a dropped
pair, a duplicated pair, a perturbed score, a journal without one batch)
and assert that the checker rejects the run. Run from the repository root:

    python3 -m unittest perfbench/test_checks.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("forensics-4node", "microscopy-4node", "phylogeny-journal",
             "forensics-kill")


def run_bench(workload, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.5", "--trace", "0",
         "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"benchmark exited {done.returncode}:\n"
                             f"{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class CleanRuns(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_bench(workload)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)


class InjectedFaults(unittest.TestCase):
    def assert_rejected(self, fault, expect_failed_pairs):
        result = run_bench("phylogeny-journal", "--inject", fault)
        self.assertFalse(result["correct"])
        if expect_failed_pairs:
            self.assertGreaterEqual(result["failed"], 1)
        else:
            self.assertEqual(result["failed"], 0)

    def test_dropped_pair_is_rejected(self):
        self.assert_rejected("drop", expect_failed_pairs=True)

    def test_duplicated_pair_is_rejected(self):
        self.assert_rejected("dup", expect_failed_pairs=True)

    def test_perturbed_score_is_rejected(self):
        self.assert_rejected("perturb", expect_failed_pairs=True)

    def test_journal_missing_a_batch_is_rejected(self):
        self.assert_rejected("journal", expect_failed_pairs=False)


if __name__ == "__main__":
    unittest.main()
