#!/usr/bin/env python3
"""Benchmark self-tests.  Run from the repository root:

    python3 perfbench/test_perfbench.py

* The paper reference values in run.py equal the "Paper:" lines of the
  golden figure tables, so no later change can move the fidelity target.
* The per-layer replay drivers issue the traffic the RunReport counts, on
  one 1-core flat point and one 16-tile mesh point (hm_perfbench traffic
  prints both counts per layer and states its tolerances).
* The replica sweep that runs seeds other than the paper's yields the same
  point bytes as run_sweep at the paper seed.
"""

import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def paper_line(fig):
    path = os.path.join(run.ROOT, "tests", "golden", "%s.txt" % fig)
    with open(path) as f:
        text = f.read()
    start = text.index("Paper:")
    return " ".join(text[start:].split())


class PaperReferences(unittest.TestCase):
    def test_fig7_wr_at_100_percent(self):
        m = re.search(r"~([0-9.]+) at 100%", paper_line("fig7"))
        self.assertEqual(float(m.group(1)), run.PAPER["fig7_wr100"])

    def test_fig8_time_and_energy(self):
        m = re.search(r"avg ([0-9.]+) \([0-9.]+%\) execution time, ([0-9.]+) \([0-9.]+%\) energy",
                      paper_line("fig8"))
        self.assertEqual(float(m.group(1)), run.PAPER["fig8_time"])
        self.assertEqual(float(m.group(2)), run.PAPER["fig8_energy"])

    def test_fig9_average_speedup(self):
        m = re.search(r"avg ([0-9.]+)x", paper_line("fig9"))
        self.assertEqual(float(m.group(1)), run.PAPER["fig9_speedup"])

    def test_fig10_average_saving(self):
        m = re.search(r"average ([0-9.]+)%", paper_line("fig10"))
        self.assertEqual(float(m.group(1)), run.PAPER["fig10_saving_pct"])


class ReplayTraffic(unittest.TestCase):
    def test_replay_calls_match_report_counts(self):
        run.build()
        r = subprocess.run([run.BINARY, "traffic"], capture_output=True, text=True,
                           timeout=300)
        print(r.stdout)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("traffic check: ok", r.stdout)


class ReplicaSweep(unittest.TestCase):
    def test_replica_bytes_equal_run_sweep_at_paper_seed(self):
        run.build()
        digests = {}
        for extra in ([], ["--replica"]):
            rd = run.RunDir()
            try:
                out, _ = run.run_binary(
                    ["sweep", "--workload", "paper_flat", "--seed", "42",
                     "--jobs", str(os.cpu_count() or 1), "--cache-dir", rd.fresh("cache"),
                     "--journal-dir", rd.fresh("journal")] + extra)
            finally:
                rd.remove()
            self.assertEqual(out["failed"], 0)
            digests[out["path"]] = out["digest"]
        self.assertEqual(set(digests), {"run_sweep", "replica"})
        self.assertEqual(digests["run_sweep"], digests["replica"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
