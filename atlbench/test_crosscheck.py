#!/usr/bin/env python3
"""Cross-checks of the benchmark against the repository's committed results.

    python3 atlbench/test_crosscheck.py        (from the repository root)

- At the default seed (1), smp8 and uni1 reproduce the Fig 9 / Fig 8
  charts in results/ to two decimals (normalised E-misses and
  performance relative to FCFS, per app and policy), and footprint
  reproduces the per-kernel model error of results/bench_fig5_footprints.txt
  to the one decimal that file prints.
- A held-out seed runs clean on every workload, plain and traced.

Each case runs atlbench/run.py with --seconds 1 (one pass per run), so
the whole file takes a few minutes on a 4-CPU host.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, "results")
OUT = os.path.join(ROOT, ".bench_out")
HELD_OUT_SEED = 9


def run(workload, seed, trace=0):
    """Run one workload; return (result object, per-cell document)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    cells = None
    if not trace:
        with open(os.path.join(OUT, "%s-seed%d.json" % (workload, seed))) as f:
            cells = json.load(f)["cells"]
    return result, cells


def chart_rows(path):
    """The two app x {FCFS, LFF, CRT} tables of a Fig 8/9 capture, as
    {app: (lff, crt)} for normalised misses and relative performance."""
    tables, current = [], None
    with open(path) as f:
        for line in f:
            cols = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| app") and cols[1:] == ["FCFS", "LFF", "CRT"]:
                current = {}
                tables.append(current)
            elif current is not None and line.startswith("| ") and \
                    not line.startswith("|--"):
                current[cols[0]] = (cols[2], cols[3])
            elif not line.startswith("|"):
                current = None
    return tables[0], tables[1]


def fig5_errors(path):
    """{kernel: 'x.y%'} from the Fig 5 summary table."""
    errors = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"\| (\w+)\s+\| ([0-9.]+%)", line)
            if m:
                errors[m.group(1)] = m.group(2)
    return errors


def by_policy(cells):
    table = {}
    for c in cells:
        table.setdefault(c["app"], {})[c["policy"]] = c
    return table


class DefaultSeedMatchesCommittedCharts(unittest.TestCase):

    def check_matrix(self, workload, capture):
        result, cells = run(workload, 1)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        misses, perf = chart_rows(os.path.join(RESULTS, capture))
        for app, row in by_policy(cells).items():
            fcfs = row["FCFS"]
            got_misses = tuple("%.2f" % (row[p]["e_misses"] / fcfs["e_misses"])
                               for p in ("LFF", "CRT"))
            got_perf = tuple("%.2f" % (fcfs["makespan"] / row[p]["makespan"])
                             for p in ("LFF", "CRT"))
            self.assertEqual(got_misses, misses[app], app)
            self.assertEqual(got_perf, perf[app], app)

    def test_smp8_matches_fig9(self):
        self.check_matrix("smp8", "bench_fig9_smp.txt")

    def test_uni1_matches_fig8(self):
        self.check_matrix("uni1", "bench_fig8_uniprocessor.txt")

    def test_footprint_matches_fig5(self):
        result, cells = run("footprint", 1)
        self.assertTrue(result["correct"])
        expected = fig5_errors(os.path.join(RESULTS,
                                            "bench_fig5_footprints.txt"))
        for c in cells:
            self.assertEqual("%.1f%%" % (100 * c["mare"]), expected[c["app"]],
                             c["app"])
        mean = sum(c["mare"] for c in cells) / len(cells)
        self.assertTrue(math.isclose(result["metrics"]["ref_err_pp"]["value"],
                                     100 * mean))


class HeldOutSeedRunsClean(unittest.TestCase):

    def test_every_workload_plain_and_traced(self):
        for workload in ("smp8", "uni1", "footprint", "hint_faults"):
            for trace in (0, 1):
                result, _ = run(workload, HELD_OUT_SEED, trace)
                self.assertTrue(result["correct"], (workload, trace))
                self.assertEqual(result["failed"], 0, (workload, trace))


if __name__ == "__main__":
    unittest.main()
