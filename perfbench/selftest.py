"""Self-test of the benchmark: tracing wrappers, count repeatability, gates.

    python3 perfbench/selftest.py

Run from the root of a source checkout.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import problems  # noqa: E402
import rtls.cli  # noqa: E402
from run import Loop, Probe  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics  # noqa: E402


def _originals():
    found = []
    for module_name, attr, _name in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        found.append(owner.__dict__[leaf])
    return found


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = tempfile.mkdtemp(dir=HERE.parent)
        rng = np.random.default_rng(7)
        small = problems.solve_small(rng)
        pool = small[:2] + small[-1:] + problems.certify(rng)[:1] + problems.dense_t(rng)[2:3]
        for i, inst in enumerate(pool):
            inst.write(f"{cls.workdir}/p{i}.json")
            if inst.T is None and inst.t_closed is None:
                inst.t_upper = problems.radial_upper_bound(inst)
        cls.pool = pool

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def traced_counts(self):
        tracer = Tracer()
        loop = Loop(self.pool, self.workdir, Probe(), tracer)
        with tracer:
            loop.one_pass()
        self.assertEqual(loop.failures, [])
        # every span hangs under the op's cli.main span
        roots = [span for span in tracer.spans if span[2] < 0]
        self.assertEqual([span[0] for span in roots], ["cli.main"] * loop.attempted)
        metrics = layer_metrics(tracer, loop.attempted)
        return {k: v for k, (v, unit) in metrics.items() if unit != "ms"}

    def test_wrappers_restored(self):
        before = _originals()
        self.traced_counts()
        self.assertTrue(all(a is b for a, b in zip(before, _originals())))

    def test_counts_repeat_exactly(self):
        first, second = self.traced_counts(), self.traced_counts()
        self.assertEqual(first, second)
        for name in ("trs.trs_equality_calls", "trs.brentq_calls", "model.eigh_calls",
                     "certificate.eigvalsh_calls", "solver.eval_g_calls"):
            self.assertGreater(first[name], 0, name)

    def test_untouched_reports_pass(self):
        loop = Loop(self.pool, self.workdir, Probe())
        loop.one_pass()
        self.assertEqual(loop.failures, [])
        self.assertEqual(loop.attempted, len(self.pool))

    def corrupted(self, edit):
        """Failures of one pass over the solve instances with each report edited."""
        real_main = rtls.cli.main

        def main(argv):
            code = real_main(argv)
            out = argv[argv.index("--out") + 1]
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            code = edit(report, code)
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            return code

        solves = [inst for inst in self.pool if inst.command == "solve"]
        loop = Loop(solves, self.workdir, Probe())
        rtls.cli.main = main
        try:
            loop.one_pass()
        finally:
            rtls.cli.main = real_main
        return loop, len(solves)

    def test_wrong_objective_fails(self):
        def edit(report, code):
            report["objective"] *= 1.0 + 1e-9
            return code

        loop, n = self.corrupted(edit)
        self.assertEqual(len(loop.failures), n)
        self.assertTrue(all("G(x)" in f for f in loop.failures))

    def test_wrong_exit_code_fails(self):
        loop, n = self.corrupted(lambda report, code: 2 - code)
        self.assertEqual(len(loop.failures), n)
        self.assertTrue(all("exit" in f for f in loop.failures))


if __name__ == "__main__":
    unittest.main()
