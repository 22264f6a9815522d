"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Checks the reference geometry against closed forms, the tracer's span
arithmetic and its clean removal, that each workload's checks accept the
program's outputs and reject broken ones, and that BENCHMARK.json names
exactly the metrics run.py prints.  Kept outside tests/ so that the
project's own test suite does not collect it.
"""

import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import geom  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TinyThin(workloads.ThinTriangles):
    MIXED = 40
    ALL_IDEAL = 4
    BOUND_SUBSET = 4


class TinyExtend(workloads.ExtendField):
    POINTS_2D = 6
    PANEL_3D = 2
    DENSE = 2048


class Geometry(unittest.TestCase):
    def test_distance_and_translation(self):
        x = np.array([np.tanh(0.5), 0.0])
        self.assertAlmostEqual(float(geom.dist(1.0, np.zeros(2), x)), 1.0, places=14)
        self.assertAlmostEqual(float(geom.dist(2.0, np.zeros(2), x)), 0.5, places=14)
        rng = np.random.default_rng(0)
        a, y = geom.ball(rng, 2, 3, 1.0, 3.0)
        back = geom.mobius_add(-a, geom.mobius_add(a, y))
        self.assertLess(float(np.linalg.norm(back - y)), 1e-12)
        g = geom.isometry(rng, 3)
        p, q = geom.ball(rng, 2, 3, 1.0, 3.0)
        self.assertAlmostEqual(float(geom.dist(1.0, p, q)),
                               float(geom.dist(1.0, geom.apply_isometry(g, p),
                                               geom.apply_isometry(g, q))), places=10)

    def test_segment_spacing_and_busemann(self):
        a = np.array([[-0.5, 0.0]])
        b = np.array([[0.5, 0.0]])
        pts, spacing = geom.segment(1.0, a, b, 5)
        self.assertAlmostEqual(float(spacing[0]), 2.0 * np.log(3.0) / 4.0, places=12)
        steps = geom.dist(1.0, pts[0, :-1], pts[0, 1:])
        self.assertLess(float(np.ptp(steps)), 1e-12)
        # on the diameter from -e1 to e1 the parameter is arc length
        t = geom.busemann_param(1.0, pts[0], np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        self.assertLess(float(np.max(np.abs(np.diff(t) - spacing[0]))), 1e-12)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = spans.Tracer()
        inner = tracer.wrap(lambda: time.sleep(0.02), "inner")
        outer = tracer.wrap(lambda: (inner(), inner(), time.sleep(0.01)), "outer")
        outer()
        totals = tracer.totals()
        self.assertEqual(totals["inner"][0], 2)
        calls, incl, excl = totals["outer"]
        self.assertEqual(calls, 1)
        self.assertAlmostEqual(excl, incl - totals["inner"][1], places=9)
        self.assertGreater(excl, 0.009)

    def test_install_patches_importers_and_uninstall_restores(self):
        from hypext import coarse, model, verify

        originals = (model.hyp_dist, verify.hyp_dist, coarse.hyp_dist,
                     verify.ALL_CHECKS, coarse.optimize)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(model.hyp_dist, originals[0])
            self.assertIs(verify.hyp_dist, model.hyp_dist)
            self.assertIs(coarse.hyp_dist, model.hyp_dist)
            wl = TinyThin(0, None)
            wl.run_pass()
        finally:
            tracer.uninstall()
        self.assertEqual((model.hyp_dist, verify.hyp_dist, coarse.hyp_dist,
                          verify.ALL_CHECKS, coarse.optimize), originals)
        self.assertEqual(tracer.counts["coarse.thinness_batch.rows"], wl.ops)
        self.assertEqual(tracer.totals()["coarse.thinness_batch"][0], len(wl.GROUPS))


class Workloads(unittest.TestCase):
    def test_thin_triangles_checks(self):
        wl = TinyThin(3, None)
        out = wl.run_pass()
        self.assertTrue(wl.same(out, wl.run_pass()))
        failed, problems, acc = wl.check(out)
        self.assertEqual((failed, problems), (0, []))
        self.assertLess(acc["ideal_shortfall_max"], wl.TOL_IDEAL_LO)
        for broken in ([v * 0.5 for v in out], [v + 1e-3 for v in out]):
            self.assertTrue(wl.check(broken)[1])

    def test_extend_field_checks(self):
        wl = TinyExtend(3, None)
        out = wl.run_pass()
        failed, problems, acc = wl.check(out)
        self.assertEqual(problems, [])
        # latitude_warp and its composite with g miss the higher of two
        # maxima at TWO_MAXIMA_3D, so at least those two rows fail
        self.assertGreaterEqual(failed, 2)
        self.assertLessEqual(failed, (wl.PANEL_3D + 1) * 10)
        for job, rows in zip(wl.jobs, out):
            if job["n"] == 2 and job["kind"] == "composed":
                rows[:, 2:4] = geom.mobius_add(np.array([1e-6, 0.0]), rows[:, 2:4])
                break
        self.assertTrue(wl.check(out)[1])

    def test_verify_rows_checked_against_expectation(self):
        wl = workloads.VerifyAll.__new__(workloads.VerifyAll)
        with open(workloads.VerifyAll.EXPECT) as fh:
            wl.expect = json.load(fh)
        rows = [dict(r, measured=0.5, **{"pass": True}) for r in wl.expect["rows"]]
        report = {"passed": True, "failed_ids": [], "scale": wl.expect["scale"],
                  "seed": wl.expect["seed"], "checks": rows}
        self.assertEqual(wl.check((0, report)), (0, [], {}))
        rows[7] = dict(rows[7], samples=rows[7]["samples"] // 2)
        self.assertTrue(wl.check((0, report))[1])


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))
        layer = run.layer_metrics(spans.Tracer(), 1, {})
        for name in ("trace.wall_s_untraced", "trace.wall_s_traced", "trace.overhead_s"):
            layer[name] = (0.0, "s", "lower")
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]},
                         {k: (u, b) for k, (_, u, b) in layer.items()})
        self.assertEqual([m["name"] for m in doc["end_to_end"]],
                         ["wall_s", "setup_s", "peak_rss_mb"])


if __name__ == "__main__":
    unittest.main()
