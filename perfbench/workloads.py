"""The benchmark's workloads: inputs made from a seed, one pass over them, and
checks of the pass's outputs.

Every tolerance below is derived from the error of the method that produced
the number (stated next to it), never from a copy of today's outputs.

A workload is built from (seed, out_dir) and exposes:
  ops        operations per pass (a check row, a triangle or a point);
  run_pass() the timed work, returning its outputs;
  same(a, b) whether two passes gave identical outputs;
  check(out) (failed operations, list of problems, accuracy figures).
"""

import json
import os
import tempfile

import numpy as np

import geom

HERE = os.path.dirname(os.path.abspath(__file__))

# Upper tolerance on thinness: float64 rounding of the conformal factor
# 1 - |x|^2 at hyperbolic radius 23 (hypext's deepest sampled radius), where
# the relative error is eps * e^23 / 4 = 5.4e-7.
TOL_THIN_HI = 1e-6


# The verify_all workload runs the registry at this scale of its default
# counts and with this seed, whatever --seed is (see README.md).  At 0.05 the
# time of a pass splits between the layers as it does at 0.2, quasicenter
# descents excepted.
VERIFY_SCALE = 0.05
VERIFY_SEED = 7


def verify_argv(config, report):
    """Write the verify config to config; the cli.main arguments that run
    the registry at VERIFY_SCALE and VERIFY_SEED and write report."""
    with open(config, "w") as fh:
        json.dump({"sampling": {"scale": VERIFY_SCALE}}, fh)
    return ["verify", "--config", config, "--seed", str(VERIFY_SEED), "--out", report]


class ThinTriangles:
    """coarse.thinness_batch on seeded triangles, one call per (lam, n) group."""

    GROUPS = ((1.0, 2), (1.0, 3), (2.0, 2), (2.0, 3))
    MIXED = 340          # per group, vertices ideal with probability 0.4
    ALL_IDEAL = 36       # per group
    BOUND_SUBSET = 24    # all-interior triangles per group given a lower bound
    # All-ideal triangles are congruent with thinness ln(1+sqrt 2)/lam.  The
    # sampled evaluator refines the best of 512 samples on a grid of 33 over
    # two sample steps; the gap along a side is unimodal with slope <= 1, so
    # it reads low by at most one refined half-step, window / (511 * 32),
    # and the window is at most 2 * 20 (the truncation radius on each side).
    TOL_IDEAL_LO = 2.5e-3
    # Coarse sample step of the evaluator: 512 samples over the side.
    PROGRAM_SAMPLES = 512
    REF_SAMPLES = 2049

    def __init__(self, seed, out_dir):
        from hypext import coarse
        from hypext.model import CurvatureScale

        self.coarse = coarse
        rng = np.random.default_rng(seed)
        self.groups = []
        for lam, n in self.GROUPS:
            mixed = _random_triangles(rng, self.MIXED, n, lam, 0.4)
            ideal = _random_triangles(rng, self.ALL_IDEAL, n, lam, 1.0)
            coords = np.concatenate([mixed[0], ideal[0]])
            flags = np.concatenate([mixed[1], ideal[1]])
            self.groups.append((lam, CurvatureScale(lam), coords, flags))
        self.ops = sum(g[2].shape[0] for g in self.groups)

    def run_pass(self):
        return [self.coarse.thinness_batch(coords, flags, k)
                for _, k, coords, flags in self.groups]

    def same(self, a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def check(self, out):
        problems = []
        shortfall = 0.0
        for (lam, _, coords, flags), vals in zip(self.groups, out):
            ceiling = geom.LN_1_SQRT2 / lam
            tag = f"lam={lam} n={coords.shape[2]}"
            if vals.shape != (coords.shape[0],) or not np.all(np.isfinite(vals)):
                problems.append(f"thin_triangles {tag}: missing or non-finite values")
                continue
            if np.any(vals < 0.0) or np.any(vals > ceiling + TOL_THIN_HI):
                problems.append(f"thin_triangles {tag}: value outside [0, ln(1+sqrt2)/lam]"
                                f" (max {vals.max():.6g})")
            ideal = flags.all(axis=1)
            short = ceiling - vals[ideal]
            shortfall = max(shortfall, float(short.max()))
            if np.any(short > self.TOL_IDEAL_LO):
                problems.append(f"thin_triangles {tag}: all-ideal triangle reads "
                                f"{short.max():.3g} below ln(1+sqrt2)/lam")
            interior = np.nonzero(~flags.any(axis=1))[0][:self.BOUND_SUBSET]
            bound = self._lower_bound(lam, coords[interior])
            if np.any(vals[interior] < bound - 1e-9):
                worst = float(np.max(bound - vals[interior]))
                problems.append(f"thin_triangles {tag}: value below the midpoint lower "
                                f"bound by {worst:.3g}")
        return 0, problems, {"ideal_shortfall_max": max(shortfall, 0.0)}

    def _lower_bound(self, lam, tri):
        """A lower bound on the value the evaluator may return.

        The gap at the midpoint M of a side, min over the other two sides of
        d(M, side), is at most the true thinness.  Each d(M, side) is the
        minimum over REF_SAMPLES points of the side, less half their spacing.
        The evaluator's coarse samples on M's side lie within half a step of
        M and the gap is 1-Lipschitz along the side, so it returns at least
        that gap less length / (2 * 511).
        """
        sides = ((0, 1), (1, 2), (2, 0))
        best = np.full(tri.shape[0], -np.inf)
        for i, j in sides:
            mid = geom.segment(lam, tri[:, i], tri[:, j], 3)[0][:, 1]
            gap = np.full(tri.shape[0], np.inf)
            for k, l in sides:
                if (k, l) == (i, j):
                    continue
                pts, spacing = geom.segment(lam, tri[:, k], tri[:, l], self.REF_SAMPLES)
                near = geom.dist(lam, mid[:, None, :], pts).min(axis=1) - 0.5 * spacing
                gap = np.minimum(gap, near)
            length = geom.dist(lam, tri[:, i], tri[:, j])
            best = np.maximum(best, gap - length / (2.0 * (self.PROGRAM_SAMPLES - 1)))
        return best


def _random_triangles(rng, count, n, lam, ideal_prob, radius=5.0):
    """Vertices ideal with probability ideal_prob, else uniform in the
    hyperbolic ball of the given radius.  Ideal pairs are kept 3e-3 apart
    (chordal) and other pairs 1e-6 apart, as the registry's triangles are."""
    flags = rng.uniform(size=(count, 3)) < ideal_prob

    def draw(rows):
        size = rows.size * 3
        bnd = geom.sphere(rng, size, n).reshape(rows.size, 3, n)
        inner = geom.ball(rng, size, n, lam, radius).reshape(rows.size, 3, n)
        return np.where(flags[rows][:, :, None], bnd, inner)

    coords = draw(np.arange(count))
    while True:
        bad = np.zeros(count, dtype=bool)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            sep = np.linalg.norm(coords[:, i] - coords[:, j], axis=1)
            both = flags[:, i] & flags[:, j]
            bad |= np.where(both, sep < 3e-3, sep < 1e-6)
        if not np.any(bad):
            return coords, flags
        coords[bad] = draw(np.nonzero(bad)[0])


class VerifyAll:
    """`hypext verify` through hypext.cli.main on all checks at one scale."""

    EXPECT = os.path.join(HERE, "verify_expect.json")

    def __init__(self, seed, out_dir):
        from hypext import cli

        self.cli = cli
        with open(self.EXPECT) as fh:
            self.expect = json.load(fh)
        if (self.expect["scale"], self.expect["seed"]) != (VERIFY_SCALE, VERIFY_SEED):
            raise ValueError(f"{self.EXPECT} was built at another scale or seed; "
                             "rebuild it with perfbench/expect.py")
        # removed when the process exits
        self._tmp = tempfile.TemporaryDirectory(prefix="verify-", dir=out_dir)
        self.config = os.path.join(self._tmp.name, "config.json")
        self.report = os.path.join(self._tmp.name, "report.json")
        self.argv = verify_argv(self.config, self.report)
        self.ops = len(self.expect["rows"])

    def run_pass(self):
        code = self.cli.main(self.argv)
        with open(self.report) as fh:
            return code, json.load(fh)

    @staticmethod
    def _key(out):
        code, report = out
        return code, [(r["id"], r["samples"], r["measured"], r["pass"])
                      for r in report["checks"]]

    def same(self, a, b):
        return self._key(a) == self._key(b)

    def check(self, out):
        code, report = out
        problems = []
        rows = report["checks"]
        failed = sum(1 for r in rows if not r["pass"])
        if code != 0 or not report["passed"] or failed:
            problems.append(f"verify_all: exit code {code}, failed {report['failed_ids']}")
        if (report["scale"], report["seed"]) != (VERIFY_SCALE, VERIFY_SEED):
            problems.append("verify_all: report has another scale or seed")
        if [r["id"] for r in rows] != [e["id"] for e in self.expect["rows"]]:
            problems.append("verify_all: check rows differ from the expectation file")
        else:
            for row, exp in zip(rows, self.expect["rows"]):
                got = {key: row[key] for key in ("samples", "threshold", "direction")}
                if got != {key: exp[key] for key in got}:
                    problems.append(f"verify_all: {row['id']} has {got}, expected {exp}")
        delta = [r["measured"] for r in rows if r["id"] == "delta_log3"]
        if not delta or not delta[0] <= geom.LN_1_SQRT2 + TOL_THIN_HI:
            problems.append(f"verify_all: delta_log3 measured {delta} above ln(1+sqrt2)")
        return failed, problems, {}


class ExtendField:
    """extension.extension_field for the five built-in boundary maps and each
    of them composed with a seeded Mobius map g, in dimensions 2 and 3."""

    POINTS_2D = 200      # seeded points per map
    # The 3-D points are a fixed panel that does not depend on the seed: two
    # known faults (see check()) spoil some 3-D rows, and on a fixed panel
    # they spoil the same rows in every run.  The panel is drawn from
    # PANEL_SEED, and holds one more point on which the foot parameter of
    # latitude_warp has two maxima 1.7e-4 apart.
    PANEL_3D = 8
    PANEL_SEED = 20071128
    TWO_MAXIMA_3D = (0.8310816517909676, 0.30416482467208117, -0.3117331679837296)
    DENSE = 8192         # equator samples of the 3-D reference
    RADIUS = 4.0
    TOL_IDENTITY = 1e-9  # identity map: F(x) = x up to rounding
    TOL_MOBIUS = 1e-5    # Mobius boundary map: F(x) = g(x), as the registry holds it
    TOL_EQUIV = 1e-8     # F for g o h against g(F for h)
    # Dimension 2: the equator has two points and the extreme foot is exact,
    # so only float64 rounding separates program and reference.
    TOL_EXACT_2D = 1e-8
    # Dimension 3: the program refines the best of 64 equator samples by a
    # golden-section search; the reference takes 8192 samples, which read
    # the extremes to about 1e-7.  Where the foot parameter has two
    # near-equal extremes the search can settle on the lower one: with the
    # _golden_extreme fault corrected, one of 300 seeded rows was off by
    # 4e-5.
    TOL_3D = 1e-4

    def __init__(self, seed, out_dir):
        from hypext import extension, maps, verify
        from hypext.model import IdealPoint, MobiusIsometry

        self.extension = extension
        rng = np.random.default_rng(seed)
        panel = np.concatenate([
            geom.ball(np.random.default_rng(self.PANEL_SEED), self.PANEL_3D, 3, 1.0,
                      self.RADIUS),
            np.array([self.TWO_MAXIMA_3D])])
        self.jobs = []
        self.refs = {}
        for n in (2, 3):
            p = np.zeros(n)
            p[0] = -1.0
            cfg = extension.ExtensionConfig(p=IdealPoint(p))
            g = geom.isometry(rng, n)
            g_map = maps.mobius_boundary(
                MobiusIsometry.translation(g[0]).then(MobiusIsometry.rotation(g[1])))
            pts = geom.ball(rng, self.POINTS_2D, n, 1.0, self.RADIUS) if n == 2 else panel
            builtin = verify._builtin_boundary_maps(n)
            first = len(self.jobs)
            for kind, h in zip(("identity", "mobius", "angle_warp", "latitude_warp",
                                "composite"), builtin):
                self.jobs.append(dict(n=n, kind=kind, h=h, cfg=cfg, points=pts, p=p,
                                      g=None))
            for i, h in enumerate(builtin):
                self.jobs.append(dict(n=n, kind="composed", h=maps.composite([h, g_map]),
                                      inner=h, cfg=cfg, points=pts, p=p, g=g,
                                      base=first + i))
        self.ops = sum(job["points"].shape[0] for job in self.jobs)

    def run_pass(self):
        field = self.extension.extension_field
        return [field(job["h"], job["cfg"], job["points"]) for job in self.jobs]

    def same(self, a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def _reference(self, job):
        """For every row: the span of the foot parameters of h(E_x) and their
        largest value, in the Busemann parameter of the target geodesic
        h(q_x) -> h(p), and that geodesic's ends."""
        from hypext.model import BallPoint, IdealPoint

        n, p = job["n"], job["p"]
        h = job.get("inner", job["h"])
        m = 2 if n == 2 else self.DENSE
        spans, tops, ends = [], [], []
        for x in job["points"]:
            key = (n, x.tobytes())
            if key not in self.refs:
                eq = self.extension.equator(BallPoint(x), IdealPoint(p), m)
                self.refs[key] = (np.array([e.direction for e in eq]), _far_end(x, p))
            eq, q = self.refs[key]
            u = h.apply_raw(eq)
            a = h.apply_raw(q[None, :])[0]
            b = h.apply_raw(p[None, :])[0]
            if job["g"] is not None:
                u, a, b = (geom.apply_isometry(job["g"], v) for v in (u, a, b))
            t = geom.busemann_param(1.0, u, a, b)
            spans.append(t.max() - t.min())
            tops.append(t.max())
            ends.append((a, b))
        return np.array(spans), np.array(tops), ends

    def row_errors(self, job, rows):
        """Per row: |span_length - reference span| and how far F's parameter
        sits from the largest reference foot."""
        n = job["n"]
        spans, tops, ends = self._reference(job)
        top_err = np.abs(np.array([geom.busemann_param(1.0, f, a, b)
                                   for f, (a, b) in zip(rows[:, n:2 * n], ends)]) - tops)
        return np.abs(rows[:, -1] - spans), top_err

    def check(self, out):
        problems = []
        failed = 0
        span_err_max = 0.0
        for job, rows in zip(self.jobs, out):
            n = job["n"]
            pts = job["points"]
            tag = f"extend_field {n}-D {job['kind']}"
            if rows.shape != (pts.shape[0], 2 * n + 2) or not np.all(np.isfinite(rows)):
                problems.append(f"{tag}: missing or non-finite rows")
                continue
            F = rows[:, n:2 * n]
            if job["kind"] == "identity":
                worst = geom.dist(1.0, F, pts).max()
                if worst > self.TOL_IDENTITY:
                    problems.append(f"{tag}: F(x) is {worst:.3g} from x")
            if job["kind"] == "mobius":
                shift = np.zeros(n)
                shift[0] = np.tanh(0.5)        # translation by length 1 along e1
                worst = geom.dist(1.0, F, geom.mobius_add(shift, pts)).max()
                if worst > self.TOL_MOBIUS:
                    problems.append(f"{tag}: F(x) is {worst:.3g} from g(x)")
            if job["g"] is not None:
                inner = out[job["base"]][:, n:2 * n]
                worst = geom.dist(1.0, F, geom.apply_isometry(job["g"], inner)).max()
                if worst > self.TOL_EQUIV:
                    problems.append(f"{tag}: F(g o h) is {worst:.3g} from g(F(h))")
            span_err, top_err = self.row_errors(job, rows)
            if n == 2:
                if top_err.max() > self.TOL_EXACT_2D:
                    problems.append(f"{tag}: F sits {top_err.max():.3g} from the largest "
                                    "equator foot")
                if span_err.max() > self.TOL_EXACT_2D:
                    problems.append(f"{tag}: span_length off by {span_err.max():.3g}")
            else:
                # Two faults spoil 3-D rows; a row off by more than TOL_3D
                # in its span or in F counts as one failed operation.
                # extension._golden_extreme returns -min for want_max=False,
                # so spans lose the refinement of t_min and flip its sign
                # where it is positive.  And the golden-section search for F
                # refines around the best of 64 samples, which can lie below
                # the lower of two near-equal maxima (TWO_MAXIMA_3D).
                failed += int(np.sum((span_err > self.TOL_3D) | (top_err > self.TOL_3D)))
                span_err_max = max(span_err_max, float(span_err.max()))
        return failed, problems, {"span3d_err_max": span_err_max}


def _far_end(x, p):
    """Second ideal endpoint of the geodesic through the ideal point p and x."""
    toward_p = geom.mobius_add(-x, p)
    away = -toward_p / np.linalg.norm(toward_p)
    q = geom.mobius_add(x, away)
    return q / np.linalg.norm(q)


# name -> class; each is built as cls(seed, out_dir)
WORKLOADS = {"verify_all": VerifyAll, "thin_triangles": ThinTriangles,
             "extend_field": ExtendField}
