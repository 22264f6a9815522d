"""hypext benchmark: one command, three workloads, a traced run per layer.

    python3 perfbench/run.py --workload {verify_all,thin_triangles,extend_field}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; hypext is imported from ./src.
Each workload builds its inputs from --seed, runs one untimed warm-up pass,
then closed-loop timed passes (each starts when the previous one ends) for
about --seconds, and checks the outputs.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, with the untraced and traced wall times side by side; spans go to
perfbench/out/.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One thread everywhere: set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 2
# Accuracy metrics are measured on one workload each; elsewhere they read
# this, which no distance can be, rather than 0, which would mean "exact".
NOT_MEASURED = -1.0


def timed_passes(wl, budget, reference, tracer=None):
    """Closed loop of passes for about budget seconds.

    With a tracer, untraced and traced passes alternate, so that both kinds
    see the same phases of a machine whose speed drifts; the tracer is
    installed around each traced pass only.  A pass is not started when the
    previous pass's duration would carry it past the budget, and at least
    MIN_PASSES of each kind run.  Returns the untraced and traced pass
    durations and how many passes gave outputs that differ from reference.
    """
    plain, traced = [], []
    differing = 0
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(traced) < len(plain)
        if tracing:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.run_pass()
            t1 = time.perf_counter()
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(t1 - t0)
        if not wl.same(out, reference):
            differing += 1
        del out
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and (t1 - start) + (t1 - t0) > budget:
            return plain, traced, differing


def layer_metrics(tracer, passes, accuracy):
    """Per-layer metrics, per traced pass (counts repeat exactly between runs)."""
    from spans import SAMPLER_OF_CHECK

    from hypext.verify import CHECK_IDS

    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / passes

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / passes

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / passes

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    rows = counts["coarse.thinness_batch.rows"] / passes
    m["coarse.thinness_batch.self_s"] = (self_s("coarse.thinness_batch"), "s", "lower")
    m["coarse.thinness_batch.rows"] = (rows, "count", "lower")
    m["coarse.thinness_batch.us_per_row"] = (
        per(incl("coarse.thinness_batch"), rows, 1e6), "us", "lower")
    m["coarse.thinness_batch.ideal_shortfall_max"] = (
        accuracy.get("ideal_shortfall_max", NOT_MEASURED), "dist", "lower")
    m["coarse.thinness.calls"] = (calls("coarse.thinness"), "count", "lower")
    m["coarse.quasicenter.self_s"] = (self_s("coarse.quasicenter"), "s", "lower")
    m["coarse.quasicenter.calls"] = (calls("coarse.quasicenter"), "count", "lower")
    m["coarse.quasicenter.minimize_calls"] = (
        counts["coarse.quasicenter.minimize_calls"] / passes, "count", "lower")
    m["coarse.quasicenter.nfev"] = (counts["coarse.quasicenter.nfev"] / passes,
                                    "count", "lower")
    m["coarse.comparison_report.self_s"] = (self_s("coarse.comparison_report"), "s", "lower")
    m["coarse.orthogonal_project.calls"] = (calls("coarse.orthogonal_project"),
                                            "count", "lower")

    field = "extension.extension_field"
    m[field + ".self_s"] = (self_s(field), "s", "lower")
    for dim in (2, 3):
        m[f"{field}.us_per_point_{dim}d"] = (
            per(counts[f"{field}.seconds_{dim}d"], counts[f"{field}.rows_{dim}d"], 1e6),
            "us", "lower")
    m["extension.extend.self_s"] = (self_s("extension.extend"), "s", "lower")
    m["extension.extend.calls"] = (calls("extension.extend"), "count", "lower")
    m["extension.projection_span.calls"] = (calls("extension.projection_span"),
                                            "count", "lower")
    m["extension.span3d_err_max"] = (
        accuracy.get("span3d_err_max", NOT_MEASURED), "dist", "lower")

    apply_calls = calls("maps.apply_raw")
    apply_rows = counts["maps.apply_raw.rows"] / passes
    m["maps.apply_raw.calls"] = (apply_calls, "count", "lower")
    m["maps.apply_raw.rows"] = (apply_rows, "count", "lower")
    m["maps.apply_raw.rows_per_call"] = (per(apply_rows, apply_calls), "rows/call", "higher")

    for fn in ("exp_map", "angle", "geodesic_between", "hyp_dist", "ray_limit"):
        m[f"model.{fn}.calls"] = (calls(f"model.{fn}"), "count", "lower")
        m[f"model.{fn}.self_s"] = (self_s(f"model.{fn}"), "s", "lower")

    for fn in ("sample_boundary", "sample_ball_hyperbolic"):
        name = f"sampling.{fn}"
        m[name + ".calls"] = (calls(name), "count", "lower")
        m[name + ".rows_per_call"] = (per(counts[name + ".rows"] / passes, calls(name)),
                                      "rows/call", "higher")

    m["visual.qs_cloud.self_s"] = (self_s("visual.qs_cloud"), "s", "lower")
    m["nets.greedy_net.self_s"] = (self_s("nets.greedy_net"), "s", "lower")

    for check_id in CHECK_IDS:
        m[f"verify.{check_id}.s"] = (incl(f"verify.{check_id}"), "s", "lower")
    for check_id in SAMPLER_OF_CHECK:
        m[f"verify.{check_id}.sampler_calls"] = (
            counts[f"verify.{check_id}.sampler_calls"] / passes, "count", "lower")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hypext", "__init__.py")):
        print(f"error: no hypext sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hypext

    if not os.path.abspath(hypext.__file__).startswith(src + os.sep):
        print(f"error: hypext imported from {hypext.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    setup_s = time.perf_counter() - T_START

    warm = wl.run_pass()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    plain, traced, differing = timed_passes(wl, args.seconds, warm, tracer)
    passes = 1 + len(plain) + len(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems, accuracy = wl.check(warm)
    if differing:
        problems.append(f"{differing} timed passes gave outputs that differ from the "
                        "warm-up pass")
    for line in problems:
        print("check failed: " + line, file=sys.stderr)

    wall = statistics.median(plain)
    if args.trace:
        wall_traced = statistics.median(traced)
        layer = layer_metrics(tracer, len(traced), accuracy)
        layer["trace.wall_s_untraced"] = (wall, "s", "lower")
        layer["trace.wall_s_traced"] = (wall_traced, "s", "lower")
        layer["trace.overhead_s"] = (wall_traced - wall, "s", "lower")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in layer.items()}
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload}: {passes} passes of {wl.ops} operations; timed passes (s): "
          + " ".join(f"{d:.3f}" for d in plain)
          + ("; traced passes (s): " + " ".join(f"{d:.3f}" for d in traced) if traced else ""),
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": passes * wl.ops,
                      "failed": passes * failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
