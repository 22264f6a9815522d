"""Command-line front end.

Subcommands: verify (run the check registry), extend (extension field over a
grid, CSV), probe (continuity moduli, CSV), color (first-fit graph coloring,
JSON), net (greedy separated net, JSON).  Configuration comes from a JSON
document plus a few overriding flags; identical configuration and seed give
byte-identical output.  Exit codes: 0 success, 1 check failure, 2 usage or
configuration error.
"""

import argparse
import json
import sys

import numpy as np

from .errors import GeometryError
from .extension import ExtensionConfig, continuity_modulus, extension_field
from .maps import (
    BoundaryMap,
    angle_warp,
    composite,
    identity_map,
    latitude_warp,
    mobius_boundary,
)
from .model import CurvatureScale, IdealPoint, MobiusIsometry
from .nets import greedy_net, greedy_color, read_edge_list, write_coloring
from .verify import VerifyConfig, report_dict, run_checks

USAGE_ERROR = 2
CHECK_FAILURE = 1


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    return f"{value:.12g}"


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _model_params(cfg_doc):
    model = cfg_doc.get("model", {})
    n = int(model.get("n", 2))
    lam = float(model.get("lambda", 1.0))
    if n not in (2, 3):
        raise ConfigError("model.n must be 2 or 3")
    if lam < 1.0:
        raise ConfigError("model.lambda must be >= 1")
    return n, CurvatureScale(lam)


def _boundary_map(doc, n) -> BoundaryMap:
    if doc is None:
        raise ConfigError("a boundary_map section is required")
    family = doc.get("family")
    if family == "identity":
        return identity_map(n)
    if family == "angle_warp":
        return angle_warp(float(doc["a"]), int(doc["k"]), n)
    if family == "latitude_warp":
        return latitude_warp(float(doc["a"]), int(doc["k"]), n)
    if family == "mobius_boundary":
        return mobius_boundary(_isometry(doc, n))
    if family == "composite":
        return composite([_boundary_map(part, n) for part in doc["parts"]])
    raise ConfigError(f"unknown boundary map family {family!r}")


def _isometry(doc, n) -> MobiusIsometry:
    iso = MobiusIsometry.identity(n)
    translate = doc.get("translate")
    if translate is not None:
        vec = np.asarray(translate, dtype=float)
        if vec.shape != (n,) or np.linalg.norm(vec) >= 1.0:
            raise ConfigError("translate must be an interior vector of length n")
        iso = iso.then(MobiusIsometry.translation(vec))
    degrees = doc.get("rotate_degrees")
    if degrees is not None:
        theta = np.radians(float(degrees))
        if n == 2:
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
        else:
            axis = np.asarray(doc.get("rotate_axis", [0.0, 0.0, 1.0]), dtype=float)
            axis = axis / np.linalg.norm(axis)
            u = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
            u = u - (u @ axis) * axis
            u /= np.linalg.norm(u)
            v = np.cross(axis, u)
            rot = (np.outer(axis, axis)
                   + np.cos(theta) * (np.outer(u, u) + np.outer(v, v))
                   + np.sin(theta) * (np.outer(v, u) - np.outer(u, v)))
        iso = iso.then(MobiusIsometry.rotation(rot))
    return iso


def _extension_config(cfg_doc, n, k) -> ExtensionConfig:
    ext = cfg_doc.get("extension", {})
    p = ext.get("p")
    if p is None:
        p = [-1.0] + [0.0] * (n - 1)
    p = np.asarray(p, dtype=float)
    if p.shape != (n,):
        raise ConfigError("extension.p must have length n")
    return ExtensionConfig(p=IdealPoint.from_direction(p),
                           m=int(ext.get("m", 64)),
                           refine_iters=int(ext.get("refine_iters", 32)),
                           k=k)


def _out_stream(args):
    if args.out is None:
        return sys.stdout, lambda: None
    fh = open(args.out, "w", newline="")
    return fh, fh.close


def cmd_verify(args) -> int:
    doc = _load_config(args.config)
    sampling = doc.get("sampling", {})
    seed = args.seed if args.seed is not None else int(sampling.get("seed", 7))
    scale = float(sampling.get("scale", 1.0))
    if "model" in doc:
        _model_params(doc)  # validates n, lambda
    vcfg = VerifyConfig(seed=seed, scale=scale)
    only = sampling.get("checks")
    try:
        results = run_checks(vcfg, only=only)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    report = report_dict(results, vcfg)
    out, close = _out_stream(args)
    try:
        json.dump(report, out, indent=2, sort_keys=True, default=float)
        out.write("\n")
    finally:
        close()
    if not report["passed"]:
        print("failed checks: " + ", ".join(report["failed_ids"]), file=sys.stderr)
        return CHECK_FAILURE
    return 0


def cmd_extend(args) -> int:
    doc = _load_config(args.config)
    n, k = _model_params(doc)
    if "boundary_map" not in doc:
        raise ConfigError("extend needs a boundary_map section")
    h = _boundary_map(doc["boundary_map"], n)
    ext = _extension_config(doc, n, k)
    grid_doc = doc.get("grid", {})
    per_axis = int(grid_doc.get("per_axis", 5))
    extent = float(grid_doc.get("extent", 0.8))
    axes = [np.linspace(-extent, extent, per_axis)] * n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    mesh = mesh[np.linalg.norm(mesh, axis=1) < 0.98]
    rows = extension_field(h, ext, mesh)
    out, close = _out_stream(args)
    try:
        header = ([f"x{i+1}" for i in range(n)] + [f"F{i+1}" for i in range(n)]
                  + ["t_x", "span_length"])
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        close()
    return 0


def cmd_probe(args) -> int:
    doc = _load_config(args.config)
    n, k = _model_params(doc)
    if "boundary_map" not in doc:
        raise ConfigError("probe needs a boundary_map section")
    h = _boundary_map(doc["boundary_map"], n)
    ext = _extension_config(doc, n, k)
    probe = doc.get("probe", {})
    sampling = doc.get("sampling", {})
    seed = args.seed if args.seed is not None else int(sampling.get("seed", 7))
    radius = float(probe.get("radius", 5.0))
    if radius > 10.0:
        raise ConfigError("probe.radius is desk scale: at most 10")
    grid = probe.get("eps_grid", [1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1])
    rows = continuity_modulus(h, ext, radius, grid,
                              n_base=int(probe.get("n_base", 24)),
                              n_dirs=int(probe.get("n_dirs", 8)), seed=seed)
    out, close = _out_stream(args)
    try:
        out.write("eps,omega,delta\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        close()
    return 0


def cmd_color(args) -> int:
    try:
        graph = read_edge_list(args.graph)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read edge list {args.graph}: {exc}") from exc
    coloring = greedy_color(graph)
    if args.out is not None:
        write_coloring(coloring, args.out)
    else:
        json.dump(coloring.colors, sys.stdout)
        sys.stdout.write("\n")
    return 0


def cmd_net(args) -> int:
    doc = _load_config(args.config)
    n, k = _model_params(doc)
    net_doc = doc.get("net", {})
    sampling = doc.get("sampling", {})
    seed = args.seed if args.seed is not None else int(sampling.get("seed", 7))
    net = greedy_net(float(net_doc.get("radius", 3.0)),
                     float(net_doc.get("separation", 0.5)),
                     n=n, k=k, seed=seed,
                     sample_count=int(net_doc.get("sample_count", 4096)))
    payload = {
        "region": net.region,
        "separation": float(net.separation),
        "covering_radius": float(net.covering_radius),
        "points": [[float(f"{v:.12g}") for v in row] for row in net.points],
    }
    out, close = _out_stream(args)
    try:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    finally:
        close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypext",
        description="Poincare ball geometry toolbox: verification suite, "
                    "boundary-driven extension fields, continuity probes, "
                    "graph coloring, separated nets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the property-check registry")
    p_extend = sub.add_parser("extend", help="extension field over a grid (CSV)")
    p_probe = sub.add_parser("probe", help="continuity moduli on an eps grid (CSV)")
    p_color = sub.add_parser("color", help="first-fit coloring of an edge-list graph")
    p_net = sub.add_parser("net", help="greedy separated net of a ball (JSON)")

    for p in (p_verify, p_extend, p_probe, p_net):
        p.add_argument("--config", help="JSON configuration document")
        p.add_argument("--seed", type=int, default=None, help="override sampling seed")
        p.add_argument("--out", help="output path (default: stdout)")
    p_color.add_argument("graph", help="edge-list text file, one 'u v' pair per line")
    p_color.add_argument("--out", help="output path for the JSON coloring")

    p_verify.set_defaults(fn=cmd_verify)
    p_extend.set_defaults(fn=cmd_extend)
    p_probe.set_defaults(fn=cmd_probe)
    p_color.set_defaults(fn=cmd_color)
    p_net.set_defaults(fn=cmd_net)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
