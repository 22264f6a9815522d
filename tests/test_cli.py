"""CLI tests: subcommand behavior, exit codes, output formats, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hypext.cli import main


def run_cli(args):
    return main(list(args))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestColor:
    def test_path_graph(self, tmp_path, capsys):
        graph = tmp_path / "p5.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n")
        assert run_cli(["color", str(graph)]) == 0
        colors = json.loads(capsys.readouterr().out)
        assert colors == [1, 2, 1, 2, 1]

    def test_output_file(self, tmp_path):
        graph = tmp_path / "k3.txt"
        graph.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "colors.json"
        assert run_cli(["color", str(graph), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == [1, 2, 3]

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli(["color", str(tmp_path / "none.txt")]) == 2


class TestNet:
    def test_oversized_separation_single_point(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": {"n": 2, "lambda": 1.0},
            "net": {"radius": 2.0, "separation": 50.0, "sample_count": 256},
        })
        assert run_cli(["net", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 1

    def test_deterministic_output(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": {"n": 2, "lambda": 1.0},
            "net": {"radius": 3.0, "separation": 0.8, "sample_count": 512},
            "sampling": {"seed": 5},
        })
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["net", "--config", cfg, "--out", str(out1)]) == 0
        assert run_cli(["net", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExtend:
    def test_identity_grid_fixes_points(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": {"n": 2, "lambda": 1.0},
            "boundary_map": {"family": "identity"},
            "grid": {"per_axis": 5, "extent": 0.8},
        })
        out = tmp_path / "field.csv"
        assert run_cli(["extend", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,F1,F2,t_x,span_length"
        for line in lines[1:]:
            x1, x2, f1, f2, _, span = map(float, line.split(","))
            assert abs(x1 - f1) < 1e-9 and abs(x2 - f2) < 1e-9
            assert abs(span) < 1e-9

    def test_mobius_grid_matches_isometry(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": {"n": 2, "lambda": 1.0},
            "boundary_map": {"family": "mobius_boundary", "translate": [0.46, 0.0]},
            "grid": {"per_axis": 4, "extent": 0.6},
        })
        out = tmp_path / "field.csv"
        assert run_cli(["extend", "--config", cfg, "--out", str(out)]) == 0
        from hypext.model import BallPoint, K1, MobiusIsometry, hyp_dist

        iso = MobiusIsometry.translation([0.46, 0.0])
        for line in out.read_text().splitlines()[1:]:
            vals = list(map(float, line.split(",")))
            expected = iso.apply_interior_raw(np.array(vals[:2]))
            assert hyp_dist(K1, BallPoint(vals[2:4]), BallPoint(expected)) < 1e-5

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": {"n": 2, "lambda": 1.0},
            "boundary_map": {"family": "angle_warp", "a": 0.2, "k": 1},
            "grid": {"per_axis": 5, "extent": 0.8},
            "sampling": {"seed": 11},
        })
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["extend", "--config", cfg, "--seed", "11", "--out", str(out1)]) == 0
        assert run_cli(["extend", "--config", cfg, "--seed", "11", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_boundary_map_is_usage_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"n": 2, "lambda": 1.0}})
        assert run_cli(["extend", "--config", cfg]) == 2


class TestProbe:
    def test_identity_moduli(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": {"n": 2, "lambda": 1.0},
            "boundary_map": {"family": "identity"},
            "probe": {"radius": 3.0, "eps_grid": [0.01, 0.1], "n_base": 5, "n_dirs": 4},
        })
        out = tmp_path / "probe.csv"
        assert run_cli(["probe", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps,omega,delta"
        for line in lines[1:]:
            eps, omega, delta = map(float, line.split(","))
            assert omega == pytest.approx(eps, abs=1e-9)
            assert delta == pytest.approx(eps, abs=1e-9)


class TestVerify:
    def test_invalid_curvature_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"n": 2, "lambda": 0.5}})
        assert run_cli(["verify", "--config", cfg]) == 2

    def test_low_power_report(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "sampling": {"scale": 0.002, "seed": 3,
                         "checks": ["trig_identity", "lambda_scaling",
                                    "lemma_6_1_coloring", "separated_net"]},
        })
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["low_power"] is True
        assert report["passed"] is True
        assert {row["id"] for row in report["checks"]} == {
            "trig_identity", "lambda_scaling", "lemma_6_1_coloring", "separated_net"}
        for row in report["checks"]:
            assert {"id", "anchor", "samples", "measured", "threshold",
                    "pass", "seconds"} <= set(row)

    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "sampling": {"scale": 0.01, "checks": ["no_such_check"]},
        })
        assert run_cli(["verify", "--config", cfg]) == 2

    def test_entry_point_usage_error(self):
        assert run_cli(["verify", "--config", "/nonexistent/config.json"]) == 2


class TestParser:
    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli(["frobnицate"]) == 2

    def test_module_entry_point(self, tmp_path):
        graph = tmp_path / "p3.txt"
        graph.write_text("0 1\n1 2\n")
        proc = subprocess.run([sys.executable, "-m", "hypext.cli", str(graph)],
                              capture_output=True, text=True)
        # bare invocation without a subcommand is a usage error
        assert proc.returncode == 2
