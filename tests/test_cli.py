import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxsurf.cli import run_argv
from maxsurf.graphfield import ScalarField, load_field, save_field, shift_agreement
from maxsurf.weierstrass import IsotropicCurve, WeierstrassData

from oracles import (
    disk_triangle_count,
    disk_vertex_count,
    helicoid_dual_height,
    helicoid_height,
)


def run_json(capsys, *argv):
    code = run_argv(list(argv))
    captured = capsys.readouterr()
    return code, captured


class TestGenerate:
    def test_obj_counts_and_report(self, tmp_path, capsys):
        code, cap = run_json(
            capsys, "generate", "--datum", "plane-r05", "--mesh-n", "8", "--out", str(tmp_path)
        )
        assert code == 0
        report = json.loads(cap.out)
        assert report["vertices"] == disk_vertex_count(8)
        assert report["triangles"] == disk_triangle_count(8)
        assert report["projection_report"]["injective"] is True
        obj = (tmp_path / "surface.obj").read_text().splitlines()
        assert sum(1 for line in obj if line.startswith("v ")) == disk_vertex_count(8)
        assert sum(1 for line in obj if line.startswith("f ")) == disk_triangle_count(8)
        # 1-based indices within range
        idx = [int(t) for line in obj if line.startswith("f ") for t in line.split()[1:]]
        assert min(idx) == 1 and max(idx) == disk_vertex_count(8)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        code1, cap1 = run_json(
            capsys, "generate", "--datum", "shift3-r05", "--mesh-n", "6", "--out", str(a)
        )
        code2, cap2 = run_json(
            capsys, "generate", "--datum", "shift3-r05", "--mesh-n", "6", "--out", str(b)
        )
        assert code1 == code2 == 0
        assert (a / "surface.obj").read_bytes() == (b / "surface.obj").read_bytes()
        assert cap1.out.replace(str(a), "") == cap2.out.replace(str(b), "")

    def test_conjugate_written(self, tmp_path, capsys):
        code, cap = run_json(
            capsys, "conjugate", "--datum", "plane-r05", "--mesh-n", "4", "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "conjugate.obj").exists()

    def test_inline_datum_config(self, tmp_path, capsys):
        from maxsurf.catalog import get

        cfgp = tmp_path / "datum.json"
        cfgp.write_text(json.dumps(get("shift4-r05").to_obj()))
        code, cap = run_json(
            capsys, "generate", "--config", str(cfgp), "--mesh-n", "3", "--out", str(tmp_path)
        )
        assert code == 0
        assert json.loads(cap.out)["vertices"] == disk_vertex_count(3)


class TestDualizeCurve:
    def test_round_trip_through_json(self, tmp_path, capsys):
        code, cap = run_json(
            capsys, "dualize-curve", "--datum", "rational-r05", "--out", str(tmp_path)
        )
        assert code == 0
        report = json.loads(cap.out)
        assert report["input_ambient"] == "lorentzian"
        assert report["output_ambient"] == "euclidean"
        assert report["commutation_residual"] == 0.0
        assert report["isotropy_residual"] < 1e-10
        dual = IsotropicCurve.from_obj(json.loads((tmp_path / "dual_curve.json").read_text()))
        assert dual.isotropy_residual() < 1e-10

    def test_euclidean_input_comes_back_lorentzian(self, tmp_path, capsys):
        code, _ = run_json(capsys, "dualize-curve", "--datum", "plane-r05", "--out", str(tmp_path))
        assert code == 0
        first = json.loads((tmp_path / "dual_curve.json").read_text())
        cfgp = tmp_path / "in.json"
        cfgp.write_text(json.dumps(first))
        out2 = tmp_path / "again"
        code, cap = run_json(capsys, "dualize-curve", "--config", str(cfgp), "--out", str(out2))
        assert code == 0
        assert json.loads(cap.out)["output_ambient"] == "lorentzian"


class TestDualizeGraph:
    def make_field(self, tmp_path, h=0.02):
        f = ScalarField.sample(
            helicoid_height,
            lambda x, y: True,
            (1.1, -0.6),
            h,
            int(round(0.8 / h)) + 1,
            int(round(1.2 / h)) + 1,
        )
        save_field(f, tmp_path / "f.csv", tmp_path / "f.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "csv": str(tmp_path / "f.csv"),
                    "header": str(tmp_path / "f.json"),
                    "direction": "minimal-to-maximal",
                    "curl_tol": 1e-2,
                }
            )
        )
        return f, cfg

    def test_dual_field_matches_oracle(self, tmp_path, capsys):
        f, cfg = self.make_field(tmp_path)
        code, cap = run_json(capsys, "dualize-graph", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        dual = load_field(tmp_path / "dual_field.csv", tmp_path / "dual_field.header.json")
        X, Y = np.meshgrid(dual.xs(), dual.ys(), indexing="ij")
        exact = ScalarField(dual.origin, dual.spacing, helicoid_dual_height(X, Y), dual.mask)
        assert shift_agreement(dual, exact) < 1e-5

    def test_missing_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"csv": "x"}))
        code, cap = run_json(capsys, "dualize-graph", "--config", str(cfg))
        assert code == 1
        assert "dualize-graph needs" in cap.err

    @pytest.mark.parametrize("curl_tol", ["nan", "abc", 0, -1])
    def test_meaningless_curl_tol_rejected(self, tmp_path, capsys, curl_tol):
        _, cfg = self.make_field(tmp_path)
        obj = json.loads(cfg.read_text())
        obj["curl_tol"] = curl_tol
        cfg.write_text(json.dumps(obj))
        code, cap = run_json(capsys, "dualize-graph", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "curl_tol" in cap.err
        assert not (tmp_path / "dual_field.csv").exists()

    def test_bad_direction_rejected(self, tmp_path, capsys):
        _, cfg = self.make_field(tmp_path)
        obj = json.loads(cfg.read_text())
        obj["direction"] = "sideways"
        cfg.write_text(json.dumps(obj))
        code, cap = run_json(capsys, "dualize-graph", "--config", str(cfg))
        assert code == 1
        assert "unknown direction" in cap.err


class TestVerifyKrust:
    def test_single_datum_pass(self, tmp_path, capsys):
        code, cap = run_json(
            capsys,
            "verify-krust",
            "--datum",
            "plane-r05",
            "--mesh-n",
            "16",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(cap.out)
        assert report["verdicts"] == {"plane-r05": "PASS"}
        saved = json.loads((tmp_path / "krust_report.json").read_text())
        assert saved["verdicts"] == report["verdicts"]

    def test_full_catalog_all_pass(self, capsys):
        code, cap = run_json(capsys, "verify-krust", "--mesh-n", "16")
        assert code == 0
        verdicts = json.loads(cap.out)["verdicts"]
        assert len(verdicts) == 10
        assert set(verdicts.values()) == {"PASS"}

    def test_fail_verdict_exits_two(self, capsys, monkeypatch):
        import maxsurf.cli as cli

        class Stub:
            verdict = "FAIL"

            def to_obj(self):
                return {"verdict": "FAIL"}

        monkeypatch.setattr(cli, "krust_pipeline", lambda im, n: Stub())
        code, cap = run_json(capsys, "verify-krust", "--datum", "plane-r05")
        assert code == 2


class TestIdentities:
    def test_single_datum_ok(self, capsys):
        code, cap = run_json(capsys, "identities", "--datum", "shift3-r05", "--seed", "3")
        assert code == 0
        report = json.loads(cap.out)
        assert report["ok"] is True
        worst = report["worst"]
        assert worst["isotropy"] < 1e-10
        assert worst["projection"] < 1e-8
        assert worst["rotation"] < 1e-8
        assert worst["commutation"] <= 1e-15
        assert worst["involution"] < 2e-10

    def test_seeded_reruns_identical(self, capsys):
        code1, cap1 = run_json(capsys, "identities", "--datum", "plane-r05", "--seed", "11")
        code2, cap2 = run_json(capsys, "identities", "--datum", "plane-r05", "--seed", "11")
        assert code1 == code2 == 0
        assert cap1.out == cap2.out


class TestExport:
    def test_artifacts_reload(self, tmp_path, capsys):
        code, cap = run_json(
            capsys, "export", "--datum", "rational-r05", "--mesh-n", "4", "--out", str(tmp_path)
        )
        assert code == 0
        datum = WeierstrassData.from_obj(json.loads((tmp_path / "datum.json").read_text()))
        assert datum.domain_radius == 0.5
        curve = IsotropicCurve.from_obj(json.loads((tmp_path / "curve.json").read_text()))
        assert curve.isotropy_residual() < 1e-10
        rows = (tmp_path / "boundary.csv").read_text().splitlines()
        assert rows[0] == "x,y"
        assert len(rows) == 1 + 6 * 4
        obj_lines = (tmp_path / "surface.obj").read_text().splitlines()
        assert sum(1 for ln in obj_lines if ln.startswith("v ")) == disk_vertex_count(4)


class TestErrors:
    def test_unknown_datum(self, capsys):
        code, cap = run_json(capsys, "generate", "--datum", "nope", "--out", "/tmp/x")
        assert code == 1
        assert "unknown catalog datum" in cap.err

    def test_malformed_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, cap = run_json(capsys, "generate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "malformed JSON" in cap.err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, cap = run_json(capsys, "frobnicate")
        assert code == 1

    def test_missing_out_dir(self, capsys):
        code, cap = run_json(capsys, "generate", "--datum", "plane-r05")
        assert code == 1
        assert "requires --out" in cap.err

    def test_json_error_envelope(self, capsys):
        code, cap = run_json(capsys, "generate", "--datum", "nope", "--json", "--out", "/tmp/x")
        assert code == 1
        assert json.loads(cap.err)["error"].startswith("unknown catalog datum")

    @pytest.mark.parametrize(
        "command, kind",
        [("verify-krust", "datum"), ("dualize-curve", "datum"), ("dualize-curve", "curve")],
    )
    def test_zero_denominator_config(self, tmp_path, capsys, command, kind):
        zero = {"num": [[3, 0]], "den": [[0, 0]], "radius": 2}
        one = {"num": [[1, 0]], "den": [[1, 0]], "radius": 2}
        if kind == "datum":
            obj = {"g": zero, "dh": one, "radius": 0.5, "base": [0, 0],
                   "base_value": [0, 0, 0], "kind": "maximal-graph"}
        else:
            obj = {"psi1": zero, "psi2": one, "psi3": one, "ambient": "lorentzian"}
        cfgp = tmp_path / "zero.json"
        cfgp.write_text(json.dumps(obj))
        code, cap = run_json(capsys, command, "--config", str(cfgp), "--out", str(tmp_path))
        assert code == 1
        assert f"bad {kind} object" in cap.err

    def test_bad_mesh_n(self, capsys):
        code, cap = run_json(capsys, "generate", "--datum", "plane-r05", "--mesh-n", "0")
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [["identities", "--mesh-n", "4"], ["frobnicate"], ["verify-krust", "--tol", "1e-9"]]
    )
    def test_usage_error_honours_json(self, capsys, argv):
        code, cap = run_json(capsys, *argv, "--json")
        assert code == 1
        assert cap.out == ""
        assert "error" in json.loads(cap.err)

    @pytest.mark.parametrize(
        "command, obj, message",
        [
            ("verify-krust", {"datum": [1]}, 'a string "datum" name'),
            ("dualize-curve", {"datum": {"a": 1}}, 'a string "datum" name'),
            ("verify-krust", 5, "config must be a JSON object"),
            ("dualize-graph", 5, "config must be a JSON object"),
            ("dualize-curve", [1, 2], "config must be a JSON object"),
        ],
    )
    def test_hostile_config_shape(self, tmp_path, capsys, command, obj, message):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(obj))
        code, cap = run_json(capsys, command, "--config", str(cfgp), "--out", str(tmp_path))
        assert code == 1
        assert message in cap.err and "Traceback" not in cap.err

    def test_config_paths_must_be_strings(self, tmp_path):
        # integer paths would be opened as file descriptors, closing stdio, so
        # this runs in a child process
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"csv": 1, "header": 2}))
        argv = ["dualize-graph", "--config", str(cfgp), "--out", str(tmp_path)]
        proc = _run_module(["-m", "maxsurf.cli", *argv])
        assert proc.returncode == 1
        assert 'string "csv" and "header" paths' in proc.stderr

    def test_config_read_once(self, tmp_path, capsys, monkeypatch):
        import maxsurf.cli as cli
        from maxsurf.catalog import get

        cfgp = tmp_path / "datum.json"
        cfgp.write_text(json.dumps(get("plane-r05").to_obj()))
        reads = []
        read_json = cli._read_json
        monkeypatch.setattr(cli, "_read_json", lambda path: reads.append(path) or read_json(path))
        code, _ = run_json(capsys, "dualize-curve", "--config", str(cfgp), "--out", str(tmp_path))
        assert code == 0
        assert reads == [str(cfgp)]


# The flags each subcommand's handler reads, besides --json.
READS = {
    "generate": {"--datum", "--config", "--out", "--mesh-n"},
    "conjugate": {"--datum", "--config", "--out", "--mesh-n"},
    "dualize-curve": {"--datum", "--config", "--out"},
    "dualize-graph": {"--config", "--out"},
    "verify-krust": {"--datum", "--config", "--out", "--mesh-n"},
    "identities": {"--datum", "--config", "--out", "--seed"},
    "export": {"--datum", "--config", "--out", "--mesh-n"},
}
FLAG_VALUES = {
    "--datum": "plane-r05",
    "--config": "cfg.json",
    "--out": "out",
    "--tol": "1e-9",
    "--mesh-n": "4",
    "--seed": "3",
    "--grid-h": "0.02",
}


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in READS for f in sorted(set(FLAG_VALUES) - READS[c])],
    )
    def test_unread_flag_rejected(self, capsys, command, flag):
        code, cap = run_json(capsys, command, flag, FLAG_VALUES[flag])
        assert code == 1
        assert "unrecognized arguments" in cap.err and flag in cap.err
        assert cap.out == ""

    def test_registered_flags_are_the_read_ones(self):
        from maxsurf.cli import _parser

        sub = next(a for a in _parser()._actions if a.choices)
        for command, parser in sub.choices.items():
            flags = {s for a in parser._actions for s in a.option_strings}
            assert flags - {"-h", "--help", "--json"} == READS[command]

    def test_settings_echo_the_read_flags(self, tmp_path, capsys):
        field = TestDualizeGraph().make_field(tmp_path, h=0.1)[1]
        runs = {
            "generate": ["--datum", "plane-r05", "--mesh-n", "3", "--out", str(tmp_path)],
            "conjugate": ["--datum", "plane-r05", "--mesh-n", "3", "--out", str(tmp_path)],
            "dualize-curve": ["--datum", "plane-r05", "--out", str(tmp_path)],
            "dualize-graph": ["--config", str(field), "--out", str(tmp_path)],
            "verify-krust": ["--datum", "plane-r05", "--mesh-n", "3"],
            "identities": ["--datum", "plane-r05", "--seed", "3"],
            "export": ["--datum", "plane-r05", "--mesh-n", "3", "--out", str(tmp_path)],
        }
        want = {
            "generate": {"mesh_n": 3},
            "conjugate": {"mesh_n": 3},
            "dualize-curve": {},
            "dualize-graph": {},
            "verify-krust": {"mesh_n": 3},
            "identities": {"seed": 3},
            "export": {"mesh_n": 3},
        }
        for command, argv in runs.items():
            code, cap = run_json(capsys, command, *argv)
            assert code == 0, cap.err
            assert json.loads(cap.out)["settings"] == want[command], command


def _run_module(args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_scipy():
    code = "import maxsurf.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = _run_module(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
