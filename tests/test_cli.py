import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxsurf import meshcheck, textio
from maxsurf.catalog import get
from maxsurf.cli import _write_obj, run_argv
from maxsurf.graphfield import ScalarField, load_field, save_field, shift_agreement
from maxsurf.lorentz import Ambient
from maxsurf.meshcheck import SurfaceMesh, sample_surface, triangulate_disk
from maxsurf.weierstrass import (
    IsotropicCurve,
    WeierstrassData,
    build_isotropic_maximal,
    immersion_from_data,
)

from conftest import assert_no_children
from oracles import (
    boundary_csv_rows,
    disk_triangle_count,
    disk_vertex_count,
    helicoid_dual_height,
    helicoid_height,
    write_obj_rows,
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

    @pytest.mark.parametrize(
        "head, rows, message",
        [
            ({"spacing": 0}, "0,0,1\n", "spacing must be finite and positive"),
            ({"nx": 1e8, "ny": 1e8}, "0,0,1\n", "nx must be a positive integer"),
            ({"nx": 10**8, "ny": 10**8}, "0,0,1\n", "grid exceeds 4194304 cells"),
            ({}, "0,0,1\ninf,0,1\n", "f.csv:3: non-finite coordinate or value"),
            ({}, "0,0,1\n0,0,2\n", "f.csv:3: duplicate grid cell"),
        ],
    )
    def test_hostile_field_file(self, tmp_path, capsys, head, rows, message):
        (tmp_path / "f.json").write_text(
            json.dumps({"origin": [0, 0], "spacing": 0.1, "nx": 3, "ny": 3, **head})
        )
        (tmp_path / "f.csv").write_text("x,y,value\n" + rows)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"csv": str(tmp_path / "f.csv"), "header": str(tmp_path / "f.json")})
        )
        code, cap = run_json(capsys, "dualize-graph", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "malformed field file" in cap.err and message in cap.err

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

    def test_reruns_in_one_process_match_fresh_runs(self, capsys):
        # r05 and r09 meshes come from the shared per-n topology; every run in
        # this process must print what a fresh process prints
        argv = {name: ["verify-krust", "--datum", name, "--mesh-n", "24"] for name in ("rational-r05", "rational-r09")}
        fresh = {}
        for name, args in argv.items():
            proc = _run_module(["-m", "maxsurf.cli", *args])
            assert proc.returncode == 0, proc.stderr
            fresh[name] = proc.stdout
        for name in ("rational-r05", "rational-r09", "rational-r05"):
            code, cap = run_json(capsys, *argv[name])
            assert code == 0
            assert cap.out == fresh[name], name

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

    def test_files_match_row_oracle(self, tmp_path, capsys):
        code, _ = run_json(
            capsys, "export", "--datum", "rational-r09", "--mesh-n", "12", "--out", str(tmp_path)
        )
        assert code == 0
        data = get("rational-r09")
        mesh = sample_surface(immersion_from_data(data), triangulate_disk(data.domain_radius, 12))
        write_obj_rows(tmp_path / "want.obj", mesh)
        boundary_csv_rows(tmp_path / "want.csv", mesh)
        assert (tmp_path / "surface.obj").read_bytes() == (tmp_path / "want.obj").read_bytes()
        assert (tmp_path / "boundary.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_forked_files_match_row_oracle(self, tmp_path, capsys, cores):
        # n = 64: 12,481 vertices and 24,576 faces, above the part threshold
        code, _ = run_json(
            capsys, "export", "--datum", "rational-r09", "--mesh-n", "64", "--out", str(tmp_path)
        )
        assert code == 0
        assert_no_children()
        data = get("rational-r09")
        mesh = sample_surface(immersion_from_data(data), triangulate_disk(data.domain_radius, 64))
        write_obj_rows(tmp_path / "want.obj", mesh)
        boundary_csv_rows(tmp_path / "want.csv", mesh)
        assert (tmp_path / "surface.obj").read_bytes() == (tmp_path / "want.obj").read_bytes()
        assert (tmp_path / "boundary.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @staticmethod
    def fail_text_part(monkeypatch, in_child):
        """Three parts per large table; the children's (or the parent's) part raises."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        parent, format_rows = os.getpid(), textio._format

        def format_part(row, rows):
            if (os.getpid() != parent) == in_child:
                raise RuntimeError("text part fault")
            return format_rows(row, rows)

        monkeypatch.setattr(textio, "_format", format_part)

    def test_failing_text_worker_is_io_failure(self, tmp_path, capsys, monkeypatch):
        self.fail_text_part(monkeypatch, in_child=True)
        code, cap = run_json(
            capsys, "export", "--datum", "rational-r09", "--mesh-n", "64", "--out", str(tmp_path)
        )
        assert code == 1
        assert cap.err == "error: i/o failure: text worker exited with status 1\n"
        assert_no_children()

    def test_failing_parent_part_reaps_workers(self, tmp_path, monkeypatch):
        self.fail_text_part(monkeypatch, in_child=False)
        with pytest.raises(RuntimeError, match="text part fault"):
            run_argv(["export", "--datum", "rational-r09", "--mesh-n", "64", "--out", str(tmp_path)])
        assert_no_children()

    def test_obj_writer_special_floats(self, tmp_path):
        param = triangulate_disk(1.0, 1)
        special = [-0.0, 5e-324, 1e-5, 1e16, 0.1, 1 / 3, -2.5e-300]
        pos = np.resize(special, (param.vertices.size, 3))
        mesh = SurfaceMesh(param, pos, Ambient.LORENTZIAN)
        _write_obj(tmp_path / "got.obj", mesh)
        write_obj_rows(tmp_path / "want.obj", mesh)
        got = (tmp_path / "got.obj").read_bytes()
        assert got == (tmp_path / "want.obj").read_bytes()
        assert b"v -0.0 5e-324 1e-05\n" in got


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

    @pytest.mark.parametrize(
        "command, prefix, key",
        [
            ("verify-krust", "bad datum object", "kind"),
            ("dualize-curve", "bad curve object", "psi3"),
            ("dualize-graph", "malformed field file", "nx"),
        ],
    )
    def test_missing_key_named(self, tmp_path, capsys, command, prefix, key):
        data = get("plane-r05")
        if command == "verify-krust":
            obj = data.to_obj()
        elif command == "dualize-curve":
            obj = build_isotropic_maximal(data).to_obj()
        else:
            obj = {"origin": [0, 0], "spacing": 0.1, "nx": 3, "ny": 3}
            (tmp_path / "f.csv").write_text("x,y,value\n0,0,1\n")
        del obj[key]
        cfgp = tmp_path / "cfg.json"
        if command == "dualize-graph":
            (tmp_path / "f.json").write_text(json.dumps(obj))
            obj = {"csv": str(tmp_path / "f.csv"), "header": str(tmp_path / "f.json")}
        cfgp.write_text(json.dumps(obj))
        code, cap = run_json(capsys, command, "--config", str(cfgp), "--out", str(tmp_path))
        assert code == 1
        assert cap.err == f"error: {prefix}: missing key '{key}'\n"

    @pytest.mark.parametrize(
        "g, radius",
        [([[0.5, 0.0]], 0.5), ([[0.9, 0.0], [1.0, 0.0]], 0.5)],
        ids=["spacelike-plane-g0.5", "g-crosses-1"],
    )
    def test_non_graph_datum_rejected_whatever_its_kind(self, tmp_path, capsys, g, radius):
        # |g| <= 1 somewhere on the disk: not a maximal graph, so no verdict
        one = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0]], "radius": 2.0}
        obj = {"g": {"num": g, "den": [[1.0, 0.0]], "radius": 2.0}, "dh": one,
               "radius": radius, "base": [0, 0], "base_value": [0, 0, 0]}
        for kind, message in [("general", "unknown kind 'general'"), ("maximal-graph", "min |g|")]:
            cfgp = tmp_path / f"{kind}.json"
            cfgp.write_text(json.dumps({**obj, "kind": kind}))
            code, cap = run_json(capsys, "verify-krust", "--config", str(cfgp), "--mesh-n", "16")
            assert code == 1
            assert cap.out == ""
            assert "bad datum object" in cap.err and message in cap.err

    def test_degree_cap(self, tmp_path):
        # 1 - (z/1.5)^300: every pole at |z| = 1.5, so only the degree is wrong
        den = [[1.0, 0.0]] + [[0.0, 0.0]] * 299 + [[-(1 / 1.5) ** 300, 0.0]]
        one = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0]], "radius": 1.2}
        obj = {"g": {"num": [[3.0, 0.0]], "den": den, "radius": 1.2}, "dh": one,
               "radius": 0.9, "base": [0, 0], "base_value": [0, 0, 0], "kind": "maximal-graph"}
        cfgp = tmp_path / "deg300.json"
        cfgp.write_text(json.dumps(obj))
        proc = _run_module(["-m", "maxsurf.cli", "verify-krust", "--config", str(cfgp)])
        assert proc.returncode == 1
        assert "degree 300 exceeds the cap of 256" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_mesh_n(self, capsys):
        code, cap = run_json(capsys, "generate", "--datum", "plane-r05", "--mesh-n", "0")
        assert code == 1

    @pytest.mark.parametrize("mesh_n", ["1025", "1000000000"])
    def test_mesh_n_cap(self, tmp_path, capsys, monkeypatch, mesh_n):
        # rejected before the disk of 6 n^2 triangles is allocated
        monkeypatch.setattr(meshcheck, "_disk_topology", None)
        for command in ("generate", "export", "verify-krust"):
            code, cap = run_json(capsys, command, "--datum", "plane-r05", "--mesh-n", mesh_n,
                                 "--out", str(tmp_path))
            assert code == 1
            assert cap.err == f"error: --mesh-n must be between 1 and 1024, got {mesh_n}\n"

    @pytest.mark.parametrize(
        "g, dh, validity, radius, message",
        [
            (3.0, 1.0, 1e-200, 1e-200, "disk radius 1e-200 outside [2**-500, 2**500]"),
            (3.0, 1.0, 1e200, 1e200, "disk radius 1e+200 outside [2**-500, 2**500]"),
            # psi^2 overflows, so the isotropy residual is NaN and the curve is refused
            (3.0, 1e300, 2.0, 0.5, "sampled isotropy residual is not finite (nan)"),
            (1e300, 1.0, 2.0, 0.5, "non-finite coefficient"),
        ],
        ids=["radius-1e-200", "radius-1e200", "dh-1e300", "g-1e300"],
    )
    def test_hostile_numbers_named_error(self, tmp_path, g, dh, validity, radius, message):
        # each of these once ended in a ValueError traceback
        def const(c):
            return {"num": [[c, 0.0]], "den": [[1.0, 0.0]], "radius": validity}

        obj = {"g": const(g), "dh": const(dh), "radius": radius, "base": [0, 0],
               "base_value": [0, 0, 0], "kind": "maximal-graph"}
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(obj))
        proc = _run_module(["-m", "maxsurf.cli", "verify-krust", "--config", str(cfgp), "--mesh-n", "8"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_curve_with_non_finite_isotropy_residual(self, tmp_path):
        # psi1^2 + psi2^2 - psi3^2 = -2.5e399 overflows to a NaN residual; the
        # curve is refused by name, with no NaN printed as JSON
        def const(c):
            return {"num": [[c.real, c.imag]], "den": [[1.0, 0.0]], "radius": 0.5}

        obj = {"psi1": const(1e200), "psi2": const(5e199j), "psi3": const(1e200), "ambient": "lorentzian"}
        cfgp = tmp_path / "curve.json"
        cfgp.write_text(json.dumps(obj))
        argv = ["-m", "maxsurf.cli", "dualize-curve", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        proc = _run_module(argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: bad curve object: sampled isotropy residual is not finite (nan)\n"

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

    def test_parser_built_once_and_reusable(self, capsys):
        from maxsurf.cli import _parser

        assert _parser() is _parser()
        for _ in range(2):
            code, cap = run_json(capsys, "identities", "--mesh-n", "4", "--json")
            assert code == 1
            assert json.loads(cap.err) == {"error": "unrecognized arguments: --mesh-n 4"}
            code, cap = run_json(capsys, "verify-krust", "--datum", "plane-r05", "--mesh-n", "3")
            assert code == 0 and cap.err == ""

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
