"""The three workloads: the items of one pass and the checks on their outputs.

Nothing here imports maxsurf at module level, so a child process can time the
package import as its own set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

# Problem sizes of the timed benchmark ("full") and of the smoke self-test.
SIZES = {
    "full": {"krust_n": 128, "lee_h": 0.01, "export_n": 256, "helicoid_h": 0.0025, "data": None},
    "smoke": {
        "krust_n": 12,
        "lee_h": 0.02,
        "export_n": 12,
        "helicoid_h": 0.02,
        "data": ["plane-r05", "rational-r05"],
    },
}

# Report fields may move by at most the CLI quadrature tolerance (--tol 1e-10):
# projected areas and boundary cross products are products of coordinates
# that are each accurate to that tolerance, times edge lengths below 0.1.
KRUST_ATOL = 1e-10
# The Lee gap integrates grid gradients of heights accurate to 1e-10; at
# grid spacing 0.01 over unit path length that moves the gap by up to 1e-8.
LEE_ATOL = 1e-8
# Shift agreement between the dual of the helicoid slab and -arcsinh(r). Its
# worst case over the translation box is the corner (-0.3, +0.3), nearest the
# axis: 1.29e-7 at h = 0.0025 and 8.2e-6 at the smoke size h = 0.02. The
# bounds are twice that.
HELICOID_GAP_BOUND = {"full": 2.5e-7, "smoke": 1.6e-5}
# The slab [1.6, 2.4] x [-0.6, 0.6] is translated by up to this much in x and
# y; it stays at radius >= 1.3 from the helicoid axis and off the branch cut.
HELICOID_SHIFT = 0.3

WORKLOADS = ("krust-catalog", "lee-resample", "artifacts-io")


def catalog_names(size: str) -> list[str]:
    names = SIZES[size]["data"]
    if names is None:
        from maxsurf.catalog import catalog

        names = sorted(catalog())
    return list(names)


def _cli(argv: list[str]) -> dict:
    from maxsurf.cli import run_argv

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_argv(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---- inputs ----


def helicoid_input(workdir: Path, seed: int, size: str) -> dict:
    """Write the seeded helicoid slab arctan2(y, x) as a dualize-graph input.

    The CSV and header follow the format of maxsurf.graphfield.save_field.
    Returns the grid description the output check needs.
    """
    h = SIZES[size]["helicoid_h"]
    nx, ny = int(round(0.8 / h)) + 1, int(round(1.2 / h)) + 1
    tx, ty = np.random.default_rng(seed).uniform(-HELICOID_SHIFT, HELICOID_SHIFT, 2)
    origin = (1.6 + float(tx), -0.6 + float(ty))
    xs = origin[0] + h * np.arange(nx)
    ys = origin[1] + h * np.arange(ny)
    vals = np.arctan2(ys[None, :], xs[:, None])

    src = workdir / "input"
    src.mkdir(parents=True, exist_ok=True)
    head = {"nx": nx, "ny": ny, "origin": [origin[0], origin[1]], "spacing": h}
    (src / "field.header.json").write_text(json.dumps(head, sort_keys=True) + "\n")
    with open(src / "field.csv", "w") as fh:
        fh.write("x,y,value\n")
        for i in range(nx):
            x = repr(float(xs[i]))
            fh.writelines(f"{x},{float(ys[j])!r},{float(vals[i, j])!r}\n" for j in range(ny))
    spec = {
        "csv": str(src / "field.csv"),
        "header": str(src / "field.header.json"),
        "direction": "minimal-to-maximal",
        "curl_tol": 1e-2,
    }
    (src / "config.json").write_text(json.dumps(spec, sort_keys=True) + "\n")
    return {"cells": nx * ny}


# ---- items: (name, callable returning the raw output) ----


def items(workload: str, size: str, seed: int, workdir: Path) -> list[tuple[str, object]]:
    sz = SIZES[size]
    if workload == "krust-catalog":
        n = str(sz["krust_n"])
        return [
            (name, lambda name=name: _cli(["verify-krust", "--datum", name, "--mesh-n", n]))
            for name in catalog_names(size)
        ]
    if workload == "lee-resample":

        def lee(name):
            from maxsurf.catalog import get
            from maxsurf.meshcheck import lee_equivalence_check

            return {"gap": lee_equivalence_check(get(name), sz["lee_h"])}

        return [(name, lambda name=name: lee(name)) for name in catalog_names(size)]
    if workload == "artifacts-io":
        out = workdir / "out"
        cfg = str(workdir / "input" / "config.json")
        argvs = {
            "export": ["export", "--datum", "rational-r09", "--mesh-n", str(sz["export_n"])],
            "dualize-graph": ["dualize-graph", "--config", cfg],
            "identities": ["identities", "--seed", str(seed)],
        }
        argvs["export"] += ["--out", str(out / "export")]
        argvs["dualize-graph"] += ["--out", str(out / "dual")]
        return [(name, lambda argv=argv: _cli(argv)) for name, argv in argvs.items()]
    raise ValueError(f"unknown workload {workload!r}")


def clear_outputs(workdir: Path):
    shutil.rmtree(workdir / "out", ignore_errors=True)


# ---- checks: each returns None when the output is right, else a reason ----


def _close(got, want, atol: float) -> bool:
    if isinstance(want, bool):
        return got is want
    return isinstance(got, float) and abs(got - want) <= atol


def _check_krust(name: str, out: dict, ref: dict) -> str | None:
    if out["rc"] != 0:
        return f"exit code {out['rc']}: {out['stderr'].strip()}"
    rep = json.loads(out["stdout"])
    if rep["verdicts"] != {name: "PASS"}:
        return f"verdicts {rep['verdicts']}"
    got, want = rep["reports"][name], ref["krust"][name]
    for side in ("domain_report", "conjugate_report"):
        for key, value in want[side].items():
            if not _close(got[side].get(key), value, KRUST_ATOL):
                return f"{side}.{key} = {got[side].get(key)!r}, reference {value!r}"
    return None


def _check_lee(name: str, out: dict, ref: dict) -> str | None:
    gap, want = out["gap"], ref["lee"][name]
    if not abs(gap - want["gap"]) <= LEE_ATOL:
        return f"gap {gap!r}, reference {want['gap']!r}"
    # criterion 8: halving h divides the gap by >= 3, or both sit at rounding
    ceiling = max(want["gap_2h"] / 3.0, 1e-12)
    if not gap <= ceiling:
        return f"gap {gap!r} above the criterion-8 ceiling {ceiling!r}"
    return None


def _obj_counts(path: Path) -> tuple[int, int]:
    nv = nf = 0
    with open(path) as fh:
        for line in fh:
            nv += line.startswith("v ")
            nf += line.startswith("f ")
    return nv, nf


def _check_artifact(name: str, out: dict, size: str, workdir: Path, grid: dict) -> str | None:
    if out["rc"] != 0:
        return f"exit code {out['rc']}: {out['stderr'].strip()}"
    rep = json.loads(out["stdout"])
    if name == "export":
        n = SIZES[size]["export_n"]
        got = _obj_counts(workdir / "out" / "export" / "surface.obj")
        want = (1 + 3 * n * (n + 1), 6 * n * n)
        if got != want:
            return f"OBJ has {got} vertices/faces, expected {want}"
        if len(rep["files"]) != 4:
            return f"export wrote {rep['files']}"
    elif name == "dualize-graph":
        if rep["cells"] != grid["cells"]:
            return f"dual has {rep['cells']} cells, expected {grid['cells']}"
        xyv = np.loadtxt(workdir / "out" / "dual" / "dual_field.csv", delimiter=",", skiprows=1)
        d = xyv[:, 2] + np.arcsinh(np.hypot(xyv[:, 0], xyv[:, 1]))
        gap = float((d.max() - d.min()) / 2.0)
        if not gap <= HELICOID_GAP_BOUND[size]:
            return f"dual vs -arcsinh(r) shift agreement {gap:.3e} > {HELICOID_GAP_BOUND[size]:g}"
    elif name == "identities":
        if rep["ok"] is not True:
            return f"identities not ok: worst {rep['worst']}"
    return None


def check(workload: str, name: str, out: dict, size: str, workdir: Path, grid: dict) -> str | None:
    ref = json.loads(REFERENCE.read_text())[size]
    if workload == "krust-catalog":
        return _check_krust(name, out, ref)
    if workload == "lee-resample":
        return _check_lee(name, out, ref)
    return _check_artifact(name, out, size, workdir, grid)


def output_hashes(workload: str, name: str, out: dict, workdir: Path) -> dict[str, str]:
    """sha256 of everything an item produced: its stdout or value, and files."""
    if workload == "lee-resample":
        return {name: _sha(repr(out["gap"]).encode())}
    hashes = {f"{name}:stdout": _sha(out["stdout"].encode())}
    sub = {"export": "export", "dualize-graph": "dual"}.get(name)
    if workload == "artifacts-io" and sub:
        for path in sorted((workdir / "out" / sub).iterdir()):
            hashes[f"{name}:{path.name}"] = _sha(path.read_bytes())
    return hashes
