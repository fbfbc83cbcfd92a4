"""Command-line front end.

One binary, seven subcommands:

    generate       sample a surface on a triangulated disk, write OBJ
    conjugate      same for the conjugate surface
    dualize-curve  third-component twist of the isotropic curve, write JSON
    dualize-graph  grid-level duality on a saved scalar field (CSV + header)
    verify-krust   graph/convexity certification of surface and conjugate
    identities     randomized residual battery for the structural identities
    export         machine-readable artifacts for a datum

Inputs come from --datum (built-in catalog name) or --config (JSON: either a
Weierstrass datum object, {"datum": <name>}, or the dualize-graph file spec).
All randomized work is seeded (--seed, default 0) and outputs are
byte-deterministic for a fixed configuration.

Exit codes: 0 success, 1 input error, 2 a theorem-level check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog as _catalog
from .duality import check_commutation, flat, sharp
from .errors import MaxsurfError
from .graphfield import (
    dualize_maximal_to_minimal,
    dualize_minimal_to_maximal,
    load_field,
    save_field,
)
from .lorentz import Ambient
from .meshcheck import (
    FAIL,
    SurfaceMesh,
    krust_pipeline,
    projection_report,
    rotation_identity_check,
    sample_surface,
    triangulate_disk,
)
from .weierstrass import (
    Immersion,
    IsotropicCurve,
    WeierstrassData,
    build_isotropic_maximal,
    conjugate_curve,
    conjugate_immersion,
    immerse,
    immersion_from_data,
    projection_identities,
)

_THRESHOLDS = {
    "isotropy": 1e-10,
    "projection": 1e-8,
    "rotation": 1e-8,
    "commutation": 1e-15,
    "involution": 2e-10,
}


class CliError(Exception):
    """Bad invocation or unreadable input; maps to exit code 1."""


# What building a datum or curve from a JSON object raises on bad content.
_BAD_OBJECT = (KeyError, TypeError, ValueError, ZeroDivisionError, MaxsurfError)


@dataclass
class JobConfig:
    command: str
    datum_name: str | None
    config_path: str | None
    out_dir: str | None
    tol: float
    mesh_n: int
    grid_h: float
    seed: int
    json_errors: bool

    def __post_init__(self):
        if self.tol <= 0 or self.grid_h <= 0:
            raise CliError("tolerances and spacings must be positive")
        if self.mesh_n < 1:
            raise CliError("--mesh-n must be at least 1")


class _Parser(argparse.ArgumentParser):
    # bad usage is an input error (exit 1), not a verification failure (exit 2)
    def error(self, message):
        raise CliError(message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="maxsurf",
        description="construct, dualize, and certify zero-mean-curvature graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("generate", "sample a surface mesh and write it as OBJ"),
        ("conjugate", "sample the conjugate surface and write it as OBJ"),
        ("dualize-curve", "twist the isotropic curve to the other ambient"),
        ("dualize-graph", "dualize a gridded graph function"),
        ("verify-krust", "certify the graph property of conjugates"),
        ("identities", "run the randomized identity battery"),
        ("export", "write datum, curve, and boundary artifacts"),
    ]:
        q = sub.add_parser(name, help=blurb)
        q.add_argument("--datum", help="built-in catalog datum name")
        q.add_argument("--config", help="path to a JSON input description")
        q.add_argument("--out", help="output directory")
        q.add_argument("--tol", type=float, default=1e-10)
        q.add_argument("--mesh-n", type=int, default=64, dest="mesh_n")
        q.add_argument("--grid-h", type=float, default=0.02, dest="grid_h")
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--json", action="store_true", help="machine-readable errors")
    return p


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {path}: {e}") from e


def _config_obj(cfg: JobConfig) -> dict | None:
    return _read_json(cfg.config_path) if cfg.config_path else None


def _load_datum(cfg: JobConfig) -> WeierstrassData:
    if cfg.datum_name:
        try:
            return _catalog.get(cfg.datum_name)
        except KeyError as e:
            raise CliError(e.args[0]) from e
    obj = _config_obj(cfg)
    if obj is None:
        raise CliError("need --datum or --config")
    if "datum" in obj:
        try:
            return _catalog.get(obj["datum"])
        except KeyError as e:
            raise CliError(e.args[0]) from e
    if "g" in obj:
        try:
            return WeierstrassData.from_obj(obj)
        except _BAD_OBJECT as e:
            raise CliError(f"bad datum object: {e}") from e
    raise CliError("config does not describe a datum")


def _out_dir(cfg: JobConfig) -> Path:
    if not cfg.out_dir:
        raise CliError(f"{cfg.command} requires --out")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(report: dict):
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _write_json(path: Path, obj: dict):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_obj(path: Path, mesh: SurfaceMesh):
    lines = [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.positions]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.param.triangles]
    path.write_text("\n".join(lines) + "\n")


def _report(cfg: JobConfig, **fields) -> dict:
    settings = {"tol": cfg.tol, "mesh_n": cfg.mesh_n, "grid_h": cfg.grid_h, "seed": cfg.seed}
    return {"command": cfg.command, "settings": settings, **fields}


# ---- subcommands ----


def _cmd_surface(cfg: JobConfig, conjugated: bool) -> int:
    data = _load_datum(cfg)
    out = _out_dir(cfg)
    im = immersion_from_data(data)
    if conjugated:
        im = conjugate_immersion(im)
    mesh = sample_surface(im, triangulate_disk(im.domain_radius, cfg.mesh_n), cfg.tol)
    name = "conjugate.obj" if conjugated else "surface.obj"
    _write_obj(out / name, mesh)
    report = projection_report(mesh)
    _emit(
        _report(
            cfg,
            vertices=int(mesh.param.vertices.size),
            triangles=int(mesh.param.triangles.shape[0]),
            projection_report=report.to_obj(),
            files=[str(out / name)],
        )
    )
    return 0


def _load_curve(cfg: JobConfig) -> IsotropicCurve:
    obj = _config_obj(cfg)
    if obj is not None and "psi1" in obj:
        try:
            return IsotropicCurve.from_obj(obj)
        except _BAD_OBJECT as e:
            raise CliError(f"bad curve object: {e}") from e
    return build_isotropic_maximal(_load_datum(cfg))


def _cmd_dualize_curve(cfg: JobConfig) -> int:
    curve = _load_curve(cfg)
    out = _out_dir(cfg)
    dual = sharp(curve) if curve.ambient is Ambient.LORENTZIAN else flat(curve)
    path = out / "dual_curve.json"
    _write_json(path, dual.to_obj())
    _emit(
        _report(
            cfg,
            input_ambient=curve.ambient.value,
            output_ambient=dual.ambient.value,
            commutation_residual=check_commutation(curve),
            isotropy_residual=dual.isotropy_residual(),
            files=[str(path)],
        )
    )
    return 0


def _cmd_dualize_graph(cfg: JobConfig) -> int:
    obj = _config_obj(cfg)
    if obj is None or "csv" not in obj or "header" not in obj:
        raise CliError('dualize-graph needs --config with {"csv", "header", "direction"}')
    direction = obj.get("direction", "minimal-to-maximal")
    if direction not in ("minimal-to-maximal", "maximal-to-minimal"):
        raise CliError(f"unknown direction {direction!r}")
    try:
        curl_tol = float(obj.get("curl_tol", 1e-3))
    except (TypeError, ValueError) as e:
        raise CliError(f"bad curl_tol: {e}") from e
    if not 0.0 < curl_tol < np.inf:
        raise CliError(f"curl_tol must be finite and positive, got {curl_tol!r}")
    try:
        field = load_field(obj["csv"], obj["header"])
    except OSError as e:
        raise CliError(f"cannot read field: {e}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"malformed field file: {e}") from e
    out = _out_dir(cfg)
    op = dualize_minimal_to_maximal if direction == "minimal-to-maximal" else dualize_maximal_to_minimal
    dual = op(field, curl_tol=curl_tol)
    csv_path, head_path = out / "dual_field.csv", out / "dual_field.header.json"
    save_field(dual, csv_path, head_path)
    _emit(
        _report(
            cfg,
            direction=direction,
            curl_tol=curl_tol,
            cells=int(dual.mask.sum()),
            files=[str(csv_path), str(head_path)],
        )
    )
    return 0


def _catalog_items(cfg: JobConfig) -> list[tuple[str, WeierstrassData]]:
    if cfg.datum_name or cfg.config_path:
        data = _load_datum(cfg)
        return [(cfg.datum_name or "config", data)]
    return sorted(_catalog.catalog().items())


def _cmd_verify_krust(cfg: JobConfig) -> int:
    reports = {}
    for name, data in _catalog_items(cfg):
        reports[name] = krust_pipeline(data, cfg.mesh_n, cfg.tol).to_obj()
    verdicts = {name: r["verdict"] for name, r in reports.items()}
    report = _report(cfg, verdicts=verdicts, reports=reports)
    if cfg.out_dir:
        _write_json(_out_dir(cfg) / "krust_report.json", report)
    _emit(report)
    return 2 if any(v == FAIL for v in verdicts.values()) else 0


def _unit_disk_samples(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    return radius * np.sqrt(rng.uniform(0.0, 0.9604, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def _identity_battery(data: WeierstrassData, rng: np.random.Generator, tol: float) -> dict:
    im = immersion_from_data(data)
    curve = im.curve
    r = data.domain_radius

    ws = _unit_disk_samples(rng, r, 10)
    proj = max(projection_identities(data, complex(w), tol).residual for w in ws)

    rot = 0.0
    for w in _unit_disk_samples(rng, r, 20):
        ang = rng.uniform(0, 2 * np.pi)
        rot = max(rot, rotation_identity_check(im, data, complex(w), (np.cos(ang), np.sin(ang))))

    twice = Immersion(
        conjugate_curve(conjugate_curve(curve)), im.base_point, im.base_value, r
    )
    invol = 0.0
    for w in _unit_disk_samples(rng, r, 4):
        got = immerse(twice, complex(w), tol).as_array()
        want = 2.0 * im.base_value.as_array() - immerse(im, complex(w), tol).as_array()
        invol = max(invol, float(np.max(np.abs(got - want))))

    return {
        "isotropy": curve.isotropy_residual(),
        "projection": proj,
        "rotation": rot,
        "commutation": check_commutation(curve),
        "involution": invol,
    }


def _cmd_identities(cfg: JobConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst: dict[str, float] = {}
    per_datum = {}
    for name, data in _catalog_items(cfg):
        res = _identity_battery(data, rng, cfg.tol)
        per_datum[name] = res
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    ok = all(worst[k] <= _THRESHOLDS[k] for k in _THRESHOLDS)
    report = _report(cfg, thresholds=_THRESHOLDS, worst=worst, per_datum=per_datum, ok=ok)
    if cfg.out_dir:
        _write_json(_out_dir(cfg) / "identities_report.json", report)
    _emit(report)
    return 0 if ok else 2


def _cmd_export(cfg: JobConfig) -> int:
    data = _load_datum(cfg)
    out = _out_dir(cfg)
    curve = build_isotropic_maximal(data)
    im = immersion_from_data(data)
    mesh = sample_surface(im, triangulate_disk(data.domain_radius, cfg.mesh_n), cfg.tol)

    files = []
    _write_json(out / "datum.json", data.to_obj())
    files.append(str(out / "datum.json"))
    _write_json(out / "curve.json", curve.to_obj())
    files.append(str(out / "curve.json"))
    _write_obj(out / "surface.obj", mesh)
    files.append(str(out / "surface.obj"))

    cycle = mesh.positions[mesh.param.boundary]
    rows = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in cycle[:, :2]]
    (out / "boundary.csv").write_text("\n".join(rows) + "\n")
    files.append(str(out / "boundary.csv"))

    _emit(_report(cfg, files=files))
    return 0


def run(cfg: JobConfig) -> int:
    handlers = {
        "generate": lambda: _cmd_surface(cfg, conjugated=False),
        "conjugate": lambda: _cmd_surface(cfg, conjugated=True),
        "dualize-curve": lambda: _cmd_dualize_curve(cfg),
        "dualize-graph": lambda: _cmd_dualize_graph(cfg),
        "verify-krust": lambda: _cmd_verify_krust(cfg),
        "identities": lambda: _cmd_identities(cfg),
        "export": lambda: _cmd_export(cfg),
    }
    return handlers[cfg.command]()


def _emit_error(message: str, json_errors: bool):
    if json_errors:
        sys.stderr.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def run_argv(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except CliError as e:
        _emit_error(str(e), False)
        return 1
    try:
        cfg = JobConfig(
            command=args.command,
            datum_name=args.datum,
            config_path=args.config,
            out_dir=args.out,
            tol=args.tol,
            mesh_n=args.mesh_n,
            grid_h=args.grid_h,
            seed=args.seed,
            json_errors=args.json,
        )
    except CliError as e:
        _emit_error(str(e), bool(getattr(args, "json", False)))
        return 1
    try:
        return run(cfg)
    except (CliError, MaxsurfError) as e:
        _emit_error(str(e), cfg.json_errors)
        return 1
    except OSError as e:
        _emit_error(f"i/o failure: {e}", cfg.json_errors)
        return 1


def entry():
    sys.exit(run_argv())


if __name__ == "__main__":
    entry()
