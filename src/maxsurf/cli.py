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
Each subcommand accepts only the flags it reads (_COMMANDS) and rejects the
rest.  All randomized work is seeded (identities --seed, default 0) and
outputs are byte-deterministic for a fixed configuration.

Exit codes: 0 success, 1 input error, 2 a theorem-level check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
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


_FLAGS = {
    "--datum": {"help": "built-in catalog datum name"},
    "--config": {"help": "path to a JSON input description"},
    "--out": {"help": "output directory"},
    "--tol": {"type": float, "default": 1e-10},
    "--mesh-n": {"type": int, "default": 64},
    "--seed": {"type": int, "default": 0},
}
# Per subcommand: help line and the flags its handler reads (each also takes
# --json).  The numeric ones among them are echoed as the report's settings.
_INPUT = ("--datum", "--config", "--out")
_SAMPLED = _INPUT + ("--tol", "--mesh-n")
_COMMANDS = {
    "generate": ("sample a surface mesh and write it as OBJ", _SAMPLED),
    "conjugate": ("sample the conjugate surface and write it as OBJ", _SAMPLED),
    "dualize-curve": ("twist the isotropic curve to the other ambient", _INPUT),
    "dualize-graph": ("dualize a gridded graph function", ("--config", "--out")),
    "verify-krust": ("certify the graph property of conjugates", _SAMPLED),
    "identities": ("run the randomized identity battery", _INPUT + ("--tol", "--seed")),
    "export": ("write datum, curve, and boundary artifacts", _SAMPLED),
}
_SETTINGS = ("tol", "mesh_n", "seed")


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
    for name, (blurb, flags) in _COMMANDS.items():
        q = sub.add_parser(name, help=blurb)
        for flag in flags:
            q.add_argument(flag, **_FLAGS[flag])
        q.add_argument("--json", action="store_true", help="machine-readable errors")
    return p


def _check_args(args: argparse.Namespace):
    if "tol" in args and not 0.0 < args.tol < np.inf:
        raise CliError(f"--tol must be finite and positive, got {args.tol!r}")
    if "mesh_n" in args and args.mesh_n < 1:
        raise CliError("--mesh-n must be at least 1")


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {path}: {e}") from e


def _config_obj(args: argparse.Namespace) -> dict | None:
    return _read_json(args.config) if args.config else None


def _load_datum(args: argparse.Namespace, obj: dict | None = None) -> WeierstrassData:
    """The --datum catalog entry, else the datum --config describes; obj is
    the --config content when the caller has read it already."""
    if args.datum:
        try:
            return _catalog.get(args.datum)
        except KeyError as e:
            raise CliError(e.args[0]) from e
    if obj is None:
        obj = _config_obj(args)
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


def _out_dir(args: argparse.Namespace) -> Path:
    if not args.out:
        raise CliError(f"{args.command} requires --out")
    out = Path(args.out)
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


def _report(args: argparse.Namespace, **fields) -> dict:
    settings = {key: vars(args)[key] for key in _SETTINGS if key in args}
    return {"command": args.command, "settings": settings, **fields}


# ---- subcommands ----


def _cmd_surface(args: argparse.Namespace, conjugated: bool) -> int:
    data = _load_datum(args)
    out = _out_dir(args)
    im = immersion_from_data(data)
    if conjugated:
        im = conjugate_immersion(im)
    mesh = sample_surface(im, triangulate_disk(im.domain_radius, args.mesh_n), args.tol)
    name = "conjugate.obj" if conjugated else "surface.obj"
    _write_obj(out / name, mesh)
    report = projection_report(mesh)
    _emit(
        _report(
            args,
            vertices=int(mesh.param.vertices.size),
            triangles=int(mesh.param.triangles.shape[0]),
            projection_report=report.to_obj(),
            files=[str(out / name)],
        )
    )
    return 0


def _load_curve(args: argparse.Namespace) -> IsotropicCurve:
    obj = _config_obj(args)
    if obj is not None and "psi1" in obj:
        try:
            return IsotropicCurve.from_obj(obj)
        except _BAD_OBJECT as e:
            raise CliError(f"bad curve object: {e}") from e
    return build_isotropic_maximal(_load_datum(args, obj))


def _cmd_dualize_curve(args: argparse.Namespace) -> int:
    curve = _load_curve(args)
    out = _out_dir(args)
    dual = sharp(curve) if curve.ambient is Ambient.LORENTZIAN else flat(curve)
    path = out / "dual_curve.json"
    _write_json(path, dual.to_obj())
    _emit(
        _report(
            args,
            input_ambient=curve.ambient.value,
            output_ambient=dual.ambient.value,
            commutation_residual=check_commutation(curve),
            isotropy_residual=dual.isotropy_residual(),
            files=[str(path)],
        )
    )
    return 0


def _cmd_dualize_graph(args: argparse.Namespace) -> int:
    obj = _config_obj(args)
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
    out = _out_dir(args)
    op = dualize_minimal_to_maximal if direction == "minimal-to-maximal" else dualize_maximal_to_minimal
    dual = op(field, curl_tol=curl_tol)
    csv_path, head_path = out / "dual_field.csv", out / "dual_field.header.json"
    save_field(dual, csv_path, head_path)
    _emit(
        _report(
            args,
            direction=direction,
            curl_tol=curl_tol,
            cells=int(dual.mask.sum()),
            files=[str(csv_path), str(head_path)],
        )
    )
    return 0


def _catalog_items(args: argparse.Namespace) -> list[tuple[str, WeierstrassData]]:
    if args.datum or args.config:
        data = _load_datum(args)
        return [(args.datum or "config", data)]
    return sorted(_catalog.catalog().items())


def _cmd_verify_krust(args: argparse.Namespace) -> int:
    reports = {}
    for name, data in _catalog_items(args):
        reports[name] = krust_pipeline(immersion_from_data(data), args.mesh_n, args.tol).to_obj()
    verdicts = {name: r["verdict"] for name, r in reports.items()}
    report = _report(args, verdicts=verdicts, reports=reports)
    if args.out:
        _write_json(_out_dir(args) / "krust_report.json", report)
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


def _cmd_identities(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    worst: dict[str, float] = {}
    per_datum = {}
    for name, data in _catalog_items(args):
        res = _identity_battery(data, rng, args.tol)
        per_datum[name] = res
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    ok = all(worst[k] <= _THRESHOLDS[k] for k in _THRESHOLDS)
    report = _report(args, thresholds=_THRESHOLDS, worst=worst, per_datum=per_datum, ok=ok)
    if args.out:
        _write_json(_out_dir(args) / "identities_report.json", report)
    _emit(report)
    return 0 if ok else 2


def _cmd_export(args: argparse.Namespace) -> int:
    data = _load_datum(args)
    out = _out_dir(args)
    curve = build_isotropic_maximal(data)
    im = immersion_from_data(data)
    mesh = sample_surface(im, triangulate_disk(data.domain_radius, args.mesh_n), args.tol)

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

    _emit(_report(args, files=files))
    return 0


def run(args: argparse.Namespace) -> int:
    handlers = {
        "generate": lambda: _cmd_surface(args, conjugated=False),
        "conjugate": lambda: _cmd_surface(args, conjugated=True),
        "dualize-curve": lambda: _cmd_dualize_curve(args),
        "dualize-graph": lambda: _cmd_dualize_graph(args),
        "verify-krust": lambda: _cmd_verify_krust(args),
        "identities": lambda: _cmd_identities(args),
        "export": lambda: _cmd_export(args),
    }
    return handlers[args.command]()


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
        _check_args(args)
        return run(args)
    except (CliError, MaxsurfError) as e:
        _emit_error(str(e), args.json)
        return 1
    except OSError as e:
        _emit_error(f"i/o failure: {e}", args.json)
        return 1


def entry():
    sys.exit(run_argv())


if __name__ == "__main__":
    entry()
