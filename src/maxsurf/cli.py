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
import functools
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
    sample_surface,
    triangulate_disk,
)
from .rational import _number
from .textio import write_rows
from .weierstrass import (
    _ISOTROPY_TOL,
    Immersion,
    IsotropicCurve,
    WeierstrassData,
    build_isotropic_maximal,
    conjugate_curve,
    conjugate_immersion,
    half_forms,
    immerse,
    immersion_from_data,
    projection_residuals,
    rotation_identity_check,
)

_THRESHOLDS = {
    "isotropy": _ISOTROPY_TOL,  # IsotropicCurve's guard
    "projection": 1e-8,
    "rotation": 1e-8,
    "commutation": 1e-15,
    "involution": 2e-10,
}


class CliError(Exception):
    """Bad invocation or unreadable input; maps to exit code 1."""


# What building a datum or curve from a JSON object raises on bad content.
_BAD_OBJECT = (KeyError, TypeError, ValueError, ZeroDivisionError, MaxsurfError)


def _bad_input(prefix: str, e: Exception) -> CliError:
    """CliError "prefix: e"; a KeyError's text is the bare key, so name it."""
    why = f"missing key {e.args[0]!r}" if isinstance(e, KeyError) else e
    return CliError(f"{prefix}: {why}")


_FLAGS = {
    "--datum": {"help": "built-in catalog datum name"},
    "--config": {"help": "path to a JSON input description"},
    "--out": {"help": "output directory"},
    "--mesh-n": {"type": int, "default": 64, "help": "rings of the parameter disk, 1 to 1024"},
    "--seed": {"type": int, "default": 0},
}
# Flag sets of the subcommands (_COMMANDS); the numeric flags a subcommand
# takes are echoed as its report's settings.
_INPUT = ("--datum", "--config", "--out")
_SAMPLED = _INPUT + ("--mesh-n",)
_SETTINGS = ("mesh_n", "seed")
_MAX_MESH_N = 1024  # a disk of n rings has 6n^2 triangles: 319 MB to build and certify n = 1024


class _Parser(argparse.ArgumentParser):
    # bad usage is an input error (exit 1), not a verification failure (exit 2)
    def error(self, message):
        raise CliError(message)


@functools.cache  # built once per process; parsing leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="maxsurf",
        description="construct, dualize, and certify zero-mean-curvature graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (blurb, flags, _) in _COMMANDS.items():
        q = sub.add_parser(name, help=blurb)
        for flag in flags:
            q.add_argument(flag, **_FLAGS[flag])
        q.add_argument("--json", action="store_true", help="machine-readable errors")
    return p


def _check_args(args: argparse.Namespace):
    if "mesh_n" in args and not 1 <= args.mesh_n <= _MAX_MESH_N:
        raise CliError(f"--mesh-n must be between 1 and {_MAX_MESH_N}, got {args.mesh_n}")
    if "seed" in args and args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(obj, dict):
        raise CliError(f"config must be a JSON object, got {type(obj).__name__}")
    return obj


def _config_obj(args: argparse.Namespace) -> dict | None:
    return _read_json(args.config) if args.config else None


def _load_datum(args: argparse.Namespace, obj: dict | None = None) -> WeierstrassData:
    """The --datum catalog entry, else the datum --config describes; obj is
    the --config content when the caller has read it already."""
    name = args.datum
    if not name:
        obj = _config_obj(args) if obj is None else obj
        if obj is None:
            raise CliError("need --datum or --config")
        if "datum" not in obj and "g" in obj:
            try:
                return WeierstrassData.from_obj(obj)
            except _BAD_OBJECT as e:
                raise _bad_input("bad datum object", e) from e
        name = obj.get("datum")
        if not isinstance(name, str):
            raise CliError('config needs a datum object or a string "datum" name')
    try:
        return _catalog.get(name)
    except KeyError as e:
        raise CliError(e.args[0]) from e


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
    p, t = mesh.positions, mesh.param.triangles
    with open(path, "wb") as fh:
        write_rows(fh, "v %r %r %r\n", len(p), lambda a, b: p[a:b])
        write_rows(fh, "f %d %d %d\n", len(t), lambda a, b: t[a:b] + 1)  # 1-based, a chunk at a time


def _report(args: argparse.Namespace, **fields) -> dict:
    settings = {key: vars(args)[key] for key in _SETTINGS if key in args}
    return {"command": args.command, "settings": settings, **fields}


# ---- subcommands ----


def _cmd_surface(args: argparse.Namespace) -> int:
    data = _load_datum(args)
    out = _out_dir(args)
    im = immersion_from_data(data)
    if args.command == "conjugate":
        im = conjugate_immersion(im)
    mesh = sample_surface(im, triangulate_disk(im.domain_radius, args.mesh_n))
    name = "conjugate.obj" if args.command == "conjugate" else "surface.obj"
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
            raise _bad_input("bad curve object", e) from e
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
    if obj is None or not all(isinstance(obj.get(k), str) for k in ("csv", "header")):
        raise CliError('dualize-graph needs --config with string "csv" and "header" paths')
    direction = obj.get("direction", "minimal-to-maximal")
    if direction not in ("minimal-to-maximal", "maximal-to-minimal"):
        raise CliError(f"unknown direction {direction!r}")
    try:
        curl_tol = _number(obj.get("curl_tol", 1e-3), "curl_tol")
    except ValueError as e:
        raise CliError(f"bad curl_tol: {e}") from e
    if not 0.0 < curl_tol < np.inf:
        raise CliError(f"curl_tol must be finite and positive, got {curl_tol!r}")
    try:
        field = load_field(obj["csv"], obj["header"])
    except OSError as e:
        raise CliError(f"cannot read field: {e}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise _bad_input("malformed field file", e) from e
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
        reports[name] = krust_pipeline(immersion_from_data(data), args.mesh_n).to_obj()
    verdicts = {name: r["verdict"] for name, r in reports.items()}
    report = _report(args, verdicts=verdicts, reports=reports)
    if args.out:
        _write_json(_out_dir(args) / "krust_report.json", report)
    _emit(report)
    return 2 if any(v == FAIL for v in verdicts.values()) else 0


def _unit_disk_samples(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    return radius * np.sqrt(rng.uniform(0.0, 0.9604, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def _identity_battery(data: WeierstrassData, rng: np.random.Generator) -> dict:
    im = immersion_from_data(data)
    conj = conjugate_immersion(im)
    r = data.domain_radius

    proj = projection_residuals(im, half_forms(data), _unit_disk_samples(rng, r, 10))

    ws = _unit_disk_samples(rng, r, 20)
    ang = rng.uniform(0, 2 * np.pi, 20)
    rot = rotation_identity_check(im, conj, data, ws, (np.cos(ang), np.sin(ang)))

    twice = Immersion(conjugate_curve(conj.curve), im.base_point, im.base_value)
    ws = _unit_disk_samples(rng, r, 4)
    invol = (immerse(twice, ws) - (2.0 * im.base_value - immerse(im, ws))).as_array()

    return {
        "isotropy": im.curve.isotropy_residual(),
        "projection": float(np.max(proj)),
        "rotation": float(np.max(rot)),
        "commutation": check_commutation(im.curve),
        "involution": float(np.max(np.abs(invol))),
    }


def _cmd_identities(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    worst: dict[str, float] = {}
    per_datum = {}
    for name, data in _catalog_items(args):
        res = _identity_battery(data, rng)
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
    im = immersion_from_data(data)
    mesh = sample_surface(im, triangulate_disk(data.domain_radius, args.mesh_n))

    files = [out / "datum.json", out / "curve.json", out / "surface.obj", out / "boundary.csv"]
    _write_json(files[0], data.to_obj())
    _write_json(files[1], im.curve.to_obj())
    _write_obj(files[2], mesh)
    with open(files[3], "wb") as fh:
        fh.write(b"x,y\n")
        rim = mesh.positions[mesh.param.boundary, :2]
        write_rows(fh, "%r,%r\n", len(rim), lambda a, b: rim[a:b])
    _emit(_report(args, files=[str(f) for f in files]))
    return 0


# Per subcommand: help line, the flags its handler reads (each also takes
# --json), and the handler.
_COMMANDS = {
    "generate": ("sample a surface mesh and write it as OBJ", _SAMPLED, _cmd_surface),
    "conjugate": ("sample the conjugate surface and write it as OBJ", _SAMPLED, _cmd_surface),
    "dualize-curve": ("twist the isotropic curve to the other ambient", _INPUT, _cmd_dualize_curve),
    "dualize-graph": ("dualize a gridded graph function", ("--config", "--out"), _cmd_dualize_graph),
    "verify-krust": ("certify the graph property of conjugates", _SAMPLED, _cmd_verify_krust),
    "identities": ("run the randomized identity battery", _INPUT + ("--seed",), _cmd_identities),
    "export": ("write datum, curve, and boundary artifacts", _SAMPLED, _cmd_export),
}


def run(args: argparse.Namespace) -> int:
    return _COMMANDS[args.command][2](args)


def _emit_error(message: str, json_errors: bool):
    if json_errors:
        sys.stderr.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def run_argv(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    json_errors = "--json" in argv  # usage errors come before args exist
    try:
        args = _parser().parse_args(argv)
        json_errors = args.json  # also when abbreviated, e.g. --js
        _check_args(args)
        # overflow ends in FloatRangeError from explicit finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            return run(args)
    except (CliError, MaxsurfError) as e:
        _emit_error(str(e), json_errors)
        return 1
    except OSError as e:
        _emit_error(f"i/o failure: {e}", json_errors)
        return 1


def entry():
    sys.exit(run_argv())


if __name__ == "__main__":
    entry()
