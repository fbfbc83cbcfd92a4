"""Per-layer metrics and coverage checks from one traced pass.

Times are self times (a span's duration minus its child spans) summed over
the span names of a layer. Counts come from the tracer's measures or from
parent/child span pairs.
"""

from __future__ import annotations

# Metrics in BENCHMARK.json's per_layer list, printed in the result JSON with
# --trace 1. Layer times that some workload never exercises (they read 0 s
# there) are printed with the rest but kept out of this list; their call or
# work counts stand in for them.
PER_LAYER = [
    "rational.eval.calls",
    "rational.eval.points",
    "rational.eval.s",
    "rational.integrate_to_many.calls",
    "rational.integrate_to_many.panel_evals",
    "rational.integrate_to_many.useful_ratio",
    "rational.integrate_to_many.s",
    "rational.path_integrate.calls",
    "rational.path_integrate.panels",
    "weierstrass.integrals.points",
    "weierstrass.integrals.s",
    "weierstrass.curve.s",
    "meshcheck.triangulate.calls",
    "meshcheck.triangulate.vertices",
    "meshcheck.triangulate.s",
    "meshcheck.parammesh.s",
    "meshcheck.signed_areas.s",
    "meshcheck.boundary_simple.calls",
    "meshcheck.boundary_simple.edge_pairs",
    "meshcheck.in_polygon.cell_edge_pairs",
    "meshcheck.newton.solve_calls",
    "meshcheck.newton.halvings",
    "meshcheck.newton.targets",
    "meshcheck.newton.panel_evals",
    "graphfield.dualize.cells",
    "graphfield.csv_bytes",
    "cli.write_obj.bytes",
    "setup.import.s",
    "setup.import_scipy.s",
    "setup.catalog.s",
    "trace.overhead_s",
    "trace.unattributed_s",
    "trace.spans",
    "trace.coverage_failures",
]

# Span names each workload must reach; a zero call count means a wrapper was
# bypassed (a binding the tracer missed) or the workload no longer runs that
# layer.
EXPECTED = {
    "krust-catalog": [
        "rational.eval", "rational.integrate_to_many", "weierstrass.integrals",
        "weierstrass.curve", "meshcheck.pipeline", "meshcheck.triangulate",
        "meshcheck.parammesh", "meshcheck.report", "meshcheck.signed_areas",
        "meshcheck.boundary_simple", "cli.emit",
    ],
    "lee-resample": [
        "rational.eval", "rational.integrate_to_many", "weierstrass.integrals",
        "weierstrass.datum", "weierstrass.curve", "meshcheck.triangulate",
        "meshcheck.parammesh", "meshcheck.report", "meshcheck.signed_areas",
        "meshcheck.boundary_simple", "meshcheck.in_polygon", "meshcheck.newton",
        "meshcheck.newton.panel", "meshcheck.resample", "graphfield.validate_mask",
        "graphfield.edge_data", "graphfield.tree_integrate", "graphfield.dualize",
    ],
    "artifacts-io": [
        "rational.eval", "rational.integrate_to_many", "rational.path_integrate",
        "weierstrass.integrals", "weierstrass.curve", "meshcheck.triangulate",
        "meshcheck.parammesh", "meshcheck.signed_areas", "graphfield.validate_mask",
        "graphfield.edge_data", "graphfield.tree_integrate", "graphfield.dualize",
        "graphfield.load_field", "graphfield.save_field", "cli.write_obj",
        "cli.write_json", "cli.emit",
    ],
}

# Functions imported into other modules; each must be rebound everywhere.
MIN_BINDINGS = {"integrate_to_many": 2, "integrals_at_many": 2, "krust_pipeline": 2}


def metrics(workload: str, rec: dict, untraced_run_s: float) -> tuple[dict, list[str]]:
    traced = rec["traced"]
    tr = traced["trace"]
    spans, counts, pairs = tr["spans"], tr["counts"], tr["children"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def count(key):
        return counts.get(key, 0)

    itm_calls = calls("rational.integrate_to_many")
    itm_evals = pairs.get("rational.integrate_to_many>rational.eval", 0)
    # panels double from 2, so T evaluations end at a final count of (T + 2) / 2
    useful = (itm_evals + 2 * itm_calls) / (2 * itm_evals) if itm_evals else 0.0
    m = {
        "rational.eval.calls": (calls("rational.eval"), "count"),
        "rational.eval.points": (count("rational.eval.points"), "count"),
        "rational.eval.s": (self_s("rational.eval"), "s"),
        "rational.integrate_to_many.calls": (itm_calls, "count"),
        "rational.integrate_to_many.panel_evals": (itm_evals, "count"),
        "rational.integrate_to_many.useful_ratio": (useful, "ratio"),
        "rational.integrate_to_many.s": (self_s("rational.integrate_to_many"), "s"),
        "rational.path_integrate.calls": (calls("rational.path_integrate"), "count"),
        "rational.path_integrate.panels": (
            pairs.get("rational.path_integrate>rational.eval", 0), "count"),
        "rational.path_integrate.s": (self_s("rational.path_integrate"), "s"),
        "weierstrass.integrals.points": (count("weierstrass.integrals.points"), "count"),
        "weierstrass.integrals.s": (self_s("weierstrass.integrals"), "s"),
        "weierstrass.datum.s": (self_s("weierstrass.datum"), "s"),
        "weierstrass.curve.s": (self_s("weierstrass.curve"), "s"),
        "meshcheck.triangulate.calls": (calls("meshcheck.triangulate"), "count"),
        "meshcheck.triangulate.vertices": (count("meshcheck.triangulate.vertices"), "count"),
        "meshcheck.triangulate.s": (self_s("meshcheck.triangulate"), "s"),
        "meshcheck.parammesh.s": (self_s("meshcheck.parammesh"), "s"),
        "meshcheck.report.s": (self_s("meshcheck.report"), "s"),
        "meshcheck.signed_areas.s": (self_s("meshcheck.signed_areas"), "s"),
        "meshcheck.boundary_simple.calls": (calls("meshcheck.boundary_simple"), "count"),
        "meshcheck.boundary_simple.s": (self_s("meshcheck.boundary_simple"), "s"),
        "meshcheck.boundary_simple.edge_pairs": (
            count("meshcheck.boundary_simple.edge_pairs"), "count"),
        "meshcheck.in_polygon.s": (self_s("meshcheck.in_polygon"), "s"),
        "meshcheck.in_polygon.cell_edge_pairs": (
            count("meshcheck.in_polygon.cell_edge_pairs"), "count"),
        "meshcheck.newton.solve_calls": (calls("meshcheck.newton"), "count"),
        "meshcheck.newton.halvings": (count("meshcheck.newton.halvings"), "count"),
        "meshcheck.newton.targets": (count("meshcheck.newton.targets"), "count"),
        "meshcheck.newton.panel_evals": (
            pairs.get("meshcheck.newton>meshcheck.newton.panel", 0), "count"),
        "meshcheck.newton.s": (self_s("meshcheck.newton", "meshcheck.newton.panel"), "s"),
        "meshcheck.resample.s": (self_s("meshcheck.resample"), "s"),
        "graphfield.validate_mask.s": (self_s("graphfield.validate_mask"), "s"),
        "graphfield.edge_data.s": (self_s("graphfield.edge_data"), "s"),
        "graphfield.tree_integrate.s": (self_s("graphfield.tree_integrate"), "s"),
        "graphfield.dualize.cells": (count("graphfield.dualize.cells"), "count"),
        "graphfield.load_field.s": (self_s("graphfield.load_field"), "s"),
        "graphfield.save_field.s": (self_s("graphfield.save_field"), "s"),
        "graphfield.csv_bytes": (count("graphfield.csv_bytes"), "B"),
        "cli.write_obj.s": (self_s("cli.write_obj"), "s"),
        "cli.write_obj.bytes": (count("cli.write_obj.bytes"), "B"),
        "cli.write_json.s": (self_s("cli.write_json"), "s"),
        "cli.emit.s": (self_s("cli.emit"), "s"),
        "setup.import.s": (traced["setup"]["import_s"], "s"),
        "setup.import_scipy.s": (rec["imports"]["scipy_s"], "s"),
        "setup.catalog.s": (traced["setup"]["catalog_s"], "s"),
        "trace.overhead_s": (traced["run_s"] - untraced_run_s, "s"),
        "trace.unattributed_s": (self_s("item"), "s"),
        "trace.spans": (sum(s["calls"] for s in spans.values()), "count"),
    }
    problems = coverage(workload, traced, tr)
    m["trace.coverage_failures"] = (len(problems), "count")
    return m, problems


def coverage(workload: str, traced: dict, tr: dict) -> list[str]:
    spans, bindings = tr["spans"], tr["bindings"]
    n_items = len(traced["items"])
    out = [f"{target} not found, not traced" for target in tr["missing"]]
    for name in EXPECTED[workload]:
        if spans.get(name, {}).get("calls", 0) == 0:
            out.append(f"{name} never called")
    for attr, least in MIN_BINDINGS.items():
        if bindings.get(attr, 0) < least:
            out.append(f"{attr} rebound in {bindings.get(attr, 0)} modules, expected >= {least}")
    itm = spans.get("rational.integrate_to_many", {}).get("calls", 0)
    ints = spans.get("weierstrass.integrals", {}).get("calls", 0)
    if itm != 3 * ints:
        out.append(f"integrate_to_many called {itm} times, 3 x integrals_at_many = {3 * ints}")
    if spans.get("item", {}).get("calls", 0) != n_items:
        out.append("item spans do not match the items run")
    per_item = {"krust-catalog": "meshcheck.pipeline", "lee-resample": "meshcheck.resample"}
    if workload in per_item:
        got = spans.get(per_item[workload], {}).get("calls", 0)
        if got != n_items:
            out.append(f"{per_item[workload]} called {got} times for {n_items} items")
    return out
