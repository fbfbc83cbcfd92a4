"""Span tracing of maxsurf layers from outside the package.

The tracer replaces selected functions with timing wrappers. A function is
bound under its name in every module that imported it (integrate_to_many in
rational and weierstrass, krust_pipeline in meshcheck and cli, ...), so each
such module attribute is rebound; methods are replaced on their class. Spans
(name, start, end, parent) are kept in memory and turned into per-layer self
times and counts when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

import numpy as np


def _solve(args, result, counts):
    # _ProjectionWalker.solve(self, target, depth=0); depth > 0 is a halving
    if len(args) > 2 and args[2] > 0:
        counts["meshcheck.newton.halvings"] += 1
    else:
        counts["meshcheck.newton.targets"] += int(np.size(args[1]))


def _add(key, value):
    def measure(args, result, counts):
        counts[key] += int(value(args, result))

    return measure


# (span name, module, attribute, measure or None). Several attributes may
# share one span name; the layer metric is then their summed self time.
TARGETS = [
    ("rational.eval", "maxsurf.rational", "RationalHolomorphic._eval",
     _add("rational.eval.points", lambda a, r: np.size(a[1]))),
    ("rational.integrate_to_many", "maxsurf.rational", "integrate_to_many", None),
    ("rational.path_integrate", "maxsurf.rational", "path_integrate", None),
    ("weierstrass.integrals", "maxsurf.weierstrass", "integrals_at_many",
     _add("weierstrass.integrals.points", lambda a, r: np.size(a[1]))),
    ("weierstrass.datum", "maxsurf.weierstrass", "WeierstrassData.__post_init__", None),
    ("weierstrass.curve", "maxsurf.weierstrass", "IsotropicCurve.__post_init__", None),
    ("weierstrass.curve", "maxsurf.weierstrass", "build_isotropic_maximal", None),
    ("weierstrass.curve", "maxsurf.meshcheck", "_wide_maximal_curve", None),
    ("meshcheck.pipeline", "maxsurf.meshcheck", "krust_pipeline", None),
    ("meshcheck.triangulate", "maxsurf.meshcheck", "triangulate_disk",
     _add("meshcheck.triangulate.vertices", lambda a, r: r.vertices.size)),
    ("meshcheck.parammesh", "maxsurf.meshcheck", "ParamMesh.__post_init__", None),
    ("meshcheck.report", "maxsurf.meshcheck", "_report_from_points", None),
    ("meshcheck.signed_areas", "maxsurf.meshcheck", "_signed_areas", None),
    ("meshcheck.boundary_simple", "maxsurf.meshcheck", "_boundary_simple",
     _add("meshcheck.boundary_simple.edge_pairs", lambda a, r: len(a[0]) ** 2)),
    ("meshcheck.in_polygon", "maxsurf.meshcheck", "_in_polygon",
     _add("meshcheck.in_polygon.cell_edge_pairs", lambda a, r: np.size(a[0]) * len(a[2]))),
    ("meshcheck.newton", "maxsurf.meshcheck", "_ProjectionWalker.solve", _solve),
    ("meshcheck.newton.panel", "maxsurf.meshcheck", "_panel_many", None),
    ("meshcheck.resample", "maxsurf.meshcheck", "resample_graph", None),
    ("graphfield.validate_mask", "maxsurf.graphfield", "_validate_mask", None),
    ("graphfield.edge_data", "maxsurf.graphfield", "_EdgeData.__init__", None),
    ("graphfield.tree_integrate", "maxsurf.graphfield", "_tree_integrate", None),
    ("graphfield.dualize", "maxsurf.graphfield", "_dualize",
     _add("graphfield.dualize.cells", lambda a, r: a[0].mask.sum())),
    ("graphfield.load_field", "maxsurf.graphfield", "load_field",
     _add("graphfield.csv_bytes", lambda a, r: os.path.getsize(a[0]))),
    ("graphfield.save_field", "maxsurf.graphfield", "save_field",
     _add("graphfield.csv_bytes", lambda a, r: os.path.getsize(a[1]))),
    ("cli.write_obj", "maxsurf.cli", "_write_obj",
     _add("cli.write_obj.bytes", lambda a, r: os.path.getsize(a[0]))),
    ("cli.write_json", "maxsurf.cli", "_write_json", None),
    ("cli.emit", "maxsurf.cli", "_emit", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.bindings: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list = []

    def span(self, name, fn, measure=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if measure is not None:
                measure(args, result, counts)
            return result

        return wrapper

    def install(self):
        for name, modname, attr, measure in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                original = vars(getattr(owner, cls_name, object)).get(meth)
            else:
                original = getattr(owner, attr, None)
            if original is None:  # the layer function was removed or renamed
                self.missing.append(f"{modname}.{attr}")
                continue
            if cls_name:
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, original, self.span(name, original, measure))
                self.bindings[attr] += 1
                continue
            wrapper = self.span(name, original, measure)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "maxsurf"]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
                        self.bindings[attr] += 1

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span around code that is not a wrapped function."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, t0, time.perf_counter(), -1)
            self.stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus counts."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for (name, t0, t1, parent), inner in zip(self.spans, child):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - inner
        return {"spans": out, "counts": dict(self.counts), "children": self._child_counts()}

    def _child_counts(self) -> dict:
        """Number of spans of each name per parent span name, e.g. how many
        rational.eval calls ran directly under integrate_to_many."""
        pairs: Counter = Counter()
        for name, _, _, parent in self.spans:
            if parent >= 0:
                pairs[f"{self.spans[parent][0]}>{name}"] += 1
        return dict(pairs)
