"""One fresh process of the benchmark: set-up alone, or set-up plus one pass.

    python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, size, working directory, result file and
whether the pass is traced. Set-up is the import of maxsurf.cli plus the
catalog build; the pass runs the workload's items in sequence, then checks
and hashes their outputs outside the timed region. The result is written as
JSON to the result file.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup() -> dict:
    t0 = time.perf_counter()
    import maxsurf.cli  # noqa: F401
    from maxsurf.catalog import catalog

    t1 = time.perf_counter()
    catalog()
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "import_s": t1 - t0, "catalog_s": t2 - t1}


def _env() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _run_pass(spec: dict) -> dict:
    import workloads

    workload, size, workdir = spec["workload"], spec["size"], Path(spec["workdir"])
    grid = spec["grid"]
    todo = workloads.items(workload, size, spec["seed"], workdir)
    workloads.clear_outputs(workdir)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs, seconds = [], []
    t_pass = time.perf_counter()
    for name, fn in todo:
        t0 = time.perf_counter()
        try:
            with tracer.root("item") if tracer else contextlib.nullcontext():
                out = fn()
            err = None
        except Exception:  # a crashing item is a failed item, the pass goes on
            out, err = None, traceback.format_exc(limit=3)
        seconds.append(time.perf_counter() - t0)
        outputs.append((name, out, err))
    run_s = time.perf_counter() - t_pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    items, hashes = [], {}
    for (name, out, err), sec in zip(outputs, seconds):
        if err is None:
            try:
                err = workloads.check(workload, name, out, size, workdir, grid)
                hashes.update(workloads.output_hashes(workload, name, out, workdir))
            except Exception:
                err = traceback.format_exc(limit=3)
        items.append({"name": name, "seconds": sec, "error": err})
    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb, "items": items, "hashes": hashes}
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["bindings"] = dict(tracer.bindings)
        result["trace"]["missing"] = tracer.missing
        with open(spec["spans"], "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return result


def main(spec: dict):
    # set-up first: nothing of numpy or maxsurf is imported before it is timed
    result = {"setup": _setup()}
    if spec["mode"] == "pass":
        result.update(_run_pass(spec))
        result["env"] = _env()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
