"""maxsurf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Workloads (see NOTES.md for why each exists and what it predicts):

    krust-catalog  verify-krust --mesh-n 128 on each of the 10 catalog data
    lee-resample   lee_equivalence_check(datum, 0.01) on each catalog datum
    artifacts-io   export (n = 256), dualize-graph on a seeded helicoid slab,
                   identities --seed N

Every pass runs in a fresh Python process that imports maxsurf.cli, builds
the catalog (the set-up), runs the workload's items in sequence and checks
their outputs. Passes repeat while the next one is expected to end within
--seconds; at least one runs. Before each pass, PROBES_PER_PASS processes
time the set-up alone, and more such probes fill the rest of the window.
With --trace 1 one more pass runs with every layer function wrapped in a
span, and the per-layer metrics come from it.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
The lines before it print every metric by name with its unit, the output
checks, and the environment record. The full record of the run is written
to perfbench/.work/<workload>/run-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_PASS = 2
# Every process the run starts must end before this many seconds have passed.
RUN_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def _env_for_child() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Runner:
    def __init__(self, workload: str, seed: int, size: str, deadline: float):
        self.workload, self.seed, self.size, self.deadline = workload, seed, size, deadline
        self.work = BENCH / ".work" / workload
        self.env = _env_for_child()
        self.grid: dict = {}

    def prepare(self):
        self.clean()
        self.work.mkdir(parents=True, exist_ok=True)
        if self.workload == "artifacts-io":
            self.grid = workloads.helicoid_input(self.rel(self.work), self.seed, self.size)

    def clean(self):
        workloads.clear_outputs(self.work)
        shutil.rmtree(self.work / "input", ignore_errors=True)

    def rel(self, path: Path) -> Path:
        # children run in ROOT; relative paths keep outputs identical between
        # checkouts, so output hashes compare across machines for one seed
        return path.relative_to(ROOT)

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise ChildFailed("run time limit reached")
        return left

    def child(self, mode: str, trace: bool = False) -> dict:
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        spec = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "size": self.size,
            "trace": trace,
            "grid": self.grid,
            "workdir": str(self.rel(self.work)),
            "result": str(result),
            "spans": str(self.work / "spans.json"),
        }
        cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self._timeout()
            )
        except subprocess.TimeoutExpired as e:
            raise ChildFailed(f"{mode} process killed after {e.timeout:.0f} s") from e
        if proc.returncode != 0 or not result.exists():
            raise ChildFailed(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result.read_text())

    def import_profile(self) -> dict:
        """Import time of scipy from `python -X importtime` of the same import.

        A module's children are listed before it, one indent level deeper.
        scipy's share is the cumulative time of each scipy module imported
        from outside scipy, which includes what scipy pulls in (numpy.f2py).
        """
        cmd = [sys.executable, "-X", "importtime", "-c", "import maxsurf.cli"]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self._timeout()
        )
        if proc.returncode != 0:
            raise ChildFailed(f"import profile exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        rows = []  # (indent, name, cumulative us)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
        scipy_us = 0
        for k, (indent, name, cum) in enumerate(rows):
            parent = next((r[1] for r in rows[k + 1:] if r[0] < indent), "")
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                scipy_us += cum
        return {"scipy_s": scipy_us / 1e6}


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _failures(passes: list[dict]) -> list[str]:
    out = []
    for k, p in enumerate(passes):
        out += [f"pass {k} {it['name']}: {it['error']}" for it in p["items"] if it["error"]]
    return out


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    runner.prepare()
    runner.child("setup")  # warm-up: compiles bytecode on a fresh checkout
    setups: list[dict] = []
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        # probes sit between passes, so their median spans the whole run
        t0 = time.monotonic()
        setups += [runner.child("setup")["setup"] for _ in range(PROBES_PER_PASS)]
        passes.append(runner.child("pass"))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            break
    # spend what is left of the window on more set-up samples
    while True:
        t0 = time.monotonic()
        setups.append(runner.child("setup")["setup"])
        if time.monotonic() - start + (time.monotonic() - t0) > seconds:
            break
    traced = runner.child("pass", trace=True) if trace else None
    imports = runner.import_profile() if trace else None
    return {"setups": setups, "passes": passes, "traced": traced, "imports": imports}


def _item_seconds(rec: dict) -> list[float]:
    return [it["seconds"] for p in rec["passes"] for it in p["items"]]


def end_to_end(rec: dict) -> dict:
    passes = rec["passes"]
    setup = [s["setup_s"] for s in rec["setups"]] + [p["setup"]["setup_s"] for p in passes]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "item_s.p95": (_quantile(_item_seconds(rec), 95), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }


def printed_only(workload: str, rec: dict, failed: int, attempted: int) -> dict:
    """End-to-end metrics that are printed but not in BENCHMARK.json (see NOTES.md)."""
    out = {
        "item_s.p50": (_quantile(_item_seconds(rec), 50), "s"),
        "fail_ratio": (failed / attempted, "1"),
    }
    if workload == "artifacts-io":  # the latency of each command
        for k, it in enumerate(rec["passes"][0]["items"]):
            key = it["name"].replace("-", "_") + "_s"
            out[key] = (statistics.median(p["items"][k]["seconds"] for p in rec["passes"]), "s")
    return out


def _print_metrics(title: str, workload: str, metrics: dict):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:14s} {name:42s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny problem sizes, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "maxsurf" / "__init__.py").is_file():
        print(f"error: no maxsurf package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    size = "smoke" if args.smoke else "full"
    runner = Runner(args.workload, args.seed, size, time.monotonic() + RUN_LIMIT_S)
    try:
        rec = measure(runner, args.seconds, bool(args.trace))
    except ChildFailed as e:
        # the program under test could not even complete a pass
        print(f"error: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    passes = rec["passes"] + ([rec["traced"]] if rec["traced"] else [])
    attempted = sum(len(p["items"]) for p in passes)
    failures = _failures(passes)
    failed_items = {(k, it["name"]) for k, p in enumerate(passes) for it in p["items"] if it["error"]}
    # byte-determinism: every pass of one run, traced or not, hashes the same
    reference = passes[0]["hashes"]
    for k, p in enumerate(passes[1:], start=1):
        if p["hashes"] != reference:
            bad = sorted(key for key in set(p["hashes"]) | set(reference)
                         if p["hashes"].get(key) != reference.get(key))
            failures.append(f"pass {k} outputs differ from pass 0: {bad}")
            failed_items |= {(k, key.split(":")[0]) for key in bad}
    failed = len(failed_items)

    e2e = end_to_end(rec)
    _print_metrics(f"end-to-end, {len(rec['passes'])} untraced passes", args.workload, e2e)
    _print_metrics("end-to-end, printed only", args.workload, printed_only(args.workload, rec, failed, attempted))

    layer = coverage = None
    if rec["traced"]:
        untraced_run_s = e2e["run_s"][0]
        layer, coverage = layers.metrics(args.workload, rec, untraced_run_s)
        _print_metrics("per-layer, traced pass", args.workload, layer)
        print(f"# coverage checks: {'all passed' if not coverage else coverage}")

    env = {
        **passes[0]["env"],
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(),
        "seed": args.seed,
        "workload": args.workload,
        "size": size,
    }
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# outputs sha256 {json.dumps(reference, sort_keys=True)}")
    for line in failures:
        print(f"# FAILED {line}")
    record = {"env": env, "failures": failures, "coverage": coverage, **rec}
    out = BENCH / ".work" / args.workload / f"run-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    runner.clean()

    chosen = layer if args.trace else e2e
    names = layers.PER_LAYER if args.trace else list(e2e)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": chosen[k][0], "unit": chosen[k][1]} for k in names},
    }
    print(json.dumps(result))
    return 0


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


if __name__ == "__main__":
    sys.exit(main())
