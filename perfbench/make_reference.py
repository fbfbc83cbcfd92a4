"""Regenerate perfbench/reference.json, the output values the checks compare to.

    PYTHONPATH=src python3 perfbench/make_reference.py

The committed file was produced from the seed engine. Regenerate it only in a
change that is meant to move the outputs, and say so in CHANGES.md: the
benchmark's correctness checks are only as strong as this file.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads


def _krust(size: str) -> dict:
    out = {}
    for name, fn in workloads.items("krust-catalog", size, 0, Path(".")):
        rep = json.loads(fn()["stdout"])["reports"][name]
        out[name] = {side: rep[side] for side in ("domain_report", "conjugate_report")}
    return out


def _lee(size: str) -> dict:
    from maxsurf.catalog import get
    from maxsurf.meshcheck import lee_equivalence_check

    h = workloads.SIZES[size]["lee_h"]
    return {
        name: {
            "gap": lee_equivalence_check(get(name), h),
            "gap_2h": lee_equivalence_check(get(name), 2 * h),
        }
        for name in workloads.catalog_names(size)
    }


def main():
    ref = {size: {"krust": _krust(size), "lee": _lee(size)} for size in workloads.SIZES}
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
