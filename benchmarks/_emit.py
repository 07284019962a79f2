"""Shared benchmark-artifact emission.

One tiny helper owns the results directory and the merge-write, so
every bench module (scheduler, fault tolerance, extraction, ...) emits
``benchmarks/results/BENCH_<module>.json`` the same way: one file per
module, one key per test, merged key-wise so re-running a single
parametrization updates only its entry.
"""

from __future__ import annotations

import json
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def record(module, payload):
    """Merge *payload* (a dict of test-name -> numbers) into the
    module's BENCH json; returns the path written.  Each test's entry
    is stamped with ``usable_cpus``, the CPUs this process may run on,
    so a record says what host it was taken on."""
    usable_cpus = len(os.sched_getaffinity(0))
    payload = {
        name: {**entry, "usable_cpus": usable_cpus} if isinstance(entry, dict) else entry
        for name, entry in payload.items()
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{module}.json"
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}  # a torn previous write; start fresh
    existing.update(payload)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


def jsonable(value):
    """Best-effort coercion for extra_info payloads."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)
