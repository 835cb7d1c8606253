"""Record the benchmark's baseline facts in bench/baseline.json.

    python3 bench/stamp.py

Writes the environment stamp (nproc, CPU model, cache sizes, Python and
numpy versions), each workload's CLI argv and report digest at benchmark
seed 0 (run.py notes when a later run's output bytes differ), the size of
the coupling kernel's first noise block per workload, and the
closed-form coupling error over several seeds, which shows that error to
be bias, not noise.  Other keys already in the file are kept.
"""

from __future__ import annotations

import json
import math
import os
import platform
from pathlib import Path

import numpy as np

import run

CF_SEEDS = (0, 1, 2)

# (n_paths, dim, n_steps) of each workload's coupling experiment.
COUPLING_SIZES = {
    "quickstart": (1000, 1, 10_000),
    "varq-2d": (1000, 2, 1000),
    "closed-form": (100_000, 1, 100),
}


def noise_block_bytes(n_paths: int, dim: int, n_steps: int) -> int:
    """Bytes of the first noise block simulate_coupling draws.

    The kernel draws (live paths) x (n_k steps) x (2 dim) float64 values
    per chunk, with n_k = clamp(6e7 bytes / (live * 2 dim * 8), 16, 256)
    and at most the remaining steps; at the first chunk every path lives.
    """
    row = 2 * dim * 8
    n_k = min(max(16, min(256, int(6e7 / (n_paths * row)))), n_steps)
    return n_paths * n_k * row


def environment() -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = (index / "size").read_text().strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = {}
    for name, wl in run.WORKLOADS.items():
        argv = wl.cli_argv(0, smoke=False)
        op = run.run_op(wl, argv, traced=False, timeout=run.OP_TIMEOUT_S)
        if op.failures:
            raise SystemExit(f"{name}: {'; '.join(op.failures)}")
        size = COUPLING_SIZES.get(name)
        workloads[name] = {
            "why": why[name], "argv": argv, "digest": op.digest,
            "noise_block_bytes": noise_block_bytes(*size) if size else 0}

    cf = run.WORKLOADS["closed-form"]
    n_paths = COUPLING_SIZES["closed-form"][0]
    errors = {}
    for seed in CF_SEEDS:
        op = run.run_op(cf, cf.cli_argv(seed, smoke=False), traced=False,
                        timeout=run.OP_TIMEOUT_S)
        if op.failures:
            raise SystemExit(f"closed-form seed {seed}: {op.failures}")
        errors[str(seed)] = op.abs_err
    exact = run.closed_form_p(run.CF_D0, run.CF_RADIUS, run.CF_MU, run.CF_T)
    closed_form = {
        "exact_p": exact, "abs_err_by_seed": errors,
        "standard_error": math.sqrt(exact * (1.0 - exact) / n_paths)}

    path = run.BENCH / "baseline.json"
    doc = json.loads(path.read_text("utf-8")) if path.is_file() else {}
    doc.update({"environment": environment(), "workloads": workloads,
                "closed_form": closed_form})
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
