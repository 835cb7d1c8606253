"""liouville-lab benchmark: end-to-end and per-layer metrics of CLI runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--smoke]

Each operation is one ``python -m liouville_lab <argv>`` invocation in a
fresh child process (bench/child.py), run one at a time: a closed loop with
a single client, so at most this process and one child are alive.  A run
repeats the workload's operation, with the CLI seed ``workload seed +
N``, until the next operation would end after S seconds (at least two
operations).  Every operation is checked: exit code 0, the expected
verdicts, and report bytes identical to the run's first operation.
Failed operations are counted, never retried.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (child start to package imported and argv parsed, median),
``run_s_max`` (subcommand to verdict on disk, slowest operation of the
run: with a handful of operations per run that is the highest percentile
the count supports) and ``peak_rss_mb`` (the child's max RSS, median).
The table above the result line also prints the median ``run_s`` and the
error rate ``failed / attempted``.  Neither is a gated metric: the median
moves with how long the machine's shared CPUs ran slow during the run,
and the error rate is 0 whenever the benchmark is usable at all; the
result line's ``failed`` count gates correctness instead.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of bench/layers.py plus ``trace.run_s_traced`` and
``trace.run_s_untraced``, whose difference is the tracing overhead.  A
traced operation fails when a span its workload must reach never fired.

``--workload all`` runs every workload with both settings and prints all
metrics; ``--smoke`` shrinks every workload to a tiny size so that the
whole set, names and units included, is checked in seconds.

The last line of standard output is the JSON result.  Scratch files go
to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ".bench_work/out"           # relative: it is part of report.json
OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0

# The closed-form workload: two driftless unit-diffusion particles under
# reflection coupling.  Their difference is a Brownian motion with
# variance 4*mu*t, so it reaches the coupling radius r from d0 by time T
# with probability erfc((d0 - r) / sqrt(8 mu T)) (reflection principle).
CF_D0, CF_RADIUS, CF_MU, CF_T = 1.0, 1e-3, 0.5, 1.0
# The estimator's known O(dt) bias at dt = 0.01 is about 0.034 (see
# bench/baseline.json); the gate allows 0.05 for it plus four standard
# errors of sampling noise, so a clearly worse estimator fails.
CF_BIAS_ALLOWANCE = 0.05


def closed_form_p(d0: float, r: float, mu: float, t: float) -> float:
    """Probability that the coupled pair meets by time t (see CF_D0)."""
    return math.erfc((d0 - r) / math.sqrt(8.0 * mu * t))


def _expect(verdict: str, oracle: Optional[bool] = None,
            coupling: bool = False) -> Callable:
    def check(op_dir: Path) -> Tuple[List[str], float]:
        rep = json.loads((ROOT / OUT / "report.json").read_text("utf-8"))
        bad = []
        got = rep["criterion"]["verdict"]
        if got != verdict:
            bad.append(f"criterion verdict {got}, expected {verdict}")
        if rep["consistency"] != "Consistent":
            bad.append(f"consistency {rep['consistency']}")
        if oracle is not None and (rep["oracle"] or {}).get("verdict") \
                is not oracle:
            bad.append(f"oracle verdict {rep['oracle']}, expected {oracle}")
        if coupling and rep["coupling"] is None:
            bad.append("no coupling section")
        return bad, 0.0
    return check


def _check_closed_form(op_dir: Path) -> Tuple[List[str], float]:
    doc = json.loads((op_dir / "stdout").read_text(encoding="utf-8"))
    p, n = doc["p_couple"], doc["n_paths"]
    err = abs(p - closed_form_p(CF_D0, CF_RADIUS, CF_MU, CF_T))
    tol = CF_BIAS_ALLOWANCE + 4.0 * math.sqrt(p * (1.0 - p) / n)
    return ([] if err <= tol else
            [f"|p - exact| = {err:.5f} exceeds {tol:.5f}"]), err


@dataclasses.dataclass(frozen=True)
class Workload:
    argv: Tuple[str, ...]         # CLI arguments apart from --seed
    seed: int                     # CLI seed at benchmark seed 0
    spans: Tuple[str, ...]        # spans a traced operation must reach
    smoke: Tuple[str, ...]        # flags appended in smoke mode
    check: Callable               # op dir -> (failures, closed-form error)

    def cli_argv(self, seed: int, smoke: bool) -> List[str]:
        return [*self.argv, "--seed", str(self.seed + seed),
                *(self.smoke if smoke else ())]


_CRITERION_SMOKE = ("--radii-points", "12", "--pairs", "4",
                    "--ellipticity-samples", "500")
_MODULUS_SMOKE = ("--modulus-points", "8", "--modulus-pairs", "4")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "quickstart": Workload(
        ("full", "--field", "log_example", "--params", "0.25", "--mu", "0.5",
         "--x0", "1.0", "--y0", "-1.0", "--output", OUT), 1,
        ("ellipticity", "dispersion", "modulus", "build_g", "escape",
         "oracle", "coupling", "trajectory", "emit"),
        _CRITERION_SMOKE + _MODULUS_SMOKE + ("--n-paths", "50",
                                             "--t-max", "1"),
        _expect("LiouvilleGuaranteed", oracle=True, coupling=True)),
    "criterion-3d": Workload(
        ("criterion", "--field", "radial_expand", "--dim", "3",
         "--output", OUT), 1,
        ("ellipticity", "dispersion", "emit"),
        _CRITERION_SMOKE,
        _expect("Inconclusive")),
    "varq-2d": Workload(
        ("full", "--field", "var_q_const_b", "--dim", "2", "--n-paths",
         "1000", "--t-max", "1", "--output", OUT), 1,
        ("ellipticity", "dispersion", "modulus", "build_g", "escape",
         "coupling", "trajectory", "emit"),
        _CRITERION_SMOKE + _MODULUS_SMOKE + ("--n-paths", "50",
                                             "--t-max", "0.1"),
        _expect("LiouvilleGuaranteed", coupling=True)),
    "closed-form": Workload(
        ("couple", "--field", "zero", "--mu", str(CF_MU), "--x0", "0.5",
         "--y0", "-0.5", "--t-max", str(CF_T), "--dt", "0.01",
         "--couple-radius", str(CF_RADIUS), "--n-paths", "100000"), 11,
        ("ellipticity", "coupling"),
        ("--n-paths", "5000"),
        _check_closed_form),
}
COUNTERS_REQUIRED = ("drift", "diffusion", "substream")


@dataclasses.dataclass
class Op:
    traced: bool
    failures: List[str]
    setup_s: Optional[float] = None
    run_s: Optional[float] = None
    rss_mb: float = 0.0
    digest: str = ""
    abs_err: float = 0.0
    layer: Optional[dict] = None


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child; return its resource usage, or None on a timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None
        time.sleep(0.005)


def _digest(op_dir: Path) -> str:
    h = hashlib.sha256((op_dir / "stdout").read_bytes())
    out = ROOT / OUT
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_op(wl: Workload, argv: List[str], traced: bool,
           timeout: float) -> Op:
    """One CLI invocation in a fresh child process, checked."""
    op_dir = WORK / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    shutil.rmtree(ROOT / OUT, ignore_errors=True)
    op_dir.mkdir(parents=True)
    timings_path, trace_path = op_dir / "timings.json", op_dir / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "child.py"), str(timings_path),
           str(trace_path) if traced else "-", "--", *argv]
    with open(op_dir / "stdout", "wb") as so, \
            open(op_dir / "stderr", "wb") as se:
        env["BENCH_SPAWN_T"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se)
        try:
            usage = _wait(proc, timeout)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    op = Op(traced=traced, failures=[])
    if usage is None:
        op.failures.append(f"timed out after {timeout:g} s")
        return op
    op.rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        err = (op_dir / "stderr").read_text(errors="replace").strip()
        op.failures.append(f"exit code {proc.returncode}: {err[-300:]}")
        return op
    timings = json.loads(timings_path.read_text(encoding="utf-8"))
    if not timings["package"].startswith(str(SRC.resolve()) + os.sep):
        op.failures.append(f"imported {timings['package']}, not {SRC}")
        return op
    op.setup_s, op.run_s = timings["setup_s"], timings["run_s"]
    op.digest = _digest(op_dir)
    try:
        bad, op.abs_err = wl.check(op_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        bad = [f"unreadable output: {exc!r}"]
    op.failures += bad
    if traced:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        silent = layers.missing(trace, wl.spans, COUNTERS_REQUIRED)
        if silent:
            op.failures.append("traced layers never reached: "
                               + ", ".join(silent))
        op.layer = layers.per_layer(trace, op.run_s)
        out = ROOT / OUT
        op.layer["report.bytes_written"] = sum(
            p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    return op


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool) -> List[Op]:
    """Repeat the workload's operation while the next one, if it took as
    long as the longest so far, would still end within ``seconds``."""
    argv = wl.cli_argv(seed, smoke)
    ops: List[Op] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        ops.append(run_op(wl, argv, trace and len(ops) % 2 == 1,
                          max(1.0, min(OP_TIMEOUT_S, RUN_LIMIT_S
                                       - (began - start)))))
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(ops) >= 2 and elapsed + longest > min(seconds, RUN_LIMIT_S):
            break
    first = ops[0].digest
    for op in ops[1:]:
        if op.digest and first and op.digest != first:
            op.failures.append("report bytes differ from the run's first "
                               "operation")
    return ops


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def metric_values(ops: List[Op], trace: bool) -> dict:
    timed = [op for op in ops if op.run_s is not None]
    if not trace:
        return {
            "setup_s": _median(op.setup_s for op in timed),
            "run_s_max": max((op.run_s for op in timed), default=None),
            "peak_rss_mb": _median(op.rss_mb for op in timed),
        }
    traced = [op for op in timed if op.traced and op.layer is not None]
    if not traced:
        return dict.fromkeys(declared_units(True))
    values = {name: _median(op.layer[name] for op in traced)
              for name in traced[0].layer}
    values["coupling_sim.closed_form_abs_err"] = _median(
        op.abs_err for op in timed)
    values["trace.run_s_traced"] = _median(op.run_s for op in traced)
    values["trace.run_s_untraced"] = _median(
        op.run_s for op in timed if not op.traced)
    return values


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values: dict, trace: bool) -> dict:
    """Attach BENCHMARK.json's units; names must match it exactly."""
    units = declared_units(trace)
    if set(values) != set(units):
        raise SystemExit(
            "metric names differ from BENCHMARK.json: "
            f"unexpected {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def _baseline_digest(name: str) -> Optional[str]:
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc.get("workloads", {}).get(name, {}).get("digest")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    wl = WORKLOADS[name]
    ops = measure(wl, seed, seconds, trace, smoke)
    for i, op in enumerate(ops):
        status = "ok" if not op.failures else "FAIL " + "; ".join(op.failures)
        print(f"  op {i} traced={int(op.traced)} setup_s={op.setup_s} "
              f"run_s={op.run_s} rss_mb={op.rss_mb:.1f} "
              f"digest={op.digest[:16]} {status}", file=sys.stderr)
    failed = sum(1 for op in ops if op.failures)
    metrics = with_units(metric_values(ops, trace), trace)
    print(f"{name} seed={seed} trace={int(trace)} smoke={int(smoke)} "
          f"ops={len(ops)}")
    for m, v in metrics.items():
        print(f"  {m:40s} {v['value']!s:>24} {v['unit']}")
    if not trace:
        run_s = _median(op.run_s for op in ops)
        print(f"  {'run_s (median, not gated)':40s} {run_s!s:>24} s")
    print(f"  {'error_rate':40s} {failed / len(ops):>24} failed/attempted")
    recorded = _baseline_digest(name)
    if seed == 0 and not smoke and recorded and ops[0].digest \
            and ops[0].digest != recorded:
        print(f"  note: output bytes differ from bench/baseline.json "
              f"({ops[0].digest[:16]} vs {recorded[:16]})")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, smoke: bool) -> dict:
    """Every workload, untraced then traced; every metric must be exercised."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, seed, seconds, trace, smoke)
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for m, v in res["metrics"].items():
                total["metrics"][f"{name}/{m}"] = v
    for m in declared_units(True):
        if not any(total["metrics"][f"{name}/{m}"]["value"]
                   for name in WORKLOADS):
            print(f"per-layer metric {m} is 0 on every workload",
                  file=sys.stderr)
            total["correct"] = False
    return total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "liouville_lab" / "cli.py").is_file():
        print(f"no liouville_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        seconds = spec["run_seconds"]
    if args.workload == "all":
        result = run_all(args.seed, seconds, args.smoke)
    else:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
