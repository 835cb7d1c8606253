"""Tests of the benchmark itself.

    python3 -m pytest bench

They run the benchmark in its smoke mode (tiny workloads, seconds in
total) and keep their scratch files under .bench_work/ in the checkout.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def test_closed_form_reference_matches_mpmath():
    args = (run.CF_D0, run.CF_RADIUS, run.CF_MU, run.CF_T)
    with mpmath.workdps(50):
        d0, r, mu, t = (mpmath.mpf(v) for v in args)
        exact = mpmath.erfc((d0 - r) / mpmath.sqrt(8 * mu * t))
        # first-passage density of a Brownian motion with variance 4*mu*s
        # through the level d0 - r, integrated up to t
        a, c = d0 - r, 4 * mu
        hit = mpmath.quad(lambda s: a / mpmath.sqrt(2 * mpmath.pi * c * s**3)
                          * mpmath.exp(-a * a / (2 * c * s)), [0, t])
        assert abs(hit - exact) < 1e-20
    assert abs(run.closed_form_p(*args) - float(exact)) < 1e-15
    assert abs(float(exact) - 0.47994) < 1e-5


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_smoke_prints_every_metric_with_its_unit():
    proc, result = _bench("--workload", "all", "--smoke", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0, proc.stderr
    for wl in SPEC["workloads"]:
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = result["metrics"][f"{wl['name']}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        for m in SPEC["end_to_end"]:
            assert result["metrics"][f"{wl['name']}/{m['name']}"]["value"] > 0
    for m in SPEC["per_layer"]:
        assert m["name"] in proc.stdout


def test_result_line_has_exactly_the_declared_metrics():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc, result = _bench("--workload", "closed-form", "--seed", "3",
                              "--seconds", "1", "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 2
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_traced_op_fails_when_a_required_span_never_fires():
    wl = run.WORKLOADS["criterion-3d"]
    silent = dataclasses.replace(wl, spans=wl.spans + ("oracle",))
    op = run.run_op(silent, wl.cli_argv(0, smoke=True), traced=True,
                    timeout=60)
    assert any("span oracle" in f for f in op.failures), op.failures
    assert layers.missing({"spans": [], "counts": dict.fromkeys(
        ("drift_calls",), 0)}, ("emit",), ("drift",)) == \
        ["span emit", "counter drift"]


def test_fails_without_the_program_sources():
    stripped = ROOT / ".bench_work" / "tests" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH, stripped / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    proc, result = _bench("--workload", "quickstart", "--seed", "0",
                          "--seconds", "1", root=stripped)
    assert proc.returncode != 0
    assert result is None
