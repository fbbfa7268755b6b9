"""Fast test of the benchmark itself: every workload at the tiny size.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


def _assert_units(result: dict, declared: list[dict]):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_workloads_match_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    _assert_units(_result(_bench(workload, 0)), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs(workload):
    first, second = (_result(_bench(workload, 1)) for _ in range(2))
    for result in (first, second):
        _assert_units(result, SPEC["per_layer"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_s = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert 0.0 < self_s <= metrics["trace.wall_s"]
    for name in tracer.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("many-strata", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _table(rows):
    lines = [run.HEADER]
    for method, price, variance in rows:
        lines.append(f"{method},-,asian-basket,50,,{price!r},{variance!r},1,1000,1,7")
    return "\n".join(lines) + "\n"


def test_gate_flags_faulty_cells():
    gate = run.Gate(cells=[3], seed=7)
    good = _table([("mc", 5.0, 36.0), ("la", 5.01, 0.5), ("lhs", 4.99, 1.0)])
    assert gate.check([good]) is not None and gate.failed == 0
    # la sits 7.7 combined standard errors from MC; lhs is not finite
    far = _table([("mc", 5.0, 1.0), ("la", 5.3, 0.5), ("lhs", float("nan"), 1.0)])
    gate = run.Gate(cells=[3], seed=7)
    gate.check([far])
    assert gate.failed == 2
    gate = run.Gate(cells=[3], seed=7)
    gate.check([good])
    gate.check([good.replace("5.01", "5.02")])
    assert (gate.attempted, gate.failed) == (6, 3)
    gate = run.Gate(cells=[3], seed=7)
    gate.check([good.replace("method,", "name,", 1)])
    assert gate.failed == 3


def test_host_speed_converts_a_busy_block():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.samples) >= 4
    whole = host.nominal_s(t0, t1)
    halves = host.nominal_s(t0, (t0 + t1) / 2) + host.nominal_s((t0 + t1) / 2, t1)
    assert whole > 0.0 and abs(halves - whole) < 0.05 * whole
