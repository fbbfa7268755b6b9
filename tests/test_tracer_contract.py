"""The benchmark's tracer still finds every function it times.

bench/tracer.py wraps stratmc functions by name and drops a per-layer
metric when its target is gone or its hook no longer fits the call.  This
test installs the tracer around one run of each benchmark workload at the
tiny size and checks that no metric goes absent, so a rename in src/ fails
here rather than only in the benchmark's own, slower test.

The tracer assumes one thread, and the benchmark's traced test compares
the layers' summed self time with the run's wall time, so the same runs
must start no helper thread at the tiny size, whatever the core count.
"""
import os
import sys
from pathlib import Path

import pytest

from stratmc import stratify
from stratmc.experiment import load_config, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS, ini_texts  # noqa: E402

# tracer counts each workload must move: the path map and payoff it prices on
WORK = {
    "bs-asian-table": ("bsg_elems", "lhs_elems", "strat_draws"),
    "cir-asian-table": ("cir_elems", "eval_draws", "lhs_elems", "strat_draws"),
    "many-strata": ("bsg_elems", "strat_draws"),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracer_targets_are_present(workload, tmp_path, monkeypatch):
    def no_pool(*args):
        raise AssertionError("a tiny run started helper threads")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(stratify, "ThreadPoolExecutor", no_pool)
    configs = []
    for i, text in enumerate(ini_texts(workload, seed=7, size="tiny")):
        ini = tmp_path / f"{i}.ini"
        ini.write_text(text, encoding="utf-8")
        configs.append(load_config(str(ini)))
    rec = tracer.Tracer()
    rec.install()
    try:
        for config in configs:
            run_experiment(config)
    finally:
        rec.uninstall()
    assert rec.broken == set()
    assert tracer.absent_metrics(rec) == set()
    assert all(rec.counts[name] > 0 for name in WORK[workload]), rec.counts
