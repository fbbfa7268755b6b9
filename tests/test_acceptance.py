"""Top-level acceptance gate: every built-in selftest criterion must pass.

Each criterion owns its tolerance and prints one pass/fail line through the
CLI; here the same checks run under pytest so the suite exercises exactly
what `stratmc selftest` ships.  Criterion 4 pins the reference angle table,
including one printed value our direction engines reproducibly disagree
with; that check is kept at the published tolerance rather than widened,
so it fails until the discrepancy is resolved.
"""
import subprocess

import numpy as np
import pytest

from stratmc import acceptance, stratify
from stratmc.experiment import load_config, run_experiment


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"{c.number:02d}-{c.slug}" for c in acceptance.CRITERIA],
)
def test_criterion(criterion):
    ok, detail = criterion.run()
    assert ok, detail


def test_determinism_config_runs_threaded_paths(tmp_path, monkeypatch):
    # criterion 9 compares a process pinned to one core with unpinned ones,
    # which covers the threaded paths only while a stratified stage and the
    # LHS cell each span more than one chunk
    spans = {}
    real = stratify._map_chunks

    def spy(chunk, n_chunks):
        caller = chunk.__qualname__.split(".")[0]
        spans[caller] = max(spans.get(caller, 0), n_chunks)
        return real(chunk, n_chunks)
    monkeypatch.setattr(stratify, "_map_chunks", spy)
    ini = tmp_path / "determinism.ini"
    ini.write_text(acceptance._DETERMINISM_INI, encoding="utf-8")
    run_experiment(load_config(str(ini)))
    assert spans["stratified_estimate"] >= 2 and spans["lhs_estimate"] >= 2, spans


def test_criterion_7_prints_its_margin():
    # every instance has var_opt below var_prop, so the printed worst case
    # is a real, negative margin
    ok, detail = acceptance._criterion_7()
    assert ok
    margin = float(detail.split("= ")[1].split()[0])
    assert margin < 0.0, detail


def test_criterion_over_budget_fails():
    ok, detail = acceptance.Criterion(99, "slow", 0.0,
                                      lambda: (True, "done")).run()
    assert not ok
    assert "exceeded 0s budget" in detail


@pytest.mark.parametrize("returncode, stdout, message", [
    (1, "", "stratmc experiment exited 1"),
    (0, "method,price\n", "csv differs across runs"),
])
def test_criterion_9_fails(monkeypatch, returncode, stdout, message):
    # every fresh process is replaced by one that exits 1, or by one that
    # prints a table other than the in-process runs'
    monkeypatch.setattr(
        acceptance.subprocess, "run",
        lambda args, **kwargs: subprocess.CompletedProcess(
            args, returncode, stdout=stdout, stderr=""))
    ok, detail = acceptance._criterion_9()
    assert not ok
    assert message in detail


def test_criterion_2_catches_the_orthogonal_weight(monkeypatch):
    # the naive weight 1 / (number of boxes) treats the two 45-degree
    # directions as if they were orthogonal; the sampler's weights correct it
    real = acceptance.sample_strata

    def naive(dirs, spec, strata, stream):
        z, w = real(dirs, spec, strata, stream)
        return z, np.full_like(w, 1.0 / spec.total)
    monkeypatch.setattr(acceptance, "sample_strata", naive)
    ok, detail = acceptance._criterion_2()
    assert not ok
    checks = detail.split("; ")
    assert len(checks) == 4, detail
    assert all(check.startswith("failed: ") for check in checks), detail
