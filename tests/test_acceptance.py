"""Top-level acceptance gate: every built-in selftest criterion must pass.

Each criterion owns its tolerance and prints one pass/fail line through the
CLI; here the same checks run under pytest so the suite exercises exactly
what `stratmc selftest` ships.  Criterion 4 pins the reference angle table,
including one printed value our direction engines reproducibly disagree
with; that check is kept at the published tolerance rather than widened,
so it fails until the discrepancy is resolved.
"""
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
