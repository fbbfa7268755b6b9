"""Smoke test: the narrative demos and the README's quick start, which use
the library's public API, run to completion; the single-contract demo
configs reproduce their recorded tables byte for byte."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratmc import parse_csv

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
# tables recorded with `stratmc experiment --config demos/configs/<name>.ini
# --seed 42`; a change that moves their bytes must say why
GOLDEN = ("basket", "bs_barrier", "cir_asian")


def run(*args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run(str(demo))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", GOLDEN)
def test_demo_config_reproduces_its_table(name):
    proc = run("-m", "stratmc.cli", "experiment", "--config",
               f"demos/configs/{name}.ini", "--seed", "42")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / f"{name}.csv").read_text(
        encoding="utf-8")


def test_readme_quick_start(capsys):
    # the documented imports must stay inside the package's public names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    mc, la, lhs = parse_csv(capsys.readouterr().out)
    assert (mc.method, la.method, lhs.method) == ("mc", "la", "lhs")
    assert la.variance < mc.variance / 100.0  # the README quotes ~700x
