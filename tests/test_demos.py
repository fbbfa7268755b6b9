"""Smoke test: the narrative demos and the README's quick start, which use
the library's public API, run to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratmc import parse_csv

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start(capsys):
    # the documented imports must stay inside the package's public names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    mc, la, lhs = parse_csv(capsys.readouterr().out)
    assert (mc.method, la.method, lhs.method) == ("mc", "la", "lhs")
    assert la.variance < mc.variance / 100.0  # the README quotes ~700x
