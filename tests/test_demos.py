"""Smoke test: the narrative demos and the README's quick start, which use
the library's public API, run to completion; every demo config reproduces
its recorded table byte for byte, and three of them their direction
columns; the README's config grammar lists the keys the parser accepts."""
import configparser
import csv
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stratmc import bs_asian_params, cir_asian_params, load_config
from stratmc.experiment import _MODELS, _PAYOFF_KEYS, _SETTINGS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
# tables recorded with `stratmc experiment --config demos/configs/<name>.ini
# --seed 42`; a change that moves their bytes must say why
GOLDEN = ("basket", "bs_asian", "bs_barrier", "cir_asian")
# direction columns recorded with `stratmc directions --config
# demos/configs/<name>.ini --seed 42 --out directions_<name>.txt`; a diff
# names the engine that moved
DIRECTION_GOLDEN = ("basket", "bs_asian", "cir_asian")


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


@pytest.mark.parametrize("name", DIRECTION_GOLDEN)
def test_demo_config_reproduces_its_directions(name, tmp_path):
    out = tmp_path / "directions.txt"
    proc = run("-m", "stratmc.cli", "directions", "--config",
               f"demos/configs/{name}.ini", "--seed", "42", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == (
        ROOT / "tests" / "data" / f"directions_{name}.txt").read_text(
        encoding="utf-8")


def test_loading_configs_imports_no_heavy_scipy():
    # scipy.linalg and scipy.stats each add tens of ms to every start-up,
    # so importing stratmc and checking a config must not pull them in
    proc = run("-c", "import sys, stratmc\n"
               f"for name in {GOLDEN!r}:\n"
               "    stratmc.load_config(f'demos/configs/{name}.ini')\n"
               "print(' '.join(m for m in sys.modules\n"
               "               if m.startswith(('scipy.linalg', 'scipy.stats'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("name, preset", [("bs_asian", bs_asian_params),
                                          ("cir_asian", cir_asian_params)])
def test_demo_config_is_its_preset(name, preset):
    # two setups are stated both as a config file and as a preset; field by
    # field, because BsParams' array fields make == raise
    params = load_config(str(ROOT / "demos" / "configs" / f"{name}.ini")).params
    expected = preset()
    assert type(params) is type(expected)
    for f in dataclasses.fields(expected):
        assert np.array_equal(getattr(params, f.name),
                              getattr(expected, f.name)), f.name


def test_readme_quick_start(capsys):
    # the documented imports must stay inside the package's public names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    mc, la, lhs = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert (mc["method"], la["method"], lhs["method"]) == ("mc", "la", "lhs")
    # the README quotes ~700x
    assert float(la["variance"]) < float(mc["variance"]) / 100.0


def test_readme_grammar_lists_the_accepted_keys():
    # [model] lists the keys of both kinds
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1]
    grammar = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    grammar.read_string(section.split("```ini\n", 1)[1].split("```", 1)[0])
    accepted = {"model": {"kind"}.union(*(keys for _, keys in _MODELS.values())),
                "payoff": set(_PAYOFF_KEYS),
                **{name: set(keys) for name, keys in _SETTINGS.items()}}
    assert {name: set(grammar[name]) for name in grammar.sections()} == accepted
