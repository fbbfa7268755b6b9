"""Smoke test: the narrative demos and the README's quick start, which use
the library's public API, run to completion; every demo config reproduces
its recorded table byte for byte, and three of them their direction
columns; the README's config grammar lists the keys the parser accepts,
and its layout the package's modules."""
import configparser
import csv
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stratmc import bs_asian_params, cir_asian_params, load_config
from stratmc.experiment import _MODELS, _PAYOFF_KEYS, _SETTINGS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
# tables recorded by RECORD_TABLE; a change that moves their bytes says why
GOLDEN = ("basket", "bs_asian", "bs_barrier", "cir_asian")
RECORD_TABLE = ("PYTHONPATH=src python -m stratmc.cli experiment --config "
                "demos/configs/{name}.ini --seed 42 --out tests/data/{name}.csv")
# direction columns recorded by RECORD_DIRECTIONS; a diff names the engine
# that moved
DIRECTION_GOLDEN = ("basket", "bs_asian", "cir_asian")
RECORD_DIRECTIONS = ("PYTHONPATH=src python -m stratmc.cli directions --config "
                     "demos/configs/{name}.ini --seed 42 "
                     "--out tests/data/directions_{name}.txt")


def run(*args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path))


def recorded_fields(text: str) -> dict:
    """{(row, column): field} of a recorded table, or of a direction file,
    whose lines are the components of the '# column j' above them."""
    if not text.startswith("# column"):
        rows = csv.DictReader(io.StringIO(text))
        return {(f"row {i} ({r['method']}/{r['alloc']} K={r['strike']})", c): v
                for i, r in enumerate(rows, 1) for c, v in r.items()}
    fields, column, i = {}, None, 0
    for line in text.splitlines():
        if line.startswith("# column"):
            column, i = line[2:], 0
        else:
            fields[(f"component {i}", column)] = line
            i += 1
    return fields


def what_moved(got: str, want: str) -> str:
    """How a regenerated table or direction file differs from its recording:
    the count of moved fields and the largest relative move, with its row
    and column; a field that is not a number moves by inf."""
    new, old = recorded_fields(got), recorded_fields(want)
    if new.keys() != old.keys():
        return f"layout changed: {len(new)} fields against {len(old)} recorded"
    moves = {}
    for key, was in old.items():
        if new[key] != was:
            try:
                a, b = float(new[key]), float(was)
                moves[key] = abs(a - b) / abs(b) if b else math.inf
            except ValueError:
                moves[key] = math.inf
    if not moves:
        return "every field matches, but the bytes differ"
    (row, column), largest = max(moves.items(), key=lambda kv: kv[1])
    return (f"{len(moves)} of {len(old)} fields moved; the largest relative "
            f"move is {largest:.2g}, at {row}, {column}")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run(str(demo))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", GOLDEN)
def test_demo_config_reproduces_its_table(name):
    proc = run("-m", "stratmc.cli", "experiment", "--config",
               f"demos/configs/{name}.ini", "--seed", "42")
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / f"{name}.csv").read_text(encoding="utf-8")
    assert proc.stdout == want, (f"{what_moved(proc.stdout, want)}; re-record "
                                 f"with `{RECORD_TABLE.format(name=name)}`")


@pytest.mark.parametrize("name", DIRECTION_GOLDEN)
def test_demo_config_reproduces_its_directions(name, tmp_path):
    out = tmp_path / "directions.txt"
    proc = run("-m", "stratmc.cli", "directions", "--config",
               f"demos/configs/{name}.ini", "--seed", "42", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    got = out.read_text(encoding="utf-8")
    want = (ROOT / "tests" / "data" / f"directions_{name}.txt").read_text(
        encoding="utf-8")
    assert got == want, (f"{what_moved(got, want)}; re-record with "
                         f"`{RECORD_DIRECTIONS.format(name=name)}`")


def test_what_moved_names_the_largest_move():
    table = "method,alloc,strike,price,variance\nmc,-,50,1.0,2.0\nla,opt,50,3.0,4.0\n"
    moved = table.replace("2.0", "2.5").replace("3.0", "3.000001")
    assert what_moved(moved, table) == (
        "2 of 10 fields moved; the largest relative move is 0.25, at "
        "row 1 (mc/- K=50), variance")
    columns = "# column 1\n0.5\n0.5\n# column 2\n1\n0\n"
    assert what_moved(columns.replace("\n0\n", "\n1e-17\n"), columns) == (
        "1 of 4 fields moved; the largest relative move is inf, at "
        "component 1, column 2")


def test_loading_configs_imports_no_heavy_scipy():
    # importing scipy.special alone is two thirds of a cold start-up, so
    # importing stratmc and checking a config must load no scipy module
    proc = run("-c", "import sys, stratmc\n"
               f"for name in {GOLDEN!r}:\n"
               "    stratmc.load_config(f'demos/configs/{name}.ini')\n"
               "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_directions_imports_no_scipy():
    # building directions never samples, so it never needs scipy
    proc = run("-c", "import contextlib, io, sys\n"
               "from stratmc import cli\n"
               f"for name in {GOLDEN!r}:\n"
               "    with contextlib.redirect_stdout(io.StringIO()):\n"
               "        code = cli.main(['directions', '--config',\n"
               "                         f'demos/configs/{name}.ini'])\n"
               "    print(code)\n"
               "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * len(GOLDEN)


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


def test_readme_layout_names_the_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "stratmc").glob("*.py")
                     if not p.name.startswith("_"))
    assert sorted(listed) == modules
