"""stratmc benchmark: one workload per process, end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload bs-asian-table --seed 42 --seconds 36 --trace 0

Each run writes the workload's INI (with ``--seed``) under ``.bench_work/``
and drives the public front end only: ``load_config``, then repeated
``run_experiment`` + ``format_rows`` in a closed loop with one client, until
``--seconds`` is spent (at least ``MIN_REPS`` repetitions).  Every cell of
every repetition passes a correctness gate; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced repetitions, starting with a traced one, and reports the
per-layer metrics of the traced ones (spans of the last one go to
``.bench_work/spans-<workload>.jsonl``), the tracing overhead and the floors
of the primitives they compare with.

``threads`` stays at its default of 1 and the BLAS thread count at the
library's own default; both are recorded, never set.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import numpy as np

import tracer as tr
from hostspeed import HostSpeed
from workloads import SIZES, WORKLOADS, ini_texts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# the table columns as documented in the README
HEADER = "method,alloc,payoff,strike,barrier,price,variance,time_ratio,n_samples,strata,seed"
MAX_Z = 4.0          # combined standard errors a cell may sit from MC
MIN_REPS = 3         # repetitions per run, whatever --seconds says; a traced
                     # run's first three are traced, untraced, traced
SETUP_PER_REP = 2    # fresh processes timed for setup_s before each repetition
FLOOR_N = 1 << 22    # elements per floor measurement

END_TO_END = {
    "setup_s": "s",
    "draws_per_s": "draws/s",
    "vr_gmean": "x",
    "eff_gain": "x",
    "peak_rss_mb": "MB",
}
FLOORS = {"floor.philox_normal_ns": "ns", "floor.ndtri_ns": "ns",
          "floor.exp_ns": "ns"}
TRACE_ONLY = {"stratify.cell_over_mc": "x", "trace.wall_s": "s",
              "trace.overhead": "fraction"}

_PROBE = """\
import sys, time
sys.path.append(sys.argv[1])
from hostspeed import HostSpeed
with HostSpeed() as host:
    t0 = time.perf_counter()
    import stratmc
    from stratmc.experiment import load_config
    for path in sys.argv[2:]:
        load_config(path)
    t1 = time.perf_counter()
print(host.nominal_s(t0, t1), t1 - t0)
"""


# --- correctness gate -------------------------------------------------------------


class Gate:
    """Counts attempted and failed cells over the repetitions of one run.

    A cell fails when its repetition raises, when its price or variance is
    not finite (or its variance not positive), when its seed column is not
    the requested seed, when its price sits more than MAX_Z combined
    standard errors from the same payoff's MC price, or when its repetition's
    CSV bytes differ from the first repetition's.  A header other than the
    documented one, or a wrong row count, fails the whole repetition.
    """

    def __init__(self, cells: list[int], seed: int):
        self.cells = cells          # expected rows of each table
        self.seed = seed
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, n: int, reason: str):
        self.failed += n
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def raised(self, exc: BaseException):
        self.attempted += sum(self.cells)
        self._fail(sum(self.cells), "repetition raised: " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip())

    def check(self, texts: list[str]) -> list[dict] | None:
        """Gate one repetition's CSV tables; returns their rows if usable."""
        total = sum(self.cells)
        self.attempted += total
        rows = []
        for table, (text, cells) in enumerate(zip(texts, self.cells)):
            lines = text.splitlines()
            if not lines or lines[0] != HEADER:
                self._fail(total, f"header {lines[:1]} is not the documented {HEADER}")
                return None
            parsed = list(csv.DictReader(io.StringIO(text)))
            if len(parsed) != cells:
                self._fail(total, f"table {table}: {len(parsed)} rows, expected {cells}")
                return None
            for row in parsed:
                row["table"] = table
                for key in ("price", "variance", "strike"):
                    row[key] = float(row[key])
                row["n_samples"] = int(row["n_samples"])
            rows += parsed
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            self._fail(total, "CSV bytes differ from the first repetition")
            return None
        mc = {_payoff(r): r for r in rows if r["method"] == "mc"}
        for r in rows:
            why = self._cell_fault(r, mc.get(_payoff(r)))
            if why:
                self._fail(1, f"{r['method']}/{r['alloc']} K={r['strike']:g}: {why}")
        return rows

    def _cell_fault(self, r: dict, m: dict | None) -> str | None:
        if not (math.isfinite(r["price"]) and math.isfinite(r["variance"])):
            return "price or variance not finite"
        if r["variance"] <= 0.0:
            return "variance not positive"
        if r["seed"] != str(self.seed):
            return f"seed column {r['seed']} is not {self.seed}"
        if m is None:
            return "no MC row for this payoff"
        se = math.sqrt(m["variance"] / m["n_samples"] + r["variance"] / r["n_samples"])
        z = abs(r["price"] - m["price"]) / se if r is not m else 0.0
        return f"|z| = {z:.2f} against MC" if z > MAX_Z else None


def _payoff(row: dict) -> tuple:
    return row["table"], row["payoff"], row["strike"], row["barrier"]


def expected_cells(config) -> int:
    stratified = [m for m in config.methods if m not in ("mc", "lhs")]
    per_payoff = 1 + ("lhs" in config.methods) + len(stratified) * len(config.allocs)
    return per_payoff * len(config.payoffs)


# --- repetitions -------------------------------------------------------------------


class Rep(NamedTuple):
    start: float                          # perf_counter at the start
    wall: float                           # seconds
    rows: list[dict]                      # parsed table rows
    cell_s: list[float]                   # ResultRow.wall_seconds per cell
    spans: list[tuple[float, float]]      # (from, to) per cell, perf_counter


def run_rep(experiment, configs, gate: Gate) -> Rep | None:
    """One closed-loop repetition through the public front end.

    Returns None when the repetition failed the gate as a whole.  A table's
    cells run one after another and end when ``run_experiment`` returns, so
    their spans are laid back to back, backwards from that moment.
    """
    texts, cell_s, spans = [], [], []
    try:
        t0 = perf_counter()
        for config in configs:
            rows = experiment.run_experiment(config)
            end = perf_counter()
            texts.append(experiment.format_rows(rows, config.format))
            durations = [r.wall_seconds for r in rows]
            starts = end - np.cumsum(durations[::-1])[::-1]
            cell_s += durations
            spans += [(a, a + d) for a, d in zip(starts, durations)]
        wall = perf_counter() - t0
    except Exception as exc:  # a failing repetition is a result, not a crash
        gate.raised(exc)
        return None
    parsed = gate.check(texts)
    return None if parsed is None else Rep(t0, wall, parsed, cell_s, spans)


def _gmean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def _ratios(rows: list[dict], cell_s: np.ndarray):
    """Per non-MC cell: variance ratio and efficiency gain over MC."""
    mc = {_payoff(r): (r, cell_s[i]) for i, r in enumerate(rows) if r["method"] == "mc"}
    vr, eff = [], []
    for i, r in enumerate(rows):
        if r["method"] == "mc":
            continue
        m, t_mc = mc[_payoff(r)]
        vr.append(m["variance"] / r["variance"])
        eff.append(vr[-1] * t_mc / cell_s[i])
    return vr, eff


def cell_over_mc(rows: list[dict], cell_s: np.ndarray) -> float:
    """Median over payoffs of (median stratified-cell time / MC-cell time)."""
    mc = {_payoff(r): cell_s[i] for i, r in enumerate(rows) if r["method"] == "mc"}
    per_payoff = {}
    for i, r in enumerate(rows):
        if r["method"] not in ("mc", "lhs"):
            per_payoff.setdefault(_payoff(r), []).append(cell_s[i] / mc[_payoff(r)])
    return statistics.median(statistics.median(v) for v in per_payoff.values())


# --- set-up, floors and machine facts -------------------------------------------------


def setup_probes(inis: list[Path], n: int) -> list[tuple[float, float]]:
    """Import + load_config in n fresh processes, one after another.

    Returns (seconds at the host's nominal speed, wall seconds) per process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", _PROBE, str(BENCH), *map(str, inis)],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        nominal, wall = out.stdout.strip().splitlines()[-1].split()
        times.append((float(nominal), float(wall)))
    return times


def _ns_per(fn, n: int, reps: int = 5) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / n


def floors() -> dict[str, float]:
    """Per-element cost of the primitives the layers build on."""
    from scipy.special import ndtri
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    u = gen.random(FLOOR_N) * 0.999 + 0.0005
    x = gen.standard_normal(FLOOR_N)
    return {
        "floor.philox_normal_ns": _ns_per(lambda: gen.standard_normal(FLOOR_N), FLOOR_N),
        "floor.ndtri_ns": _ns_per(lambda: ndtri(u), FLOOR_N),
        "floor.exp_ns": _ns_per(lambda: np.exp(x), FLOOR_N),
    }


def _blas() -> list[dict]:
    """Loaded OpenBLAS libraries and their thread counts, as found."""
    import ctypes
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                            and ln.split()[-1].startswith("/")})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        found.append({"library": os.path.basename(path), "threads": threads})
    return found


def machine_facts() -> dict:
    import platform
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# --- the two kinds of run ------------------------------------------------------------------


def _reps(seconds: float, step, min_reps: int):
    """Call step() until min_reps are done and the next would overrun."""
    t0 = perf_counter()
    walls = []
    while True:
        s = perf_counter()
        step(len(walls))
        walls.append(perf_counter() - s)
        if len(walls) >= min_reps and \
                perf_counter() - t0 + statistics.median(walls) > seconds:
            return


def end_to_end(experiment, configs, gate: Gate, seconds: float, inis: list[Path]):
    results, setup_s = [], []
    setup_probes(inis, 1)  # warm-up: page cache and bytecode files

    def step(_):
        # set-up probes are spread over the run, not taken in one burst,
        # so the median sees the host as the repetitions do
        setup_s.extend(setup_probes(inis, SETUP_PER_REP))
        with HostSpeed() as host:
            res = run_rep(experiment, configs, gate)
        if res is not None:
            results.append((res, host))

    _reps(seconds, step, MIN_REPS)
    metrics = {"setup_s": statistics.median(t for t, _ in setup_s),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    facts = {"setup_wall_s": statistics.median(w for _, w in setup_s)}
    if results:
        # times at the host's nominal speed (see HostSpeed), so that the
        # host's drift between and within runs drops out
        rows = results[0][0].rows
        rep_s = [h.nominal_s(r.start, r.start + r.wall) for r, h in results]
        cell_s = np.median([[h.nominal_s(*span) for span in r.spans]
                            for r, h in results], axis=0)
        vr, eff = _ratios(rows, cell_s)
        draws = sum(r["n_samples"] for r in rows)
        metrics.update(draws_per_s=draws / statistics.median(rep_s),
                       vr_gmean=_gmean(vr), eff_gain=_gmean(eff))
        facts.update(draws_per_wall_s=draws / statistics.median(r.wall for r, _ in results),
                     host_slowdown=[round(r.wall / s, 4) for (r, _), s in zip(results, rep_s)])
    return metrics, facts


def traced(experiment, configs, gate: Gate, seconds: float, spans_path: Path):
    rec = tr.Tracer()
    plain, layered, walls = [], [], []

    def step(i):
        if i % 2 == 1:
            res = run_rep(experiment, configs, gate)
            if res is not None:
                plain.append(res)
            return
        rec.reset()
        rec.install()
        try:
            res = run_rep(experiment, configs, gate)
        finally:
            rec.uninstall()
        if res is not None:
            layered.append(tr.layer_metrics(rec))
            walls.append(res.wall)

    _reps(seconds, step, MIN_REPS)
    metrics = floors()
    if plain:
        cell_s = np.median([p.cell_s for p in plain], axis=0)
        metrics["stratify.cell_over_mc"] = cell_over_mc(plain[0].rows, cell_s)
    if layered:
        # timings come from the traced repetition of median wall time, so
        # its layer self times add up within its own wall time
        mid = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
        metrics.update(layered[mid])
        for name in tr.COUNT_METRICS:
            values = [m[name] for m in layered]
            if len(set(values)) != 1:
                gate._fail(1, f"{name} differs across traced repetitions: {values}")
        for name in tr.absent_metrics(rec):
            metrics.pop(name, None)
        metrics["trace.wall_s"] = walls[mid]
        if plain:
            metrics["trace.overhead"] = (statistics.median(walls)
                                         / statistics.median(p.wall for p in plain) - 1)
        tr.write_spans(rec, spans_path)
    return metrics


def units() -> dict[str, str]:
    out = dict(END_TO_END)
    out.update(FLOORS)
    out.update(TRACE_ONLY)
    out.update({k: u for k, (u, _) in tr.LAYER_METRICS.items()})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny shrinks budget and strata for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (SRC / "stratmc" / "__init__.py").is_file():
        print(f"error: no stratmc sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    inis = []
    for i, text in enumerate(ini_texts(args.workload, args.seed, args.size)):
        inis.append(WORK / f"{args.workload}-{args.size}-{i}.ini")
        inis[-1].write_text(text, encoding="utf-8")

    sys.path.insert(0, str(SRC))
    import stratmc
    import stratmc.experiment as experiment
    if Path(stratmc.__file__).resolve().parent != (SRC / "stratmc").resolve():
        print(f"error: imported stratmc from {stratmc.__file__}", file=sys.stderr)
        return 2
    configs = [experiment.load_config(str(ini)) for ini in inis]
    gate = Gate([expected_cells(c) for c in configs], args.seed)

    if args.trace == 0:
        metrics, facts = end_to_end(experiment, configs, gate, args.seconds, inis)
        wanted = list(END_TO_END)
    else:
        metrics = traced(experiment, configs, gate, args.seconds,
                         WORK / f"spans-{args.workload}.jsonl")
        facts = {}
        wanted = [k for k in units() if k not in END_TO_END]
    unit = units()
    for name in wanted:
        if name in metrics:
            print(f"{name:28s} {metrics[name]:>16.6g} {unit[name]}")
        else:
            print(f"{name:28s} {'absent':>16s}")
    for reason in gate.reasons:
        print("gate:", reason)
    print(json.dumps({"machine": machine_facts(), **facts,
                      "absent": sorted(set(wanted) - set(metrics))}))
    result = {
        "correct": gate.failed == 0 and bool(metrics) and all(
            math.isfinite(v) for v in metrics.values()),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit[k]}
                    for k in wanted if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
