"""Batch experiment front end.

Parses INI experiment configurations, assembles model / payoff / direction /
allocation combinations, runs the estimators and emits result tables as CSV
or JSON.

Output files are bit-reproducible for a fixed seed: all randomness flows
through per-cell substreams derived from the seed, shared by every contract
of the table, and the time_ratio column reports a deterministic
operation-count ratio (driver variates plus stratification transforms per
draw, relative to the plain-MC baseline) rather than a wall-clock
measurement.  Measured wall times stay available
on the in-memory rows for interactive display.
"""
from __future__ import annotations

import configparser
import dataclasses
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .directions import engines
from .errors import ConfigInvalid, StratMcError
from .gaussian import RandomStream
from .models import BsParams, CirParams
from .payoffs import KINDS, PayoffSpec, payoff_evaluator
from .stratify import (
    ALLOCS,
    DirectionSet,
    StratumSpec,
    _one_blas_thread,
    lhs_estimate,
    min_budget,
    plain_mc_estimate,
    two_stage_estimate,
)

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "ResultRow",
    "load_config",
    "run_experiment",
    "direction_sets",
    "format_rows",
]

# method: (engines, directions taken from each); a method's position in the
# table numbers its cells' substreams
METHODS = {
    "mc": ((), 0), "lhs": ((), 0),
    "la": (("la",), 1), "lt": (("lt",), 1), "pca": (("pca",), 1),
    "pilot-pca": (("pilot-pca",), 1),
    "la+pca": (("la", "pca"), 1), "lt+pca": (("lt", "pca"), 1),
    "two-dir-la": (("la",), 2), "two-dir-lt": (("lt",), 2),
    "two-dir-pca": (("pca",), 2),
}
COLUMNS = ("method", "alloc", "payoff", "strike", "barrier", "price",
           "variance", "time_ratio", "n_samples", "strata", "seed")

# substream id reserved for direction engines (the pilot-PCA sample), kept
# apart from the table's id (1) so direction vectors do not depend on the
# cells or the payoff list
_DIR_STREAM_INDEX = 0x517A7

@dataclass(frozen=True)
class ExperimentConfig:
    """A checked, immutable table: building or replacing one raises
    ConfigInvalid, and the check keeps its engine table and grids.  strata,
    n_samples, lhs_replications and seed must be integers (NumPy's pass, a
    bool does not)."""
    params: BsParams | CirParams
    payoffs: list[PayoffSpec] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    allocs: list[str] = field(default_factory=lambda: ["opt"])
    strata: int = 100
    n_samples: int = 100_000
    lhs_replications: int = 30
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    engines: dict = field(init=False, repr=False, compare=False)
    grids: dict = field(init=False, repr=False, compare=False)

    @property
    def model(self) -> str:
        """The configured model's kind, "bs" or "cir"."""
        return "bs" if isinstance(self.params, BsParams) else "cir"

    def __post_init__(self):
        if not isinstance(self.params, (BsParams, CirParams)):
            raise ConfigInvalid("model: params must be BsParams or CirParams, "
                                f"not {type(self.params).__name__}")
        if not self.payoffs:
            raise ConfigInvalid("payoff: at least one contract is required")
        try:
            payoff_evaluator(self.params, self.payoffs)
        except ValueError as exc:
            raise ConfigInvalid(f"payoff: {exc}") from exc
        if not self.allocs:
            raise ConfigInvalid("run.alloc: need at least one rule")
        for a in self.allocs:
            if a not in ALLOCS:
                raise ConfigInvalid(f"run.alloc: unknown rule {a!r}")
        # a repeated entry would price the same contract or cell twice
        for key, entries, label in (
                ("payoff.strike", self.payoffs, lambda spec: f"{spec.strike:g}"),
                ("run.methods", self.methods, str),
                ("run.alloc", self.allocs, str)):
            repeats = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeats:
                raise ConfigInvalid(f"{key}: {label(repeats[0])} is repeated")
        for key in ("strata", "n_samples", "lhs_replications", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigInvalid(f"run.{key} must be an integer")
        if self.strata < 1:
            raise ConfigInvalid("run.strata must be >= 1")
        if self.n_samples < 2:
            raise ConfigInvalid("run.n_samples must be >= 2")
        # RandomStream keys on seed mod 2**64: no two seeds may share draws
        if not 0 <= self.seed < 2**64:
            raise ConfigInvalid("run.seed must lie in 0 .. 2**64 - 1")
        model_engines = engines(
            self.params, RandomStream(self.seed).child(_DIR_STREAM_INDEX))
        grids = {}
        for m in self.methods:
            if m not in METHODS:
                raise ConfigInvalid(f"run.methods: unknown method {m!r}")
            names, count = METHODS[m]
            missing = sorted(set(names) - model_engines.keys())
            if missing:
                raise ConfigInvalid(
                    f"run.methods: {m} needs the {', '.join(missing)} engine, "
                    f"which the {self.model} model does not have (its "
                    f"engines: {', '.join(model_engines)})")
            if m == "lhs" and self.lhs_replications < 2:
                raise ConfigInvalid("run.lhs_replications must be >= 2")
            if m == "lhs" and self.n_samples // self.lhs_replications < 2:
                raise ConfigInvalid(
                    "run.n_samples too small for the LHS replications")
            if not names:
                continue
            if len(names) * count > self.params.dim:
                raise ConfigInvalid(
                    f"run.methods: {m} needs {len(names) * count} directions, "
                    f"more than the model's dimension {self.params.dim}")
            # one direction's K slabs, or a sqrt(K) x sqrt(K) grid for two
            grid = grids[m] = StratumSpec(
                (math.isqrt(self.strata),) * 2 if len(names) * count == 2
                else (self.strata,))
            if len(grid.counts) == 2 and grid.total < 4:
                raise ConfigInvalid(
                    "run.strata must be >= 4 for two-direction methods")
            for a in self.allocs:
                need = min_budget(grid.total, a)
                if self.n_samples < need:
                    raise ConfigInvalid(
                        f"run.n_samples: {m}/{a} over {grid.total} strata "
                        f"needs {need} draws to keep n_min per stratum"
                        + (" after its pilot" if a == "opt" else ""))
        if self.format not in ("csv", "json"):
            raise ConfigInvalid(f"output.format: unknown format {self.format!r}")
        object.__setattr__(self, "engines", model_engines)
        object.__setattr__(self, "grids", grids)


@dataclass
class ResultRow:
    method: str
    alloc: str
    payoff: str
    strike: float
    barrier: float | None
    price: float
    variance: float
    time_ratio: float
    n_samples: int
    strata: int
    seed: int
    # not serialized; a cell that serves S rows charges each 1/S of its time
    wall_seconds: float = field(default=0.0, compare=False)


# --- config parsing -----------------------------------------------------------


def _number(raw: str) -> float:
    """A finite float: nan and inf are not valid config values."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


def _floats(raw: str) -> list[float]:
    try:
        return [_number(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigInvalid(f"could not parse number list {raw!r}") from exc


def _words(raw: str) -> list[str]:
    """A comma-separated list, lower-cased, empty entries dropped."""
    return [tok.strip().lower() for tok in raw.split(",") if tok.strip()]


# the INI grammar: the keys of [payoff], and for [model] (one table per
# kind, with its class) and for [run] and [output] (ExperimentConfig) each
# key's field and parser
_MODELS = {
    "bs": (BsParams, {"s0": ("s0", _floats), "sigma": ("sigma", _floats),
                      "rho": ("rho", _number), "rate": ("rate", _number),
                      "steps": ("steps", int),
                      "maturity": ("maturity", _number)}),
    "cir": (CirParams, {"s0": ("s0", _number), "alpha": ("alpha", _number),
                        "mu": ("mu", _number), "sigma": ("sigma", _number),
                        "rate": ("rate", _number), "steps": ("n_steps", int),
                        "maturity": ("maturity", _number)}),
}
_PAYOFF_KEYS = ("kind", "strike", "barrier")
_SETTINGS = {
    "run": {"methods": ("methods", _words), "alloc": ("allocs", _words),
            "strata": ("strata", int), "n_samples": ("n_samples", int),
            "lhs_replications": ("lhs_replications", int),
            "seed": ("seed", int)},
    "output": {"path": ("out", str), "format": ("format", str.lower)},
}


def _check_keys(section, name: str, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigInvalid(f"{name}.{key}: unknown key (known: "
                                f"{', '.join(known)})")


def _get(section, key, cast, name):
    if key not in section:
        raise ConfigInvalid(f"{name}.{key} is required")
    try:
        return cast(section[key])
    except (TypeError, ValueError, configparser.Error) as exc:
        raise ConfigInvalid(f"{name}.{key}: {exc}") from exc


def _fields(section, name: str, keys: dict, cls) -> dict:
    """{field: value} of cls for a section: a key the file leaves out keeps
    the field's default, and a field without one is required."""
    required = {f.name for f in dataclasses.fields(cls) if f.init
                and f.default is f.default_factory is dataclasses.MISSING}
    return {attr: _get(section, key, cast, name)
            for key, (attr, cast) in keys.items()
            if key in section or attr in required}


def _parse_model(section) -> BsParams | CirParams:
    kind = _get(section, "kind", str, "model").strip().lower()
    if kind not in _MODELS:
        raise ConfigInvalid(f"model.kind: unknown model {kind!r}")
    build, keys = _MODELS[kind]
    _check_keys(section, "model", ("kind", *keys))
    args = _fields(section, "model", keys, build)
    try:
        return build(**args)
    except (ValueError, StratMcError) as exc:
        raise ConfigInvalid(f"model: {exc}") from exc


def _parse_payoffs(section) -> list[PayoffSpec]:
    _check_keys(section, "payoff", _PAYOFF_KEYS)
    kind = _get(section, "kind", str, "payoff").strip().lower()
    if kind not in KINDS:
        raise ConfigInvalid(f"payoff.kind: unknown kind {kind!r}")
    strikes = _get(section, "strike", _floats, "payoff")
    barrier = (_get(section, "barrier", _number, "payoff")
               if "barrier" in section else None)
    try:
        return [PayoffSpec(k, kind, barrier) for k in strikes]
    except ValueError as exc:
        raise ConfigInvalid(f"payoff: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment description from a flat INI file.

    Sections: [model] (kind = bs|cir plus parameters), [payoff]
    (kind/strike/barrier), [run] (methods, alloc, strata, n_samples,
    lhs_replications, seed), [output] (path, format).  An unknown section
    or key is a ConfigInvalid.  See the README for the full grammar.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc
    if not read:
        raise ConfigInvalid(f"could not read config file {path!r}")
    # sections() leaves out [DEFAULT], whose keys would reach every section
    for name in parser.sections() + ["DEFAULT"] * bool(parser.defaults()):
        if name not in ("model", "payoff", *_SETTINGS):
            raise ConfigInvalid(f"[{name}]: unknown section")
    if "model" not in parser or "payoff" not in parser:
        raise ConfigInvalid("config needs [model] and [payoff] sections")
    params = _parse_model(parser["model"])
    payoffs = _parse_payoffs(parser["payoff"])
    settings = {}
    for name, keys in _SETTINGS.items():
        section = parser[name] if name in parser else {}
        _check_keys(section, name, keys)
        settings.update(_fields(section, name, keys, ExperimentConfig))
    return ExperimentConfig(params=params, payoffs=payoffs, **settings)


# --- direction assembly ---------------------------------------------------------


def direction_sets(config: ExperimentConfig) -> dict[str, DirectionSet]:
    """{method: DirectionSet} for every direction-based method of a config,
    built by its engine table on the substream reserved for directions."""
    sets = {}
    for method in config.grids:
        names, count = METHODS[method]
        sets[method] = DirectionSet(np.column_stack(
            [config.engines[name](count).columns for name in names]))
    return sets


@_one_blas_thread()
def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run every (payoff, method, allocation) cell plus the MC baseline.

    Every contract of the table is priced from the same draws (common
    random numbers): each cell runs one estimator over all contracts at
    once, from a fixed child of the seed's substream 1, and direction
    engines draw from a reserved substream (direction_sets), so results
    never depend on which cells are selected.  A contract's mc, lhs and
    const rows depend on its own contract only; an opt row also depends on
    the table's strike list, because the main stage draws one pool sized by
    every contract's allocation.  The table times each cell around its
    estimator call only, not the direction builds or the LHS rotation, and
    charges each of its rows an equal share.  Deterministic for a fixed
    seed.  Every loaded OpenBLAS is held at one thread while the table runs.
    """
    directions = direction_sets(config)
    dim = config.params.dim
    specs = config.payoffs
    table_stream = RandomStream(config.seed).child(1)
    evaluator = payoff_evaluator(config.params, specs)

    def cell_rows(method, alloc, strata, ops, estimate):
        """A cell's rows from one timed call of estimate(), its estimator
        with every argument bound; ops is its operation count per draw."""
        t0 = time.perf_counter()
        rep = estimate()
        wall = (time.perf_counter() - t0) / len(specs)
        n_used = np.broadcast_to(rep.n_samples, len(specs))
        return [ResultRow(
            method=method, alloc=alloc, payoff=spec.kind, strike=spec.strike,
            barrier=spec.barrier, price=float(rep.price[s]),
            variance=float(rep.variance[s]),
            time_ratio=float(n_used[s]) * ops / (config.n_samples * dim),
            n_samples=int(n_used[s]), strata=strata, seed=config.seed,
            wall_seconds=wall)
            for s, spec in enumerate(specs)]

    cells = [cell_rows("mc", "-", 1, dim, partial(
        plain_mc_estimate, evaluator, dim, config.n_samples,
        table_stream.child(0)))]
    for method in config.methods:
        if method == "mc":
            continue
        cell_base = table_stream.child(2 + 2 * list(METHODS).index(method))
        if method == "lhs":
            # rotated by the full LT matrix: d normals and d rotated
            # coordinates per draw
            cells.append(cell_rows("lhs", "-", 1, 2 * dim, partial(
                lhs_estimate, evaluator, config.engines["lt"](dim).columns,
                config.n_samples, config.lhs_replications, cell_base)))
            continue
        dirs, strat_spec = directions[method], config.grids[method]
        for alloc in config.allocs:
            cells.append(cell_rows(
                method, alloc, strat_spec.total, dim + dirs.count,
                partial(two_stage_estimate, evaluator, dirs, strat_spec,
                        config.n_samples, cell_base.child(ALLOCS.index(alloc)),
                        allocation=alloc)))
    # one block of rows per contract, in the table's contract order
    return [cell[s] for s in range(len(specs)) for cell in cells]


# --- table output ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def format_rows(rows, fmt: str = "csv") -> str:
    """Serialize result rows; csv uses 17 significant digits, json mirrors
    the same fields."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(COLUMNS) + "\n")
        for r in rows:
            buf.write(",".join(_fmt(getattr(r, c)) for c in COLUMNS) + "\n")
        return buf.getvalue()
    if fmt == "json":
        payload = [{c: getattr(r, c) for c in COLUMNS} for r in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")

