"""Batch experiment front end.

Parses INI experiment configurations, assembles model / payoff / direction /
allocation combinations, runs the estimators and emits result tables as CSV
or JSON.

Output files are bit-reproducible for a fixed seed: all randomness flows
through per-cell substreams derived from the seed, and the time_ratio
column reports a deterministic operation-count ratio (driver variates plus
stratification transforms per draw, relative to the plain-MC baseline)
rather than a wall-clock measurement.  Measured wall times stay available
on the in-memory rows for interactive display.
"""
from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .directions import (
    la_directions_multi,
    lt_directions_bs,
    lt_directions_cir,
    pca_directions,
    pilot_pca_cir,
    bs_gradient,
    cir_mean_gradient,
)
from .errors import ConfigInvalid, InvalidFeller, NotPositiveDefinite
from .gaussian import RandomStream
from .models import BsParams, CirParams, path_covariance
from .payoffs import KINDS, PayoffSpec, payoff_evaluator
from .presets import payoff_for, uniform_weights
from .stratify import (
    DirectionSet,
    StratumSpec,
    lhs_estimate,
    plain_mc_estimate,
    two_stage_estimate,
)

__all__ = [
    "METHODS",
    "ALLOCS",
    "ExperimentConfig",
    "ResultRow",
    "load_config",
    "run_experiment",
    "build_directions",
    "format_rows",
    "parse_csv",
]

METHODS = ("mc", "lhs", "la", "lt", "pca", "pilot-pca",
           "la+pca", "lt+pca", "two-dir-la", "two-dir-lt", "two-dir-pca")
ALLOCS = ("const", "opt")
COLUMNS = ("method", "alloc", "payoff", "strike", "barrier", "price",
           "variance", "time_ratio", "n_samples", "strata", "seed")

# the direction engines of each model; every stratified method is built
# from them (see _method_parts)
_ENGINES = {"bs": ("la", "lt", "pca"), "cir": ("la", "lt", "pilot-pca")}
_N_MIN = 2

# substream id reserved for direction engines (the pilot-PCA sample), kept
# apart from the per-payoff ids so direction vectors do not depend on the
# payoff list
_DIR_STREAM_INDEX = 0x517A7

@dataclass
class ExperimentConfig:
    model: str
    bs: BsParams | None = None
    cir: CirParams | None = None
    payoffs: list[PayoffSpec] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    allocs: list[str] = field(default_factory=lambda: ["opt"])
    strata: int = 100
    n_samples: int = 100_000
    pilot_fraction: float = 0.1
    lhs_replications: int = 30
    seed: int = 0
    out: str | None = None
    format: str = "csv"

    @property
    def dim(self) -> int:
        return self.bs.dim if self.model == "bs" else self.cir.n_steps

    def validate(self):
        if self.model not in ("bs", "cir"):
            raise ConfigInvalid(f"model.kind: unknown model {self.model!r}")
        if self.model == "bs" and self.bs is None:
            raise ConfigInvalid("model: missing BS parameters")
        if self.model == "cir" and self.cir is None:
            raise ConfigInvalid("model: missing CIR parameters")
        if not self.payoffs:
            raise ConfigInvalid("payoff: at least one contract is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigInvalid(f"run.methods: unknown method {m!r}")
            missing = sorted(set(_method_parts(m)[0]) - set(_ENGINES[self.model]))
            if missing:
                raise ConfigInvalid(
                    f"run.methods: {m} needs the {', '.join(missing)} engine, "
                    f"which the {self.model} model does not have (its "
                    f"engines: {', '.join(_ENGINES[self.model])})")
        for a in self.allocs:
            if a not in ALLOCS:
                raise ConfigInvalid(f"run.alloc: unknown rule {a!r}")
        if not self.allocs:
            raise ConfigInvalid("run.alloc: need at least one rule")
        if self.strata < 1:
            raise ConfigInvalid("run.strata must be >= 1")
        if self.n_samples < self.strata * _N_MIN:
            raise ConfigInvalid("run.n_samples must cover n_min per stratum")
        if self.strata < 4 and any(len(engines) * count == 2 for engines, count
                                   in map(_method_parts, self.methods)):
            raise ConfigInvalid("run.strata must be >= 4 for two-direction methods")
        if not 0.0 < self.pilot_fraction < 1.0:
            raise ConfigInvalid("run.pilot_fraction must lie in (0, 1)")
        if "lhs" in self.methods:
            if self.lhs_replications < 2:
                raise ConfigInvalid("run.lhs_replications must be >= 2")
            if self.n_samples // self.lhs_replications < 2:
                raise ConfigInvalid("run.n_samples too small for the LHS replications")
        if self.format not in ("csv", "json"):
            raise ConfigInvalid(f"output.format: unknown format {self.format!r}")
        if self.model == "bs":
            for p in self.payoffs:
                if p.kind != "asian-basket" and self.bs.n_assets != 1:
                    raise ConfigInvalid("payoff: barrier contracts are single-asset")


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
    wall_seconds: float = field(default=0.0, compare=False)  # not serialized


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


def _get(section, key, cast, default=None, name=""):
    if key not in section:
        if default is not None:
            return default
        raise ConfigInvalid(f"{name}.{key} is required")
    try:
        return cast(section[key])
    except ConfigInvalid:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{name}.{key}: {exc}") from exc


def _parse_model(section) -> tuple[str, BsParams | None, CirParams | None]:
    kind = _get(section, "kind", str, name="model").strip().lower()
    if kind == "bs":
        s0 = _floats(_get(section, "s0", str, name="model"))
        sigma = _floats(_get(section, "sigma", str, name="model"))
        m = len(s0)
        if m == 0:
            raise ConfigInvalid("model.s0 needs at least one value")
        if len(sigma) == 1 and m > 1:
            sigma = sigma * m
        rho = _get(section, "rho", _number, default=0.0, name="model")
        steps = _get(section, "steps", int, name="model")
        maturity = _get(section, "maturity", _number, default=1.0, name="model")
        rate = _get(section, "rate", _number, default=0.0, name="model")
        if steps < 1:
            raise ConfigInvalid("model.steps must be >= 1")
        # a common correlation rho gives a positive-definite matrix exactly
        # for -1/(m-1) < rho < 1
        if m > 1 and not -1.0 / (m - 1) < rho < 1.0:
            raise ConfigInvalid(
                f"model.rho = {rho} must lie in ({-1.0 / (m - 1):g}, 1) "
                f"for {m} assets")
        corr = np.full((m, m), rho)
        np.fill_diagonal(corr, 1.0)
        grid = np.arange(1, steps + 1) * (maturity / steps)
        try:
            params = BsParams(s0=s0, sigma=sigma, corr=corr, rate=rate,
                              grid=grid, weights=uniform_weights(m, steps))
        except (ValueError, NotPositiveDefinite) as exc:
            raise ConfigInvalid(f"model: {exc}") from exc
        return "bs", params, None
    if kind == "cir":
        try:
            params = CirParams(
                s0=_get(section, "s0", _number, name="model"),
                alpha=_get(section, "alpha", _number, name="model"),
                mu=_get(section, "mu", _number, name="model"),
                sigma=_get(section, "sigma", _number, name="model"),
                rate=_get(section, "rate", _number, default=0.0, name="model"),
                n_steps=_get(section, "steps", int, name="model"),
                maturity=_get(section, "maturity", _number, default=1.0, name="model"),
            )
        except (ValueError, InvalidFeller) as exc:
            raise ConfigInvalid(f"model: {exc}") from exc
        return "cir", None, params
    raise ConfigInvalid(f"model.kind: unknown model {kind!r}")


def _parse_payoffs(section, params: BsParams | CirParams) -> list[PayoffSpec]:
    kind = _get(section, "kind", str, name="payoff").strip().lower()
    if kind not in KINDS:
        raise ConfigInvalid(f"payoff.kind: unknown kind {kind!r}")
    strikes = _floats(_get(section, "strike", str, name="payoff"))
    barrier = None
    if "barrier" in section:
        barrier = _get(section, "barrier", _number, name="payoff")
    try:
        return [payoff_for(params, k, kind, barrier) for k in strikes]
    except ValueError as exc:
        raise ConfigInvalid(f"payoff: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment description from a flat INI file.

    Sections: [model] (kind = bs|cir plus parameters), [payoff]
    (kind/strike/barrier), [run] (methods, alloc, strata, n_samples,
    pilot_fraction, lhs_replications, seed), [output]
    (path, format).  See the README for the full grammar.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc
    if not read:
        raise ConfigInvalid(f"could not read config file {path!r}")
    if "model" not in parser or "payoff" not in parser:
        raise ConfigInvalid("config needs [model] and [payoff] sections")
    model, bs, cir = _parse_model(parser["model"])
    payoffs = _parse_payoffs(parser["payoff"], bs if model == "bs" else cir)
    run = parser["run"] if "run" in parser else {}
    methods = [tok.strip().lower() for tok in
               _get(run, "methods", str, default="mc", name="run").split(",")
               if tok.strip()]
    allocs = [tok.strip().lower() for tok in
              _get(run, "alloc", str, default="opt", name="run").split(",")
              if tok.strip()]
    out_section = parser["output"] if "output" in parser else {}
    config = ExperimentConfig(
        model=model, bs=bs, cir=cir, payoffs=payoffs,
        methods=methods, allocs=allocs,
        strata=_get(run, "strata", int, default=100, name="run"),
        n_samples=_get(run, "n_samples", int, default=100_000, name="run"),
        pilot_fraction=_get(run, "pilot_fraction", _number, default=0.1, name="run"),
        lhs_replications=_get(run, "lhs_replications", int, default=30, name="run"),
        seed=_get(run, "seed", int, default=0, name="run"),
        out=out_section.get("path") if hasattr(out_section, "get") else None,
        format=(out_section.get("format", "csv") if hasattr(out_section, "get")
                else "csv").strip().lower(),
    )
    config.validate()
    return config


# --- direction assembly ---------------------------------------------------------


def _method_parts(method: str) -> tuple[tuple[str, ...], int]:
    """The engines a method draws on and the direction count taken from
    each: "<e>" is one direction of engine e, "two-dir-<e>" two directions
    of e, and "<a>+<b>" the first direction of a and of b; the mc and lhs
    baselines use none."""
    if method in ("mc", "lhs"):
        return (), 0
    if method.startswith("two-dir-"):
        return (method[len("two-dir-"):],), 2
    return tuple(method.split("+")), 1


def _engines(config: ExperimentConfig, stream: RandomStream) -> dict:
    """The model's direction engines, each mapping a count k to a
    DirectionSet of k directions."""
    if config.model == "bs":
        params = config.bs
        return {
            "la": lambda k: la_directions_multi(
                lambda e: bs_gradient(params, e), params.dim, k),
            "lt": lambda k: lt_directions_bs(params, k),
            "pca": lambda k: pca_directions(path_covariance(params), k)[0],
        }
    params = config.cir
    return {
        "la": lambda k: la_directions_multi(
            lambda z: cir_mean_gradient(params, z), params.n_steps, k),
        "lt": lambda k: lt_directions_cir(params, k),
        # one pilot eigenvector: no method takes more than one
        "pilot-pca": lambda k: DirectionSet(
            pilot_pca_cir(params, stream.child(1))[:, None]),
    }


def build_directions(config: ExperimentConfig, method: str,
                     stream: RandomStream) -> DirectionSet:
    """Direction set for one stratified method under the configured model."""
    names, count = _method_parts(method)
    engines = _engines(config, stream)
    if not names or not engines.keys() >= set(names):
        raise ConfigInvalid(
            f"method {method!r} unsupported for model {config.model!r}")
    return DirectionSet(np.column_stack(
        [engines[name](count).columns for name in names]))


def _lhs_rotation(config: ExperimentConfig) -> np.ndarray:
    """Full orthogonal matrix from the LT construction, used to rotate LHS."""
    if config.model == "bs":
        return lt_directions_bs(config.bs, config.bs.dim).columns
    return lt_directions_cir(config.cir, config.cir.n_steps).columns


def _stratum_spec(config: ExperimentConfig, n_dirs: int) -> StratumSpec:
    if n_dirs == 2:
        side = int(math.isqrt(config.strata))
        return StratumSpec((side, side))
    return StratumSpec((config.strata,))


def _work(n_samples: int, dim: int, method: str, n_dirs: int = 0) -> float:
    """Deterministic operation count standing in for wall time: driver
    variates plus stratification transforms per draw."""
    if method == "mc":
        return float(n_samples) * dim
    if method == "lhs":
        return float(n_samples) * 2.0 * dim
    return float(n_samples) * (dim + n_dirs)


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run every (payoff, method, allocation) cell plus the MC baseline.

    Deterministic for a fixed seed: payoff i uses substream root.child(i+1),
    each cell a fixed child of that, and direction engines draw from a
    reserved substream so results never depend on which cells are selected.
    """
    config.validate()
    root = RandomStream(config.seed)
    dir_stream = root.child(_DIR_STREAM_INDEX)
    dim = config.dim
    params = config.bs if config.model == "bs" else config.cir

    directions: dict[str, DirectionSet] = {}
    for method in config.methods:
        if method not in ("mc", "lhs"):
            directions[method] = build_directions(config, method, dir_stream)
    rotation = _lhs_rotation(config) if "lhs" in config.methods else None

    rows: list[ResultRow] = []
    for ip, spec in enumerate(config.payoffs):
        pay_stream = root.child(ip + 1)
        evaluator = payoff_evaluator(params, spec)

        mc = plain_mc_estimate(evaluator, dim, config.n_samples,
                               pay_stream.child(0))
        mc_work = _work(mc.n_samples, dim, "mc")
        rows.append(ResultRow(
            method="mc", alloc="-", payoff=spec.kind, strike=spec.strike,
            barrier=spec.barrier, price=mc.price, variance=mc.variance,
            time_ratio=1.0, n_samples=mc.n_samples, strata=1,
            seed=config.seed, wall_seconds=mc.wall_time))

        for method in config.methods:
            if method == "mc":
                continue
            cell_base = pay_stream.child(2 + 2 * METHODS.index(method))
            if method == "lhs":
                rep = lhs_estimate(evaluator, rotation, config.n_samples,
                                   config.lhs_replications, cell_base)
                rows.append(ResultRow(
                    method="lhs", alloc="-", payoff=spec.kind,
                    strike=spec.strike, barrier=spec.barrier,
                    price=rep.price, variance=rep.variance,
                    time_ratio=_work(rep.n_samples, dim, "lhs") / mc_work,
                    n_samples=rep.n_samples, strata=1,
                    seed=config.seed, wall_seconds=rep.wall_time))
                continue
            dirs = directions[method]
            strat_spec = _stratum_spec(config, dirs.count)
            for alloc in config.allocs:
                cell_stream = cell_base.child(ALLOCS.index(alloc))
                rep = two_stage_estimate(
                    evaluator, dirs, strat_spec, config.n_samples,
                    cell_stream, allocation=alloc,
                    pilot_fraction=config.pilot_fraction,
                    n_min=_N_MIN)
                rows.append(ResultRow(
                    method=method, alloc=alloc, payoff=spec.kind,
                    strike=spec.strike, barrier=spec.barrier,
                    price=rep.price, variance=rep.variance,
                    time_ratio=_work(rep.n_samples, dim, method,
                                     dirs.count) / mc_work,
                    n_samples=rep.n_samples, strata=strat_spec.total,
                    seed=config.seed, wall_seconds=rep.wall_time))
    return rows


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


def parse_csv(text: str) -> list[ResultRow]:
    """Inverse of format_rows(fmt="csv") (17-digit floats round-trip)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(COLUMNS):
        raise ValueError("unrecognized table header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        vals = dict(zip(COLUMNS, parts))
        rows.append(ResultRow(
            method=vals["method"], alloc=vals["alloc"], payoff=vals["payoff"],
            strike=float(vals["strike"]),
            barrier=None if vals["barrier"] == "" else float(vals["barrier"]),
            price=float(vals["price"]), variance=float(vals["variance"]),
            time_ratio=float(vals["time_ratio"]),
            n_samples=int(vals["n_samples"]), strata=int(vals["strata"]),
            seed=int(vals["seed"])))
    return rows
