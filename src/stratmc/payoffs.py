"""The discounted payoff of the three contract families.

A contract states its terms only: strike, kind and barrier.  The model
supplies the averaging weights (params.weights) and the discount e^{-rT}.
evaluate accepts a PathMatrix or a raw array shaped (..., M, N) and
returns discounted payoffs with the leading batch shape.  Barrier knock-out
uses strict comparison: S < B survives, S == B knocks out.
payoff_evaluator composes a model's path map with one or more contracts
into the driver-space function f(z) that the estimators sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import CirParams, PathMatrix, bs_basket_g, bs_paths, cir_euler_path

__all__ = ["PayoffSpec", "evaluate", "payoff_evaluator"]

KINDS = ("asian-basket", "asian-barrier-expiry", "asian-barrier-complete")


@dataclass(frozen=True)
class PayoffSpec:
    """Contract descriptor: strike, kind and, for the barrier kinds, the
    barrier."""

    strike: float
    kind: str = "asian-basket"
    barrier: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.strike <= 0.0:
            raise ValueError("strike must be positive")
        if self.kind == "asian-basket" and self.barrier is not None:
            raise ValueError("asian-basket takes no barrier")
        if self.kind != "asian-basket" and self.barrier is None:
            raise ValueError(f"{self.kind} requires a barrier")
        if self.barrier is not None and self.barrier <= self.strike:
            raise ValueError("barrier must exceed the strike")


def _discount(params) -> float:
    """The model's discount factor e^{-rT} to maturity."""
    return float(np.exp(-params.rate * params.maturity))


def _call(average: np.ndarray, spec: PayoffSpec, discount: float) -> np.ndarray:
    """e^{-rT} (A - K)^+ for the weighted average A."""
    return discount * np.maximum(average - spec.strike, 0.0)


def evaluate(path, spec: PayoffSpec, params) -> np.ndarray:
    """The discounted call on A = sum_ij w_ij S_i(t_j), with the model's
    weights and discount, knocked out for asian-barrier-expiry when S(t_N)
    reaches the barrier and for asian-barrier-complete when any S(t_j)
    does."""
    s = path.values if isinstance(path, PathMatrix) else np.asarray(path, float)
    value = _call(np.einsum("...mn,mn->...", s, params.weights), spec,
                  _discount(params))
    if spec.kind == "asian-barrier-expiry":
        return value * (s[..., 0, -1] < spec.barrier)
    if spec.kind == "asian-barrier-complete":
        return value * np.all(s[..., 0, :] < spec.barrier, axis=-1)
    return value


def payoff_evaluator(params, specs):
    """The discounted payoff as a function of the driver z under BsParams or
    CirParams: f(z), shape (..., dim) -> (...), for one PayoffSpec, and
    (S, ...) for a sequence of S contracts, one contiguous row per
    contract, all priced from one path map of the same z.

    When every contract is a lognormal basket, the path map is the
    weighted lognormal sum bs_basket_g, which equals the payoff on the full
    path matrix without building it.  A barrier contract on a multi-asset
    model raises ValueError: the barrier watches a single asset.
    """
    one = isinstance(specs, PayoffSpec)
    specs = [specs] if one else list(specs)
    m = params.weights.shape[0]
    if m > 1 and any(s.kind != "asian-basket" for s in specs):
        raise ValueError(f"barrier contracts are single-asset, not {m} assets")
    payoff = lambda x, spec: evaluate(x, spec, params)
    if isinstance(params, CirParams):
        path = lambda z: cir_euler_path(z, params)
    elif all(s.kind == "asian-basket" for s in specs):
        path = lambda z: bs_basket_g(z, params)
        payoff = lambda g, spec: _call(g, spec, _discount(params))
    else:
        path = lambda z: bs_paths(z, params)
    if one:
        return lambda z: payoff(path(z), specs[0])

    def table(z):
        x = path(z)
        return np.stack([payoff(x, spec) for spec in specs])
    return table
