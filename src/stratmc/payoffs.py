"""The discounted payoff of the three contract families.

A contract states its terms only: strike, kind and barrier.  The model
supplies the discount e^{-rT}, and every contract averages its path
uniformly.  evaluate takes a path array shaped (..., M, N) and returns
discounted payoffs with the leading batch shape.  Barrier knock-out uses
strict comparison: S < B survives, S == B knocks out.  payoff_evaluator
composes a model's path map with a sequence of S contracts into the
driver-space function f(z) -> (S, n) that the estimators sample, one row
per contract.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import CirParams, bs_basket_g, bs_paths, cir_euler_path

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
        if not 0.0 < self.strike < np.inf:
            raise ValueError("strike must be finite and positive")
        if self.kind == "asian-basket" and self.barrier is not None:
            raise ValueError("asian-basket takes no barrier")
        if self.kind != "asian-basket" and self.barrier is None:
            raise ValueError(f"{self.kind} requires a barrier")
        if self.barrier is not None and np.isnan(self.barrier):
            raise ValueError("barrier must not be nan")
        if self.barrier is not None and not self.barrier > self.strike:
            raise ValueError("barrier must exceed the strike")


def _call(average: np.ndarray, spec: PayoffSpec, params) -> np.ndarray:
    """e^{-rT} (A - K)^+ for the average A, with the model's discount."""
    discount = float(np.exp(-params.rate * params.maturity))
    return discount * np.maximum(average - spec.strike, 0.0)


def evaluate(path: np.ndarray, spec: PayoffSpec, params) -> np.ndarray:
    """The discounted call on the uniform average A of the path, shape
    (..., M, N), knocked out for asian-barrier-expiry when S(t_N) reaches
    the barrier and for asian-barrier-complete when any S(t_j) does."""
    s = np.asarray(path, dtype=float)
    value = _call(s.mean(axis=(-2, -1)), spec, params)
    if spec.kind == "asian-barrier-expiry":
        return value * (s[..., 0, -1] < spec.barrier)
    if spec.kind == "asian-barrier-complete":
        return value * np.all(s[..., 0, :] < spec.barrier, axis=-1)
    return value


def payoff_evaluator(params, specs):
    """The discounted payoffs of a sequence of S contracts as one function
    of the driver z under BsParams or CirParams: f(z), shape (n, dim) ->
    (S, n), one contiguous row per contract, all priced from one path map
    of the same z.

    When every contract is a lognormal basket, the path map is the
    lognormal average bs_basket_g, which equals the payoff on the full
    path array without building it.  A barrier contract on a multi-asset
    model raises ValueError: the barrier watches a single asset.
    """
    specs = list(specs)
    m = np.size(params.s0)
    if m > 1 and any(s.kind != "asian-basket" for s in specs):
        raise ValueError(f"barrier contracts are single-asset, not {m} assets")
    payoff = lambda x, spec: evaluate(x, spec, params)
    if isinstance(params, CirParams):
        path = lambda z: cir_euler_path(z, params).values
    elif all(s.kind == "asian-basket" for s in specs):
        path = lambda z: bs_basket_g(z, params)
        payoff = lambda g, spec: _call(g, spec, params)
    else:
        path = lambda z: bs_paths(z, params)

    def table(z):
        x = path(z)
        return np.stack([payoff(x, spec) for spec in specs])
    return table
