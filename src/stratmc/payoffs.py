"""Discounted payoff evaluators for the three contract families.

All evaluators accept a PathMatrix or a raw array shaped (..., M, N) and
return discounted payoffs with the leading batch shape.  Barrier knock-out
uses strict comparison: S < B survives, S == B knocks out.
payoff_evaluator composes a model's path map with one or more contracts
into the driver-space function f(z) that the estimators sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import CirParams, PathMatrix, bs_basket_g, bs_paths, cir_euler_path

__all__ = [
    "PayoffSpec",
    "asian_basket",
    "asian_barrier_expiry",
    "asian_barrier_complete",
    "evaluate",
    "payoff_evaluator",
]

KINDS = ("asian-basket", "asian-barrier-expiry", "asian-barrier-complete")


@dataclass(frozen=True)
class PayoffSpec:
    """Contract descriptor: kind, strike, optional barrier, averaging
    weights (M, N) summing to 1, and the discount factor e^{-rT}."""

    kind: str
    strike: float
    weights: np.ndarray
    discount: float
    barrier: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.strike <= 0.0:
            raise ValueError("strike must be positive")
        if self.kind != "asian-basket" and self.barrier is None:
            raise ValueError(f"{self.kind} requires a barrier")
        if self.barrier is not None and self.barrier <= self.strike:
            raise ValueError("barrier must exceed the strike")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount factor must lie in (0, 1]")
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("averaging weights must sum to 1")
        object.__setattr__(self, "weights", w)


def _values(path) -> np.ndarray:
    if isinstance(path, PathMatrix):
        return path.values
    return np.asarray(path, dtype=float)


def _average(s: np.ndarray, spec: PayoffSpec) -> np.ndarray:
    return np.einsum("...mn,mn->...", s, spec.weights)


def asian_basket(path, spec: PayoffSpec) -> np.ndarray:
    """e^{-rT} (sum_ij w_ij S_i(t_j) - K)^+."""
    s = _values(path)
    return spec.discount * np.maximum(_average(s, spec) - spec.strike, 0.0)


def asian_barrier_expiry(path, spec: PayoffSpec) -> np.ndarray:
    """Asian payoff knocked out when the terminal value reaches the barrier."""
    s = _values(path)
    if s.shape[-2] != 1:
        raise ValueError("barrier contracts are single-asset")
    alive = s[..., 0, -1] < spec.barrier
    return spec.discount * np.maximum(_average(s, spec) - spec.strike, 0.0) * alive


def asian_barrier_complete(path, spec: PayoffSpec) -> np.ndarray:
    """Asian payoff knocked out when any monitored value reaches the barrier."""
    s = _values(path)
    if s.shape[-2] != 1:
        raise ValueError("barrier contracts are single-asset")
    alive = np.all(s[..., 0, :] < spec.barrier, axis=-1)
    return spec.discount * np.maximum(_average(s, spec) - spec.strike, 0.0) * alive


_DISPATCH = {
    "asian-basket": asian_basket,
    "asian-barrier-expiry": asian_barrier_expiry,
    "asian-barrier-complete": asian_barrier_complete,
}


def evaluate(path, spec: PayoffSpec) -> np.ndarray:
    """Dispatch on spec.kind."""
    return _DISPATCH[spec.kind](path, spec)


def payoff_evaluator(params, specs):
    """The discounted payoff as a function of the driver z under BsParams or
    CirParams: f(z), shape (..., dim) -> (...), for one PayoffSpec, and
    (S, ...) for a sequence of S contracts, one contiguous row per
    contract, all priced from one path map of the same z.

    When every contract is a lognormal basket whose averaging weights are
    the model's own, the path map is the weighted lognormal sum
    bs_basket_g, which equals the payoff on the full path matrix without
    building it.
    """
    one = isinstance(specs, PayoffSpec)
    specs = [specs] if one else list(specs)
    if isinstance(params, CirParams):
        path, payoff = (lambda z: cir_euler_path(z, params)), evaluate
    elif all(s.kind == "asian-basket" and np.array_equal(s.weights, params.weights)
             for s in specs):
        path = lambda z: bs_basket_g(z, params)
        payoff = lambda g, spec: spec.discount * np.maximum(g - spec.strike, 0.0)
    else:
        path, payoff = (lambda z: bs_paths(z, params)), evaluate
    if one:
        return lambda z: payoff(path(z), specs[0])

    def table(z):
        x = path(z)
        return np.stack([payoff(x, spec) for spec in specs])
    return table
