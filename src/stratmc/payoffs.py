"""The discounted payoff of the three contract families.

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
        if self.kind == "asian-basket" and self.barrier is not None:
            raise ValueError("asian-basket takes no barrier")
        if self.kind != "asian-basket" and self.barrier is None:
            raise ValueError(f"{self.kind} requires a barrier")
        if self.barrier is not None and self.barrier <= self.strike:
            raise ValueError("barrier must exceed the strike")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount factor must lie in (0, 1]")
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("averaging weights must sum to 1")
        if self.kind != "asian-basket" and w.shape[0] != 1:
            raise ValueError("barrier contracts are single-asset, not "
                             f"{w.shape[0]} assets")
        object.__setattr__(self, "weights", w)


def _values(path) -> np.ndarray:
    if isinstance(path, PathMatrix):
        return path.values
    return np.asarray(path, dtype=float)


def _call(average: np.ndarray, spec: PayoffSpec) -> np.ndarray:
    """e^{-rT} (A - K)^+ for the weighted average A."""
    return spec.discount * np.maximum(average - spec.strike, 0.0)


def evaluate(path, spec: PayoffSpec) -> np.ndarray:
    """The discounted call on A = sum_ij w_ij S_i(t_j), knocked out for
    asian-barrier-expiry when S(t_N) reaches the barrier and for
    asian-barrier-complete when any S(t_j) does."""
    s = _values(path)
    value = _call(np.einsum("...mn,mn->...", s, spec.weights), spec)
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
        path, payoff = (lambda z: bs_basket_g(z, params)), _call
    else:
        path, payoff = (lambda z: bs_paths(z, params)), evaluate
    if one:
        return lambda z: payoff(path(z), specs[0])

    def table(z):
        x = path(z)
        return np.stack([payoff(x, spec) for spec in specs])
    return table
