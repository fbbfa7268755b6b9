"""Direction engines on an average-price option under lognormal dynamics.

One asset, 64 monitoring dates.  Three automatic choices of the projection
direction are compared: the normalized gradient of the discounted payout at
the origin ("la"), the first column of an orthogonalized expansion of the
exponential map ("lt" -- identical to la here), and the leading principal
component of the path covariance ("pca").  The experiment table shows how
much variance each direction removes at a fixed draw budget.
"""
import numpy as np

from stratmc import (
    ExperimentConfig,
    PayoffSpec,
    angle_degrees,
    bs_asian_params,
    engines,
    run_experiment,
)

def main():
    params = bs_asian_params()

    print("1. The candidate directions and their mutual angles")
    first = {name: engine(1).columns[:, 0]
             for name, engine in engines(params).items()}
    la = first["la"]
    print(f"   angle(la, lt)  = {angle_degrees(la, first['lt']):8.4f} degrees")
    print(f"   angle(la, pca) = {angle_degrees(la, first['pca']):8.4f} degrees")
    print("   la loads late dates (they move the average and are cheap to")
    print("   reach); pca loads them even harder, caring only about path")
    print("   variance, not the payout.")

    print()
    print("2. Variance table, strike 50, 100 strata, 100k draws, seed 42")
    config = ExperimentConfig(
        params=params, payoffs=[PayoffSpec(50.0)],
        methods=["lhs", "la", "lt", "pca", "la+pca"],
        allocs=["const", "opt"], strata=100, n_samples=100_000, seed=42)
    rows = run_experiment(config)
    mc_var = rows[0].variance
    print(f"   {'method':8s} {'alloc':6s} {'price':>8s} {'variance':>11s}"
          f" {'ratio':>8s}")
    for r in rows:
        print(f"   {r.method:8s} {r.alloc:6s} {r.price:8.4f}"
              f" {r.variance:11.5f} {mc_var / r.variance:8.1f}")
    print("   one gradient direction removes ~99.9% of the variance under")
    print("   the optimal budget; the pca direction alone barely helps, and")
    print("   the oblique la+pca pair pays a weight-noise tax that leaves it")
    print("   behind plain la.  LHS is rotated so its first axis is the la")
    print("   direction, which is why the classical baseline shines here.")


if __name__ == "__main__":
    main()
