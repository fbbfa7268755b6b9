"""Latin hypercube sampling as the classical one-dimensional baseline.

LHS stratifies every coordinate marginally: each of n draws lands in a
distinct quantile cell of every axis.  That nearly eliminates the variance
of payoffs that are additive in the coordinates, but buys much less for
payoffs driven by one oblique combination -- exactly where projection
stratification shines.  Replicated LHS (the variance is estimated across
independent replications) makes the comparison honest.
"""
import numpy as np

from stratmc import (
    DirectionSet,
    RandomStream,
    StratumSpec,
    lhs_estimate,
    plain_mc_estimate,
    two_stage_estimate,
)

DIM = 16
BUDGET = 40_000
REPS = 20

v = np.ones(DIM) / np.sqrt(DIM)


def additive(z):
    return z.mean(axis=1)


def oblique(z):
    return np.maximum(np.exp(z @ v) - 1.0, 0.0)


def main():
    rot = np.eye(DIM)
    stream = RandomStream(31)

    print(f"1. Additive payoff mean(z) in {DIM} dimensions")
    mc = plain_mc_estimate(additive, DIM, BUDGET, stream.child(0))
    lhs = lhs_estimate(additive, rot, BUDGET, REPS, stream.child(1))
    print(f"   plain MC variance {mc.variance[0]:.2e}")
    print(f"   LHS variance      {lhs.variance[0]:.2e}"
          f"   ratio {mc.variance[0] / lhs.variance[0]:9.0f}")
    print("   marginal stratification removes additive variance almost")
    print("   completely.")

    print()
    print("2. Payoff of one oblique projection, same budget")
    mc = plain_mc_estimate(oblique, DIM, BUDGET, stream.child(2))
    lhs = lhs_estimate(oblique, rot, BUDGET, REPS, stream.child(3))
    dirs = DirectionSet(v[:, None])
    strat = two_stage_estimate(oblique, dirs, StratumSpec((100,)), BUDGET,
                               stream.child(4), allocation="opt")
    print(f"   plain MC variance          {mc.variance[0]:.5f}")
    print(f"   LHS variance               {lhs.variance[0]:.5f}"
          f"   ratio {mc.variance[0] / lhs.variance[0]:7.1f}")
    print(f"   projection-stratified var  {strat.variance[0]:.5f}"
          f"   ratio {mc.variance[0] / strat.variance[0]:7.1f}")
    print("   LHS only helps through each coordinate's small share of v.z;")
    print("   stratifying the projection itself is orders of magnitude ahead.")


if __name__ == "__main__":
    main()
