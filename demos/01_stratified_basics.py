"""Stratify a Gaussian along one direction and watch the variance drop.

A standard normal vector z in R^8 is split into equiprobable slabs of the
projection v.z.  Conditioning each draw on its slab removes the variance of
the projection; if the payoff depends mostly on v.z, most of its variance
goes with it.  The two-stage "opt" rule then reweights the per-stratum
budgets toward the noisy strata.
"""
import numpy as np

from stratmc import (
    DirectionSet,
    RandomStream,
    StratumSpec,
    plain_mc_estimate,
    sample_strata,
    two_stage_estimate,
)

DIM = 8
STRATA = 50
BUDGET = 40_000

v = np.ones(DIM) / np.sqrt(DIM)


def payoff(z):
    # call-shaped in the projection: only v.z matters
    return np.maximum(np.exp(z @ v) - 1.0, 0.0)


def main():
    stream = RandomStream(7)

    dirs = DirectionSet(v[:, None])
    spec = StratumSpec((STRATA,))

    print("1. What a stratified draw looks like")
    print("   projections of draws conditioned on slab k of", STRATA)
    for k in (1, STRATA // 2, STRATA):  # strata are numbered 1..K
        # the sampler takes flat 0-based stratum indices, one per draw
        z, _ = sample_strata(dirs, spec, np.full(4, k - 1), stream.child(k))
        proj = np.sort(z @ v)
        print(f"   k={k:2d}: v.z in [{proj[0]: .3f}, {proj[-1]: .3f}]")
    print("   every draw's projection sits inside its slab's quantile box.")

    print()
    print("2. Pricing E[max(exp(v.z) - 1, 0)] with a", BUDGET, "draw budget")
    mc = plain_mc_estimate(payoff, DIM, BUDGET, stream.child(100))
    print(f"   plain MC      price {mc.price[0]:.5f}   "
          f"single-draw variance {mc.variance[0]:.5f}")

    for rule in ("const", "opt"):
        rep = two_stage_estimate(payoff, dirs, spec, BUDGET,
                                 stream.child(200), allocation=rule)
        ratio = mc.variance[0] / rep.variance[0]
        print(f"   stratified {rule:5s} price {rep.price[0]:.5f}   "
              f"variance {rep.variance[0]:.5f}   ratio vs MC {ratio:7.1f}")

    print()
    print("3. Where the optimal rule spends the budget")
    rep = two_stage_estimate(payoff, dirs, spec, BUDGET, stream.child(200),
                             allocation="opt")
    counts = rep.stratum_counts[0]
    print(f"   left tail (payoff flat):  {counts[:5].tolist()} draws")
    print(f"   right tail (payoff steep): {counts[-5:].tolist()} draws")
    print("   flat strata get the minimum; steep strata soak up the rest.")


if __name__ == "__main__":
    main()
