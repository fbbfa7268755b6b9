"""Stratify along two directions that are not orthogonal.

Good directions rarely come orthogonal: a gradient direction and a leading
principal component usually enclose a small angle.  The sampler pins both
projections into their marginal quantile boxes by drawing the second
coordinate conditionally on the first, and attaches a weight (the product
of conditional box probabilities) to every draw.  Weighted stratum means
then add up to an unbiased estimate without ever knowing the joint box
probabilities.
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

DIM = 3
E1 = np.array([1.0, 0.0, 0.0])
E45 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)  # 45 degrees from E1


def main():
    dirs = DirectionSet(np.column_stack([E1, E45]))
    spec = StratumSpec((2, 2))
    stream = RandomStream(21)

    upper = 3  # flat 0-based index of box (1, 1), last direction fastest

    print("1. Draws from the (upper, upper) quadrant stratum")
    z, weight = sample_strata(dirs, spec, np.full(5, upper), stream)
    for zi, w in zip(z, weight):
        print(f"   z1={zi[0]: .3f}  (z1+z2)/sqrt2={(zi[0]+zi[1])/np.sqrt(2): .3f}"
              f"   weight={w:.4f}")
    print("   both projections are positive; the weight is the conditional")
    print("   probability mass of the box the draw was forced into.")

    print()
    print("2. The weights recover the joint probability")
    n = 40_000
    _, weight = sample_strata(dirs, spec, np.repeat(np.arange(spec.total), n),
                              stream.child(1))
    mass = weight.reshape(spec.total, n).mean(axis=1)
    print(f"   sum over the four strata of mean(weight) = {mass.sum():.4f}"
          "   (should be ~1)")
    print(f"   mass of the (+,+) wedge = {mass[upper]:.4f}"
          "   (exact value 0.375 for a 45 degree wedge)")

    print()
    print("3. Variance reduction with correlated directions")
    v = np.array([0.8, 0.6, 0.0])

    def payoff(z):
        return np.exp(z @ v)

    stream = RandomStream(22)
    mc = plain_mc_estimate(payoff, DIM, 40_000, stream.child(0))
    rep = two_stage_estimate(payoff, dirs, StratumSpec((10, 10)), 40_000,
                             stream.child(1), allocation="opt")
    exact = float(np.exp(0.5))  # lognormal mean, |v| = 1
    print(f"   exact value        {exact:.5f}")
    print(f"   plain MC           {mc.price:.5f}   variance {mc.variance:.4f}")
    print(f"   stratified 10x10   {rep.price:.5f}   variance {rep.variance:.4f}"
          f"   ratio {mc.variance / rep.variance:.1f}")
    print("   pinning two correlated projections still cuts variance by an")
    print("   order of magnitude, but the fluctuating per-draw weights add")
    print("   noise of their own -- the price of a non-orthogonal grid.")


if __name__ == "__main__":
    main()
