"""Discounted Asian payoffs with and without knock-out barriers.

Hand-computed examples plus the pathwise dominance ordering
complete-barrier <= expiry-barrier <= plain, and the strict-comparison
knock-out convention (S == B kills the contract, S < B survives).
"""
import numpy as np
import pytest

from stratmc import (
    CirParams,
    PayoffSpec,
    RandomStream,
    basket_params,
    bs_asian_params,
    bs_barrier_params,
    bs_paths,
    cir_asian_params,
    cir_euler_path,
    evaluate,
    payoff_evaluator,
    payoff_for,
)
from stratmc.models import PathMatrix


def spec_for(kind="asian-basket", strike=45.0, barrier=None, m=1, n=2,
             discount=1.0):
    return PayoffSpec(kind=kind, strike=strike, barrier=barrier,
                      weights=np.full((m, n), 1.0 / (m * n)),
                      discount=discount)


class TestAsianBasket:
    def test_hand_example(self):
        s = np.array([[[60.0, 40.0]]])  # one path, avg 50
        assert evaluate(s, spec_for(strike=45.0))[0] == 5.0
        assert evaluate(s, spec_for(strike=55.0))[0] == 0.0

    def test_discounting(self):
        s = np.array([[[60.0, 40.0]]])
        spec = spec_for(strike=45.0, discount=0.9)
        assert evaluate(s, spec)[0] == pytest.approx(4.5)

    def test_accepts_path_matrix(self):
        s = np.array([[[60.0, 40.0]]])
        spec = spec_for()
        np.testing.assert_array_equal(evaluate(PathMatrix(s), spec),
                                      evaluate(s, spec))

    def test_multi_asset_weights(self):
        spec = PayoffSpec(kind="asian-basket", strike=10.0,
                          weights=np.array([[0.75], [0.25]]), discount=1.0)
        s = np.array([[[100.0], [20.0]]])
        assert evaluate(s, spec)[0] == pytest.approx(70.0)  # avg 80


class TestBarriers:
    def test_expiry_knockout_strict(self):
        spec = spec_for("asian-barrier-expiry", strike=45.0, barrier=60.0)
        alive = np.array([[[70.0, 59.999]]])  # terminal below the barrier
        dead = np.array([[[40.0, 60.0]]])     # terminal exactly at the barrier
        assert evaluate(alive, spec)[0] > 0.0
        assert evaluate(dead, spec)[0] == 0.0

    def test_expiry_ignores_intermediate_breaches(self):
        spec = spec_for("asian-barrier-expiry", strike=45.0, barrier=60.0)
        s = np.array([[[95.0, 50.0]]])  # breached early, back below at T
        assert evaluate(s, spec)[0] == pytest.approx(27.5)

    def test_complete_knockout_any_date(self):
        spec = spec_for("asian-barrier-complete", strike=45.0, barrier=60.0)
        s = np.array([[[95.0, 50.0]]])
        assert evaluate(s, spec)[0] == 0.0
        s = np.array([[[59.0, 50.0]]])
        assert evaluate(s, spec)[0] == pytest.approx(9.5)

    def test_infinite_barrier_equals_plain(self):
        rng = np.random.default_rng(7)
        s = rng.lognormal(mean=4.0, sigma=0.3, size=(500, 1, 8))
        plain = spec_for(strike=50.0, n=8)
        huge = spec_for("asian-barrier-complete", strike=50.0, barrier=1e12,
                        n=8)
        np.testing.assert_array_equal(
            evaluate(s, huge), evaluate(s, plain))

    def test_pathwise_dominance(self):
        rng = np.random.default_rng(8)
        s = rng.lognormal(mean=4.0, sigma=0.4, size=(5_000, 1, 16))
        plain = evaluate(s, spec_for(strike=50.0, n=16))
        expiry = evaluate(s, spec_for("asian-barrier-expiry", 50.0, 70.0, n=16))
        complete = evaluate(s, spec_for("asian-barrier-complete", 50.0, 70.0,
                                        n=16))
        assert np.all(complete <= expiry)
        assert np.all(expiry <= plain)

    def test_barrier_contracts_are_single_asset(self):
        with pytest.raises(ValueError, match="single-asset"):
            spec_for("asian-barrier-expiry", 45.0, 60.0, m=2)


class TestValidation:
    def test_barrier_must_exceed_strike(self):
        with pytest.raises(ValueError):
            spec_for("asian-barrier-expiry", strike=50.0, barrier=50.0)

    def test_barrier_required_for_barrier_kinds(self):
        with pytest.raises(ValueError):
            spec_for("asian-barrier-complete", strike=50.0, barrier=None)

    def test_no_barrier_on_a_plain_basket(self):
        with pytest.raises(ValueError, match="takes no barrier"):
            spec_for("asian-basket", strike=50.0, barrier=60.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spec_for("lookback")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PayoffSpec(kind="asian-basket", strike=1.0,
                       weights=np.ones((1, 2)), discount=1.0)

    def test_discount_domain(self):
        with pytest.raises(ValueError):
            spec_for(discount=0.0)
        with pytest.raises(ValueError):
            spec_for(discount=1.5)


def _terminal_call(params):
    # averaging weights unlike the model's own: all weight on the last date
    weights = np.zeros((1, params.n_dates))
    weights[0, -1] = 1.0
    return PayoffSpec(kind="asian-basket", strike=50.0, weights=weights,
                      discount=payoff_for(params, 50.0).discount)


@pytest.mark.parametrize("params, spec, paths", [
    (bs_asian_params(), payoff_for(bs_asian_params(), 50.0), bs_paths),
    (basket_params(), payoff_for(basket_params(), 40.0), bs_paths),
    (bs_barrier_params(), payoff_for(bs_barrier_params(), 50.0,
                                     "asian-barrier-expiry", 60.0), bs_paths),
    (bs_barrier_params(), payoff_for(bs_barrier_params(), 50.0,
                                     "asian-barrier-complete", 60.0), bs_paths),
    (bs_asian_params(), _terminal_call(bs_asian_params()), bs_paths),
    (cir_asian_params(), payoff_for(cir_asian_params(), 100.0), cir_euler_path),
], ids=["bs-asian", "basket-fast-path", "barrier-expiry", "barrier-complete",
        "bs-terminal-weights", "cir-asian"])
def test_payoff_evaluator_matches_path_payoff(params, spec, paths):
    dim = params.n_steps if isinstance(params, CirParams) else params.dim
    z = RandomStream(12).normal((400, dim))
    f = payoff_evaluator(params, spec)(z)
    assert np.count_nonzero(f) > 0
    np.testing.assert_allclose(f, evaluate(paths(z, params), spec),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("params, specs", [
    (bs_asian_params(), [payoff_for(bs_asian_params(), k) for k in (45.0, 50.0, 55.0)]),
    (bs_barrier_params(), [payoff_for(bs_barrier_params(), k,
                                      "asian-barrier-complete", 60.0)
                           for k in (45.0, 50.0)]),
    (cir_asian_params(), [payoff_for(cir_asian_params(), k) for k in (95.0, 100.0)]),
], ids=["bs-asian", "barrier-complete", "cir-asian"])
def test_payoff_evaluator_rows_are_the_single_contract_values(params, specs):
    # a table's evaluator gives one contiguous row per contract, each the
    # single-contract evaluator's values bit for bit
    dim = params.n_steps if isinstance(params, CirParams) else params.dim
    z = RandomStream(13).normal((300, dim))
    rows = payoff_evaluator(params, specs)(z)
    assert rows.shape == (len(specs), 300) and rows.flags.c_contiguous
    for row, spec in zip(rows, specs):
        np.testing.assert_array_equal(row, payoff_evaluator(params, spec)(z))
