"""Discounted Asian payoffs with and without knock-out barriers.

Hand-computed examples plus the pathwise dominance ordering
complete-barrier <= expiry-barrier <= plain, and the strict-comparison
knock-out convention (S == B kills the contract, S < B survives).  The
model supplies the averaging weights and the discount e^{-rT}.
"""
import numpy as np
import pytest

from stratmc import (
    BsParams,
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
)
from stratmc.models import PathMatrix


def model(m=1, n=2, rate=0.0):
    """m assets on n dates up to maturity 1, discounting at rate."""
    return BsParams(s0=[50.0] * m, sigma=0.3, steps=n, rate=rate)


class TestAsianBasket:
    def test_hand_example(self):
        s = np.array([[[60.0, 40.0]]])  # one path, avg 50
        assert evaluate(s, PayoffSpec(45.0), model())[0] == 5.0
        assert evaluate(s, PayoffSpec(55.0), model())[0] == 0.0

    def test_discounting(self):
        s = np.array([[[60.0, 40.0]]])
        # e^{-rT} = 0.9
        assert evaluate(s, PayoffSpec(45.0),
                        model(rate=-np.log(0.9)))[0] == pytest.approx(4.5)

    def test_accepts_path_matrix(self):
        s = np.array([[[60.0, 40.0]]])
        spec = PayoffSpec(45.0)
        np.testing.assert_array_equal(evaluate(PathMatrix(s), spec, model()),
                                      evaluate(s, spec, model()))

    def test_multi_asset_weights(self):
        params = model(m=2, n=1)
        s = np.array([[[100.0], [20.0]]])
        # avg 60
        assert evaluate(s, PayoffSpec(10.0), params)[0] == pytest.approx(50.0)


class TestBarriers:
    def test_expiry_knockout_strict(self):
        spec = PayoffSpec(45.0, "asian-barrier-expiry", 60.0)
        alive = np.array([[[70.0, 59.999]]])  # terminal below the barrier
        dead = np.array([[[40.0, 60.0]]])     # terminal exactly at the barrier
        assert evaluate(alive, spec, model())[0] > 0.0
        assert evaluate(dead, spec, model())[0] == 0.0

    def test_expiry_ignores_intermediate_breaches(self):
        spec = PayoffSpec(45.0, "asian-barrier-expiry", 60.0)
        s = np.array([[[95.0, 50.0]]])  # breached early, back below at T
        assert evaluate(s, spec, model())[0] == pytest.approx(27.5)

    def test_complete_knockout_any_date(self):
        spec = PayoffSpec(45.0, "asian-barrier-complete", 60.0)
        s = np.array([[[95.0, 50.0]]])
        assert evaluate(s, spec, model())[0] == 0.0
        s = np.array([[[59.0, 50.0]]])
        assert evaluate(s, spec, model())[0] == pytest.approx(9.5)

    def test_infinite_barrier_equals_plain(self):
        rng = np.random.default_rng(7)
        s = rng.lognormal(mean=4.0, sigma=0.3, size=(500, 1, 8))
        plain = PayoffSpec(50.0)
        huge = PayoffSpec(50.0, "asian-barrier-complete", 1e12)
        np.testing.assert_array_equal(
            evaluate(s, huge, model(n=8)), evaluate(s, plain, model(n=8)))

    def test_pathwise_dominance(self):
        rng = np.random.default_rng(8)
        s = rng.lognormal(mean=4.0, sigma=0.4, size=(5_000, 1, 16))
        plain, expiry, complete = (
            evaluate(s, PayoffSpec(50.0, kind, barrier), model(n=16))
            for kind, barrier in (("asian-basket", None),
                                  ("asian-barrier-expiry", 70.0),
                                  ("asian-barrier-complete", 70.0)))
        assert np.all(complete <= expiry)
        assert np.all(expiry <= plain)

    def test_barrier_contracts_are_single_asset(self):
        # the evaluator is the one place that pairs contracts with a model
        with pytest.raises(ValueError, match="single-asset"):
            payoff_evaluator(model(m=2),
                             [PayoffSpec(45.0, "asian-barrier-expiry", 60.0)])


class TestValidation:
    def test_barrier_must_exceed_strike(self):
        with pytest.raises(ValueError):
            PayoffSpec(50.0, "asian-barrier-expiry", 50.0)

    def test_barrier_required_for_barrier_kinds(self):
        with pytest.raises(ValueError):
            PayoffSpec(50.0, "asian-barrier-complete")

    def test_no_barrier_on_a_plain_basket(self):
        with pytest.raises(ValueError, match="takes no barrier"):
            PayoffSpec(50.0, "asian-basket", 60.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PayoffSpec(45.0, "lookback")


@pytest.mark.parametrize("params, spec, paths", [
    (bs_asian_params(), PayoffSpec(50.0), bs_paths),
    (basket_params(), PayoffSpec(40.0), bs_paths),
    (bs_barrier_params(), PayoffSpec(50.0, "asian-barrier-expiry", 60.0),
     bs_paths),
    (bs_barrier_params(), PayoffSpec(50.0, "asian-barrier-complete", 60.0),
     bs_paths),
    (cir_asian_params(), PayoffSpec(100.0), cir_euler_path),
], ids=["bs-asian", "basket-fast-path", "barrier-expiry", "barrier-complete",
        "cir-asian"])
def test_payoff_evaluator_matches_path_payoff(params, spec, paths):
    z = RandomStream(12).normal((400, params.dim))
    (f,) = payoff_evaluator(params, [spec])(z)
    assert np.count_nonzero(f) > 0
    np.testing.assert_allclose(f, evaluate(paths(z, params), spec, params),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("params, specs", [
    (bs_asian_params(), [PayoffSpec(k) for k in (45.0, 50.0, 55.0)]),
    (bs_barrier_params(), [PayoffSpec(k, "asian-barrier-complete", 60.0)
                           for k in (45.0, 50.0)]),
    (cir_asian_params(), [PayoffSpec(k) for k in (95.0, 100.0)]),
], ids=["bs-asian", "barrier-complete", "cir-asian"])
def test_payoff_evaluator_rows_are_the_single_contract_values(params, specs):
    # a table's evaluator gives one contiguous row per contract, each the
    # one-contract evaluator's row bit for bit
    z = RandomStream(13).normal((300, params.dim))
    rows = payoff_evaluator(params, specs)(z)
    assert rows.shape == (len(specs), 300) and rows.flags.c_contiguous
    for row, spec in zip(rows, specs):
        np.testing.assert_array_equal(row, payoff_evaluator(params, [spec])(z)[0])


def test_payoff_evaluator_takes_a_sequence_of_contracts():
    # one row shape: a lone contract is a one-row table, not a bare spec
    params = bs_asian_params()
    z = RandomStream(14).normal((5, params.dim))
    assert payoff_evaluator(params, [PayoffSpec(50.0)])(z).shape == (1, 5)
    with pytest.raises(TypeError):
        payoff_evaluator(params, PayoffSpec(50.0))
