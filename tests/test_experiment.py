"""Experiment runner, INI parsing, table output and the command line.

Ground truth: the plain-MC baseline row prices each contract; every
stratified row must agree with it within combined standard errors, and the
deterministic time_ratio column follows directly from the operation counts
(mc 1.0, lhs 2.0, one extra projection per direction otherwise).
"""
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from stratmc import (
    ConfigInvalid,
    ExperimentConfig,
    bs_asian_params,
    cir_asian_params,
    format_rows,
    load_config,
    parse_csv,
    run_experiment,
)
from stratmc.cli import main
from stratmc.payoffs import PayoffSpec
from stratmc.presets import uniform_weights

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def small_bs_config(**overrides) -> ExperimentConfig:
    params = bs_asian_params()
    spec = PayoffSpec(kind="asian-basket", strike=50.0, barrier=None,
                      weights=params.weights,
                      discount=float(np.exp(-params.rate * params.grid[-1])))
    base = dict(model="bs", bs=params, payoffs=[spec], methods=["la"],
                allocs=["opt"], strata=20, n_samples=4000,
                lhs_replications=10, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_mc_baseline_always_present(self):
        rows = run_experiment(small_bs_config(methods=[]))
        assert len(rows) == 1
        (row,) = rows
        assert row.method == "mc"
        assert row.alloc == "-"
        assert row.strata == 1
        assert row.time_ratio == 1.0
        assert row.n_samples == 4000

    def test_time_ratios_are_operation_counts(self):
        rows = run_experiment(small_bs_config(methods=["lhs", "la"]))
        ratio = {r.method: r.time_ratio for r in rows}
        assert ratio["mc"] == 1.0
        assert ratio["lhs"] == 2.0
        assert ratio["la"] == pytest.approx(65.0 / 64.0)

    def test_same_seed_same_bytes(self):
        config = small_bs_config(methods=["la", "lhs"])
        a = format_rows(run_experiment(config))
        b = format_rows(run_experiment(config))
        assert a == b

    def test_seed_changes_results(self):
        a = run_experiment(small_bs_config(seed=1))
        b = run_experiment(small_bs_config(seed=2))
        assert a[-1].price != b[-1].price

    def test_cells_do_not_share_draws(self):
        # every cell draws from its own substream, so adding methods and
        # rules leaves the rows of the others byte-identical
        alone = run_experiment(small_bs_config(methods=["la"]))
        crowd = run_experiment(small_bs_config(methods=["lhs", "pca", "la"],
                                               allocs=["const", "opt"]))
        keep = [r for r in crowd if r.method in ("mc", "la") and r.alloc != "const"]
        assert format_rows(keep) == format_rows(alone)

    def test_prices_agree_with_mc(self):
        config = small_bs_config(methods=["la", "pca", "lhs"],
                                 allocs=["const", "opt"], n_samples=20_000)
        rows = run_experiment(config)
        mc = rows[0]
        se_mc = np.sqrt(mc.variance / mc.n_samples)
        for row in rows[1:]:
            se = np.sqrt(row.variance / row.n_samples + se_mc ** 2)
            assert abs(row.price - mc.price) < 4.0 * se, row.method

    def test_stratification_reduces_variance(self):
        rows = run_experiment(small_bs_config(methods=["la"],
                                              n_samples=20_000))
        mc, la = rows
        assert la.variance < mc.variance / 50.0

    def test_cir_model_runs(self):
        params = cir_asian_params()
        spec = PayoffSpec(kind="asian-basket", strike=100.0, barrier=None,
                          weights=uniform_weights(1, params.n_steps),
                          discount=float(np.exp(-params.rate * params.maturity)))
        config = ExperimentConfig(model="cir", cir=params, payoffs=[spec],
                                  methods=["la"], strata=20, n_samples=4000,
                                  seed=5)
        rows = run_experiment(config)
        assert rows[1].variance < rows[0].variance


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["warp"]).validate()

    def test_pilot_pca_requires_cir(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["pilot-pca"]).validate()

    def test_pca_requires_bs(self):
        params = cir_asian_params()
        spec = PayoffSpec(kind="asian-basket", strike=100.0, barrier=None,
                          weights=uniform_weights(1, params.n_steps),
                          discount=1.0)
        config = ExperimentConfig(model="cir", cir=params, payoffs=[spec],
                                  methods=["pca"])
        with pytest.raises(ConfigInvalid):
            config.validate()

    def test_budget_must_cover_strata(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(strata=100, n_samples=150).validate()

    def test_two_direction_methods_need_grid(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["la+pca"], strata=3).validate()

    def test_unknown_alloc_and_format(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(allocs=["greedy"]).validate()
        with pytest.raises(ConfigInvalid):
            small_bs_config(format="xml").validate()

    def test_lhs_needs_replications(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["lhs"], lhs_replications=1).validate()


class TestTables:
    def test_csv_round_trip(self):
        rows = run_experiment(small_bs_config(methods=["la", "lhs"]))
        assert parse_csv(format_rows(rows, "csv")) == rows

    def test_csv_empty_barrier_field(self):
        rows = run_experiment(small_bs_config(methods=[]))
        line = format_rows(rows).splitlines()[1]
        cells = line.split(",")
        assert cells[0] == "mc"
        assert cells[4] == ""  # no barrier on an average-price contract

    def test_json_mirrors_csv_fields(self):
        rows = run_experiment(small_bs_config(methods=[]))
        payload = json.loads(format_rows(rows, "json"))
        assert len(payload) == 1
        rec = payload[0]
        assert rec["method"] == "mc"
        assert rec["barrier"] is None
        assert rec["price"] == rows[0].price
        assert rec["seed"] == 11

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            format_rows([])


BS_INI = """\
[model]
kind = bs
s0 = 50
sigma = 0.3
steps = 8
maturity = 1.0
rate = 0.05  # annualized

[payoff]
kind = asian-basket
strike = 45 50 55

[run]
methods = mc, la
alloc = opt
strata = 10
n_samples = 2000
seed = 7

[output]
format = json
"""


class TestLoadConfig:
    def test_full_grammar(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(BS_INI)
        config = load_config(str(path))
        assert config.model == "bs"
        assert config.bs.rate == 0.05  # inline comment stripped
        assert [p.strike for p in config.payoffs] == [45.0, 50.0, 55.0]
        assert config.methods == ["mc", "la"]
        assert config.strata == 10
        assert config.seed == 7
        assert config.format == "json"
        rows = run_experiment(config)
        # one mc row and one la row per strike
        assert len(rows) == 6

    def test_cir_model(self, tmp_path):
        path = tmp_path / "cir.ini"
        path.write_text(textwrap.dedent("""\
            [model]
            kind = cir
            s0 = 100
            alpha = 1.5
            mu = 100
            sigma = 8
            rate = 0.05
            steps = 64

            [payoff]
            kind = asian-basket
            strike = 100
            """))
        config = load_config(str(path))
        assert config.model == "cir"
        assert config.cir.n_steps == 64
        assert config.methods == ["mc"]  # default

    def test_multi_asset_with_common_correlation(self, tmp_path):
        path = tmp_path / "basket.ini"
        path.write_text(textwrap.dedent("""\
            [model]
            kind = bs
            s0 = 50 60
            sigma = 0.3
            rho = 0.2
            steps = 4

            [payoff]
            kind = asian-basket
            strike = 55
            """))
        config = load_config(str(path))
        assert config.bs.n_assets == 2
        np.testing.assert_array_equal(config.bs.sigma, [0.3, 0.3])
        assert config.bs.corr[0][1] == 0.2

    def test_basket_without_rho_is_uncorrelated(self, tmp_path):
        text = (DEMOS / "configs" / "basket.ini").read_text()
        path = tmp_path / "basket.ini"
        path.write_text("".join(ln for ln in text.splitlines(keepends=True)
                                if not ln.startswith("rho")))
        config = load_config(str(path))
        np.testing.assert_array_equal(config.bs.corr, np.eye(5))
        assert main(["experiment", "--config", str(path),
                     "--out", str(tmp_path / "table.csv")]) == 0

    def test_missing_sections(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nkind = bs\ns0 = 50\nsigma = 0.3\nsteps = 4\n")
        with pytest.raises(ConfigInvalid):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigInvalid):
            load_config("/nonexistent/exp.ini")

    def test_barrier_needs_single_asset(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(textwrap.dedent("""\
            [model]
            kind = bs
            s0 = 50 60
            sigma = 0.3
            steps = 4

            [payoff]
            kind = asian-barrier-expiry
            strike = 50
            barrier = 70
            """))
        with pytest.raises(ConfigInvalid, match="single-asset"):
            load_config(str(path))


class TestCli:
    def test_experiment_end_to_end(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        out = tmp_path / "table.csv"
        code = main(["experiment", "--config", str(ini), "--out", str(out),
                     "--format", "csv", "--seed", "3"])
        assert code == 0
        rows = parse_csv(out.read_text())
        assert len(rows) == 6
        assert all(r.seed == 3 for r in rows)  # CLI override wins

    def test_price_command(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        assert main(["price", "--config", str(ini)]) == 0
        text = capsys.readouterr().out
        assert "price" in text
        assert "std error" in text

    def test_directions_command(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        out = tmp_path / "dirs.txt"
        assert main(["directions", "--config", str(ini),
                     "--out", str(out)]) == 0
        assert "# column" in out.read_text()
        assert "la" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI.replace("mc, la", "warp"))
        assert main(["experiment", "--config", str(ini)]) == 2

    @pytest.mark.parametrize("text", [
        BS_INI.replace("strike = 45 50 55", "strike = 45\nbarrier = abc"),
        BS_INI + "\n[model]\nkind = cir\n",
        BS_INI.replace("strike = 45 50 55", "strike = 45\nbarrier = 60\nbarrier = 70"),
        "\xff" + BS_INI,
    ], ids=["barrier-not-a-number", "duplicate-section", "duplicate-key",
            "not-utf8"])
    def test_malformed_config_exit_code(self, tmp_path, text):
        ini = tmp_path / "exp.ini"
        ini.write_bytes(text.encode("latin-1"))
        assert main(["experiment", "--config", str(ini)]) == 2

    def test_missing_config_exit_code(self):
        assert main(["experiment", "--config", "/nonexistent.ini"]) == 2

    def test_selftest_single_criterion(self, capsys):
        assert main(["selftest", "--only", "7"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]  7 allocation-optimality" in out
        assert "1/1 criteria passed" in out

    def test_selftest_unknown_criterion(self):
        assert main(["selftest", "--only", "99"]) == 2
