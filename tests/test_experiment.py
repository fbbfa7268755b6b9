"""Experiment runner, INI parsing, table output and the command line.

Ground truth: the plain-MC baseline row prices each contract; every
stratified row must agree with it within combined standard errors, and the
deterministic time_ratio column follows directly from the operation counts
(mc 1.0, lhs 2.0, one extra projection per direction otherwise).
"""
import json
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratmc import (
    METHODS,
    ConfigInvalid,
    ExperimentConfig,
    RandomStream,
    build_directions,
    bs_asian_params,
    cir_asian_params,
    format_rows,
    la_direction_bs,
    la_direction_cir,
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


def small_cir_config(**overrides) -> ExperimentConfig:
    params = cir_asian_params()
    spec = PayoffSpec(kind="asian-basket", strike=100.0, barrier=None,
                      weights=uniform_weights(1, params.n_steps),
                      discount=float(np.exp(-params.rate * params.maturity)))
    base = dict(model="cir", cir=params, payoffs=[spec], methods=["la"],
                strata=20, n_samples=4000, seed=5)
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
        rows = run_experiment(small_cir_config())
        assert rows[1].variance < rows[0].variance


class TestBuildDirections:
    # engines of each model; every method names one or two of them
    ENGINES = {"bs": {"la", "lt", "pca"}, "cir": {"la", "lt", "pilot-pca"}}

    @pytest.mark.parametrize("config", [small_bs_config(), small_cir_config()],
                             ids=["bs", "cir"])
    def test_methods_compose_engines(self, config):
        stream = RandomStream(3)
        engines = self.ENGINES[config.model]
        for method in METHODS[2:]:
            if method.startswith("two-dir-"):
                names, count = {method[len("two-dir-"):]}, 2
            else:
                names, count = set(method.split("+")), 1
            if not names <= engines:
                with pytest.raises(ConfigInvalid):
                    build_directions(config, method, stream)
                continue
            ds = build_directions(config, method, stream)
            assert ds.count == len(names) * count, method
            if "+" in method:
                for j, name in enumerate(method.split("+")):
                    single = build_directions(config, name, stream)
                    np.testing.assert_array_equal(ds.columns[:, j],
                                                  single.columns[:, 0])
            elif count == 2:
                single = build_directions(config, method[len("two-dir-"):], stream)
                np.testing.assert_array_equal(ds.columns[:, 0], single.columns[:, 0])
        for baseline in ("mc", "lhs"):
            with pytest.raises(ConfigInvalid):
                build_directions(config, baseline, stream)

    def test_la_engine_is_the_gradient_direction(self):
        # one iterated-gradient direction is the LA direction, bit for bit
        bs, cir = small_bs_config(), small_cir_config()
        np.testing.assert_array_equal(
            build_directions(bs, "la", RandomStream(0)).columns[:, 0],
            la_direction_bs(bs.bs))
        np.testing.assert_array_equal(
            build_directions(cir, "la", RandomStream(0)).columns[:, 0],
            la_direction_cir(cir.cir))


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["warp"]).validate()

    def test_pilot_pca_requires_cir(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["pilot-pca"]).validate()

    def test_pca_requires_bs(self):
        with pytest.raises(ConfigInvalid):
            small_cir_config(methods=["pca"]).validate()

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


# numeric INI values: zero, negatives, nan, inf, an overflowing literal,
# non-numbers and values that make the path covariance numerically singular
# (a rho or a sigma) among ordinary values; none exceeds 64, the largest grid
# the parser is asked to allocate
VALUES = st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "-inf", "1e400",
                          "abc", "", "0.3", "0.5", "0.99", "1", "2", "4",
                          "1.5", "50", "64", "0.99999999999999", "1e-200"])
BASE_MODEL = {
    "bs": {"kind": "bs", "s0": "50", "sigma": "0.3", "rho": "0.2",
           "steps": "4", "maturity": "1.0", "rate": "0.05"},
    "cir": {"kind": "cir", "s0": "100", "alpha": "1.5", "mu": "100",
            "sigma": "8", "rate": "0.05", "steps": "4", "maturity": "1.0"},
}
BASE_REST = {
    "payoff": {"kind": "asian-basket", "strike": "50", "barrier": "60"},
    "run": {"methods": "mc, la, two-dir-la, lhs", "strata": "16",
            "n_samples": "2000", "pilot_fraction": "0.1",
            "lhs_replications": "10", "seed": "1"},
}


@st.composite
def ini_texts(draw):
    """A valid config with up to four numeric values replaced or removed."""
    model = draw(st.sampled_from(sorted(BASE_MODEL)))
    sections = {"model": dict(BASE_MODEL[model]),
                **{name: dict(keys) for name, keys in BASE_REST.items()}}
    if model == "bs":
        sections["model"]["s0"] = draw(st.sampled_from(["50", "50 60",
                                                        "40 50 60"]))
    numeric = sorted((name, key) for name, keys in sections.items()
                     for key in keys if key not in ("kind", "methods"))
    edits = draw(st.dictionaries(st.sampled_from(numeric),
                                 st.one_of(st.none(), VALUES), max_size=4))
    for (name, key), value in edits.items():
        if value is None:
            del sections[name][key]
        else:
            sections[name][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@settings(max_examples=300, deadline=None)
@given(ini_texts())
def test_load_config_accepts_or_rejects_as_config_error(text):
    # a config either loads or is rejected as ConfigInvalid (exit 2);
    # a loaded lognormal model always has its path factor
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text(text)
        try:
            config = load_config(str(path))
        except ConfigInvalid:
            return
    if config.model == "bs":
        assert config.bs.factor.shape == (config.dim, config.dim)


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
        BS_INI.replace("steps = 8", "steps = 0"),
        BS_INI.replace("s0 = 50", "s0 = 50 60\nrho = 1.5"),
        BS_INI.replace("s0 = 50", "s0 = 40 50 60\nrho = -0.6"),
        BS_INI.replace("s0 = 50", "s0 = 50 60\nrho = 0.99999999999999"),
        BS_INI.replace("sigma = 0.3", "sigma = 1e-200"),
    ], ids=["barrier-not-a-number", "duplicate-section", "duplicate-key",
            "not-utf8", "zero-steps", "rho-above-one", "rho-not-positive-definite",
            "rho-numerically-singular", "sigma-numerically-singular"])
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
