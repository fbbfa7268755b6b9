"""Experiment runner, INI parsing, table output and the command line.

Ground truth: the plain-MC baseline row prices each contract; every
stratified row must agree with it within combined standard errors, and the
deterministic time_ratio column follows directly from the operation counts
(mc 1.0, lhs 2.0, one extra projection per direction otherwise).
"""
import csv
import ctypes
import dataclasses
import io
import json
import re
import tempfile
import time
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import f as f_dist

from stratmc import (
    METHODS,
    BsParams,
    CirParams,
    ConfigInvalid,
    ExperimentConfig,
    StratMcError,
    bs_asian_params,
    bs_gradient,
    cir_asian_params,
    cir_gradient,
    direction_sets,
    engines,
    format_rows,
    load_config,
    normalize_sign,
    run_experiment,
)
from stratmc import experiment, stratify
from stratmc.cli import main
from stratmc.experiment import _MODELS
from stratmc.payoffs import KINDS, PayoffSpec
from stratmc.stratify import _openblas_threads

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def read_table(text: str) -> list[dict]:
    """A CSV table's rows, each a {column: field text} dict."""
    return list(csv.DictReader(io.StringIO(text)))


def small_bs_config(**overrides) -> ExperimentConfig:
    base = dict(params=bs_asian_params(), payoffs=[PayoffSpec(50.0)],
                methods=["la"],
                allocs=["opt"], strata=20, n_samples=4000,
                lhs_replications=10, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


def small_cir_config(**overrides) -> ExperimentConfig:
    base = dict(params=cir_asian_params(), payoffs=[PayoffSpec(100.0)],
                methods=["la"],
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
        # per draw: d variates for mc, 2d for lhs and d + d' for a cell
        # with d' directions, over the mc row's n_samples * d
        config = small_bs_config(methods=["lhs", "la", "two-dir-la"])
        rows = run_experiment(config)
        d, n = config.params.dim, config.n_samples
        ratio = {r.method: r.time_ratio for r in rows}
        assert ratio["mc"] == 1.0
        assert ratio["lhs"] == 2.0
        directions = {"la": 1, "two-dir-la": 2}
        assert [(r.method, r.alloc) for r in rows[2:]] == \
            [("la", "opt"), ("two-dir-la", "opt")]
        for row in rows[2:]:
            assert row.time_ratio == \
                row.n_samples * (d + directions[row.method]) / (n * d)

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


def strikes_config(strikes, **overrides) -> ExperimentConfig:
    return small_bs_config(payoffs=[PayoffSpec(k) for k in strikes],
                           **overrides)


class TestSharedDraws:
    """The strikes of one table share their draws (common random numbers)."""

    CELLS = dict(methods=["lhs", "la", "la+pca"], allocs=["const", "opt"],
                 strata=16)

    @staticmethod
    def rows_of(rows, strike, with_opt=False):
        return [r for r in rows if r.strike == strike
                and (with_opt or r.alloc != "opt")]

    def test_rows_match_smaller_tables(self):
        # mc, lhs and const rows depend on their own contract only: a
        # strike's rows are the same bytes alone, in a pair and in a triple
        triple = run_experiment(strikes_config([45, 50, 55], **self.CELLS))
        for strikes in ([45], [55], [45, 55], [50, 55]):
            table = run_experiment(strikes_config(strikes, **self.CELLS))
            for k in strikes:
                assert format_rows(self.rows_of(table, k)) == \
                    format_rows(self.rows_of(triple, k)), (strikes, k)
        # rows keep the one-table-per-contract order
        assert [r.strike for r in triple] == [45.0] * 6 + [50.0] * 6 + [55.0] * 6

    def test_opt_rows_depend_on_the_strike_list(self):
        # an opt row prices from a main-stage pool sized by every strike's
        # allocation, so its draws move with the strike list; its budget
        # does not
        alone = run_experiment(strikes_config([50], **self.CELLS))
        triple = run_experiment(strikes_config([45, 50, 55], **self.CELLS))
        opt = lambda rows: [r for r in self.rows_of(rows, 50.0, True)
                            if r.alloc == "opt"]
        assert [r.n_samples for r in opt(alone)] == [r.n_samples for r in opt(triple)]
        assert [r.price for r in opt(alone)] != [r.price for r in opt(triple)]

    def test_opt_row_agrees_with_its_one_strike_table(self):
        # over 20 seeds the K=50 la/opt row of a three-strike table and of
        # a one-strike table estimate the same price with the same variance
        seeds = range(1000, 1020)
        price, var = {}, {}
        for strikes in ([50], [45, 50, 55]):
            rows = [[r for r in run_experiment(strikes_config(
                        strikes, allocs=["opt"], seed=seed))
                     if r.strike == 50.0 and r.method == "la"][0]
                    for seed in seeds]
            price[len(strikes)] = np.array([r.price for r in rows])
            var[len(strikes)] = np.array([r.variance for r in rows])
        se = np.sqrt(sum(p.var(ddof=1) / p.size for p in price.values()))
        assert abs(price[1].mean() - price[3].mean()) < 3.0 * se
        # an F(20, 20) bound, one degree of freedom per seed, on the ratio
        # of the mean reported variances, at the 0.1% level each way
        bound = f_dist.ppf(0.999, len(seeds), len(seeds))
        assert 1 / bound < var[3].mean() / var[1].mean() < bound

    def test_cell_time_is_split_between_rows(self):
        config = strikes_config([45, 50, 55], **self.CELLS)
        t0 = time.perf_counter()
        rows = run_experiment(config)
        wall = time.perf_counter() - t0
        assert all(r.wall_seconds > 0.0 for r in rows)
        assert sum(r.wall_seconds for r in rows) <= wall
        # the three rows of a cell share its time equally
        for cell in zip(*(self.rows_of(rows, k, True) for k in (45, 50, 55))):
            assert len({r.wall_seconds for r in cell}) == 1

    def test_cell_time_spans_the_estimator_call_only(self, monkeypatch):
        # an la cell's time takes in its estimator's sleep; the lhs cell's
        # leaves out the sleep of the LT rotation built for it
        real = experiment.two_stage_estimate

        def slow_estimate(*args, **kwargs):
            time.sleep(0.1)
            return real(*args, **kwargs)
        monkeypatch.setattr(experiment, "two_stage_estimate", slow_estimate)
        config = strikes_config([45, 50], methods=["lhs", "la"],
                                allocs=["const"])
        lt = config.engines["lt"]

        def slow_lt(count):
            time.sleep(0.2)
            return lt(count)
        monkeypatch.setitem(config.engines, "lt", slow_lt)
        rows = run_experiment(config)
        spent = lambda method: sum(r.wall_seconds for r in rows
                                   if r.method == method)
        assert spent("la") >= 0.1
        assert spent("lhs") < 0.2


class TestOneBlasThread:
    """run_experiment holds every loaded OpenBLAS at one thread while a
    table runs, and gives each library its own count back."""

    @staticmethod
    def counts(libraries):
        return [get() for get, _ in libraries]

    @pytest.fixture
    def libraries(self):
        # two threads each, so that a restored count differs from the held
        # one; the process's own counts come back after the test
        import scipy.linalg.blas  # noqa: F401
        found = _openblas_threads()
        if not found:
            pytest.skip("no OpenBLAS is loaded")
        before = self.counts(found)
        for _, set_ in found:
            set_(2)
        yield found
        for n, (_, set_) in zip(before, found):
            set_(n)

    @pytest.mark.parametrize("name", ["plain_mc_estimate", "lhs_estimate",
                                      "two_stage_estimate"])
    def test_cells_run_at_one_thread(self, libraries, monkeypatch, name):
        held, seen = self.counts(libraries), []
        estimate = getattr(experiment, name)

        def wrapped(*args, **kwargs):
            seen.append(self.counts(libraries))
            return estimate(*args, **kwargs)
        monkeypatch.setattr(experiment, name, wrapped)
        run_experiment(small_bs_config(methods=["lhs", "la"]))
        assert seen == [[1] * len(libraries)]
        assert self.counts(libraries) == held

    def test_counts_come_back_when_a_cell_raises(self, libraries, monkeypatch):
        held = self.counts(libraries)

        def failing(*args, **kwargs):
            raise StratMcError("cell failed")
        monkeypatch.setattr(experiment, "two_stage_estimate", failing)
        with pytest.raises(StratMcError, match="cell failed"):
            run_experiment(small_bs_config())
        assert self.counts(libraries) == held

    def test_a_second_hold_scans_nothing(self, libraries, monkeypatch):
        # the libraries are found once per process: a later hold opens no
        # maps file and loads no library, and still holds and restores
        held = self.counts(libraries)
        with stratify._one_blas_thread():
            pass

        def scan(*args, **kwargs):
            raise AssertionError("a later hold scanned again")
        monkeypatch.setattr(stratify, "open", scan, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", scan)
        with stratify._one_blas_thread():
            inside = self.counts(libraries)
        assert inside == [1] * len(libraries)
        assert self.counts(libraries) == held

    def test_no_maps_file_finds_no_library(self, monkeypatch):
        # the scan returns a tuple in every case, so that the one cached
        # result is immutable
        def missing(*args, **kwargs):
            raise OSError("no maps file")
        monkeypatch.setattr(stratify, "open", missing, raising=False)
        found = stratify._openblas_threads.__wrapped__()
        assert found == () and type(found) is tuple

    def test_bytes_do_not_depend_on_the_hold(self, monkeypatch):
        config = small_bs_config(methods=["lhs", "la", "la+pca"],
                                 allocs=["const", "opt"], strata=16)
        held = format_rows(run_experiment(config))
        # a scan that finds no OpenBLAS leaves every count alone
        monkeypatch.setattr(stratify, "_openblas_threads", list)
        assert format_rows(run_experiment(config)) == held


class TestBuildDirections:
    """direction_sets builds each stratified method's set from the model's
    engines."""

    # engines of each model; every method names one or two of them
    ENGINES = {"bs": {"la", "lt", "pca"}, "cir": {"la", "lt", "pilot-pca"}}

    @pytest.mark.parametrize("config", [small_bs_config(), small_cir_config()],
                             ids=["bs", "cir"])
    def test_methods_compose_engines(self, config):
        assert engines(config.params).keys() == self.ENGINES[config.model]

        def build(method):
            sets = direction_sets(dataclasses.replace(config, methods=[method]))
            return sets[method]
        for method in list(METHODS)[2:]:
            if method.startswith("two-dir-"):
                names, count = (method[len("two-dir-"):],), 2
            else:
                names, count = tuple(method.split("+")), 1
            assert METHODS[method] == (names, count), method
            if not set(names) <= self.ENGINES[config.model]:
                with pytest.raises(ConfigInvalid):
                    build(method)
                continue
            ds = build(method)
            assert ds.count == len(names) * count, method
            if "+" in method:
                for j, name in enumerate(method.split("+")):
                    np.testing.assert_array_equal(ds.columns[:, j],
                                                  build(name).columns[:, 0])
            elif count == 2:
                single = build(method[len("two-dir-"):])
                np.testing.assert_array_equal(ds.columns[:, 0], single.columns[:, 0])
        # the baselines stratify nothing
        assert direction_sets(
            dataclasses.replace(config, methods=["mc", "lhs"])) == {}

    def test_la_engine_is_the_gradient_direction(self):
        # one iterated-gradient direction is the normalized zero-noise
        # gradient, bit for bit
        bs, cir = small_bs_config(), small_cir_config()
        for config, grad in (
                (bs, bs_gradient(bs.params, np.zeros(bs.params.dim))),
                (cir, cir_gradient(cir.params, np.zeros(cir.params.dim)))):
            np.testing.assert_array_equal(
                direction_sets(config)["la"].columns[:, 0],
                normalize_sign(grad / float(np.linalg.norm(grad))))


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["warp"])

    def test_pilot_pca_requires_cir(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["pilot-pca"])

    def test_pca_requires_bs(self):
        with pytest.raises(ConfigInvalid):
            small_cir_config(methods=["pca"])

    def test_params_must_be_a_model(self):
        with pytest.raises(ConfigInvalid, match="BsParams or CirParams"):
            small_bs_config(params={"s0": 50.0})

    def test_budget_must_cover_strata(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(strata=100, n_samples=150)

    def test_unstratified_methods_need_no_strata_budget(self):
        # mc and lhs stratify nothing, so only their own budgets count
        config = small_bs_config(methods=["mc", "lhs"], strata=100,
                                 n_samples=150)
        assert [r.method for r in run_experiment(config)] == ["mc", "lhs"]
        with pytest.raises(ConfigInvalid, match="n_samples must be >= 2"):
            small_bs_config(methods=[], n_samples=1)

    def test_two_direction_methods_need_grid(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["la+pca"], strata=3)

    def test_unknown_alloc_and_format(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(allocs=["greedy"])
        with pytest.raises(ConfigInvalid):
            small_bs_config(format="xml")

    def test_opt_pilot_must_leave_a_main_stage(self):
        # 10 strata: the pilot takes max(round(0.1 n), 20) draws and the
        # main stage needs 20 more
        with pytest.raises(ConfigInvalid, match="after its pilot"):
            small_bs_config(strata=10, n_samples=39)
        small_bs_config(strata=10, n_samples=40)
        small_bs_config(strata=10, n_samples=39, allocs=["const"])
        # a 3 x 3 grid has 9 strata
        small_bs_config(methods=["two-dir-la"], strata=10, n_samples=36)

    @pytest.mark.parametrize("key, value", [
        ("strata", 2.5), ("strata", True), ("n_samples", 2000.0),
        ("lhs_replications", 10.0), ("seed", 1.5),
    ])
    def test_run_settings_must_be_integers(self, key, value):
        # unchecked, seed 1.5 would price seed 1's draws under its own
        # label, and a float budget would fail mid-table
        with pytest.raises(ConfigInvalid, match=f"^run.{key} must be an integer$"):
            small_bs_config(methods=["mc", "lhs", "la"], **{key: value})
        small_bs_config(methods=["mc", "lhs", "la"], **{key: np.int64(value)})

    def test_lhs_needs_replications(self):
        with pytest.raises(ConfigInvalid):
            small_bs_config(methods=["lhs"], lhs_replications=1)

    def test_config_is_immutable(self):
        config = small_bs_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 12

    def test_replace_checks_again(self):
        with pytest.raises(ConfigInvalid, match="run.strata must be >= 1"):
            dataclasses.replace(small_bs_config(), strata=0)

    def test_replaced_seed_rebuilds_the_engine_table(self):
        # the kept engine table follows the seed: the pilot-pca direction of
        # a replaced seed is the one a config built at that seed draws
        config = small_cir_config(methods=["pilot-pca"])
        replaced = direction_sets(dataclasses.replace(config, seed=6))
        built = direction_sets(small_cir_config(methods=["pilot-pca"], seed=6))
        np.testing.assert_array_equal(replaced["pilot-pca"].columns,
                                      built["pilot-pca"].columns)
        assert not np.array_equal(replaced["pilot-pca"].columns,
                                  direction_sets(config)["pilot-pca"].columns)


class TestTables:
    def test_csv_round_trip(self):
        # every float column reads back bit for bit from its 17 digits
        rows = run_experiment(small_bs_config(methods=["la", "lhs"]))
        records = read_table(format_rows(rows, "csv"))
        assert len(records) == len(rows)
        for rec, row in zip(records, rows):
            assert (rec["method"], rec["alloc"], rec["payoff"], rec["barrier"]) \
                == (row.method, row.alloc, row.payoff, "")
            for col in ("strike", "price", "variance", "time_ratio"):
                assert float(rec[col]) == getattr(row, col), col
            for col in ("n_samples", "strata", "seed"):
                assert int(rec[col]) == getattr(row, col), col

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

    def test_unknown_format_rejected(self):
        rows = run_experiment(small_bs_config(methods=[]))
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            format_rows(rows, "xml")


def load_text(text: str) -> ExperimentConfig:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text(text)
        return load_config(str(path))


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
CIR_INI = textwrap.dedent("""\
    [model]
    kind = cir
    s0 = 100
    alpha = 1.5
    mu = 100
    sigma = 8
    steps = 8
    """) + BS_INI[BS_INI.index("[payoff]"):]
# configs with a key or section outside the grammar, and the name each
# error message must give
UNKNOWN_NAMES = {
    "unknown-run-key": (BS_INI.replace("seed = 7", "seed = 7\nn_sample = 5000"),
                        "run.n_sample"),
    "removed-key": (BS_INI.replace("seed = 7", "seed = 7\npilot_fraction = 0.2"),
                    "run.pilot_fraction"),
    "unknown-section": (BS_INI.replace("[run]", "[runs]"), "[runs]"),
    "rho-on-cir": (CIR_INI.replace("steps = 8", "steps = 8\nrho = 0.2"),
                   "model.rho"),
    "default-section": ("[DEFAULT]\nseed = 3\n" + BS_INI, "[DEFAULT]"),
}


# methods that need two directions, more than a one-asset, one-step model has
ONE_STEP_METHODS = ("two-dir-la", "two-dir-lt", "two-dir-pca", "la+pca",
                    "lt+pca")


class TestLoadConfig:
    def test_full_grammar(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(BS_INI)
        config = load_config(str(path))
        assert config.model == "bs"
        assert config.params.rate == 0.05  # inline comment stripped
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
        assert config.params.n_steps == 64
        assert config.methods == []  # default; the mc row is always priced

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
        assert config.params.n_assets == 2
        np.testing.assert_array_equal(config.params.sigma, [0.3, 0.3])
        assert config.params.corr[0][1] == 0.2

    def test_basket_without_rho_is_uncorrelated(self, tmp_path):
        text = (DEMOS / "configs" / "basket.ini").read_text()
        path = tmp_path / "basket.ini"
        path.write_text("".join(ln for ln in text.splitlines(keepends=True)
                                if not ln.startswith("rho")))
        config = load_config(str(path))
        np.testing.assert_array_equal(config.params.corr, np.eye(5))
        assert main(["experiment", "--config", str(path),
                     "--out", str(tmp_path / "table.csv")]) == 0

    @pytest.mark.parametrize("kind, expected", [
        ("bs", BsParams(s0=[50.0], sigma=[0.3], steps=4)),
        ("cir", CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, n_steps=4)),
    ])
    def test_model_keys_are_the_class_fields(self, kind, expected):
        # [model] sets exactly the class's init fields, and a key the file
        # leaves out takes the class's default, so each default is stated once
        build, keys = _MODELS[kind]
        assert type(expected) is build
        assert sorted(attr for attr, _ in keys.values()) == sorted(
            f.name for f in dataclasses.fields(build) if f.init)
        given = {key: BASE_MODEL[kind][key] for key in
                 ("s0", "sigma", "steps", "alpha", "mu") if key in keys}
        text = render({"model": {"kind": kind, **given},
                       "payoff": {"kind": "asian-basket", "strike": "50"}})
        params = load_text(text).params
        for f in dataclasses.fields(build):
            assert np.array_equal(getattr(params, f.name),
                                  getattr(expected, f.name)), f.name
        # a field without a default is required
        for key, value in given.items():
            with pytest.raises(ConfigInvalid, match=rf"^model\.{key} is required$"):
                load_text(text.replace(f"{key} = {value}\n", ""))

    @pytest.mark.parametrize("text, name", UNKNOWN_NAMES.values(),
                             ids=UNKNOWN_NAMES.keys())
    def test_unknown_key_or_section_is_named(self, text, name):
        with pytest.raises(ConfigInvalid, match=re.escape(name)):
            load_text(text)

    def test_missing_cir_key_is_named_once(self):
        with pytest.raises(ConfigInvalid, match=r"^model\.alpha is required$"):
            load_text(CIR_INI.replace("alpha = 1.5\n", ""))

    def test_one_asset_rho_is_a_model_error(self):
        with pytest.raises(ConfigInvalid, match=re.escape(
                "model: rho = 7.0 must lie in (-1, 1) for 1 asset")):
            load_text(MALFORMED["rho-one-asset"][0])

    def test_sigma_count_is_a_model_error(self):
        # corr is derived from rho, so the message states the sigma rule
        with pytest.raises(ConfigInvalid, match=re.escape(
                "model: sigma needs one value or one per asset (2), got 3")):
            load_text(MALFORMED["sigma-count"][0])

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
    "run": {"methods": "mc, la, lt, two-dir-la, lhs", "alloc": "const, opt",
            "strata": "16", "n_samples": "2000", "lhs_replications": "10",
            "seed": "1"},
}


def base_sections(model: str) -> dict:
    return {"model": dict(BASE_MODEL[model]),
            **{name: dict(keys) for name, keys in BASE_REST.items()}}


def render(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def bs_basket_text(**model) -> str:
    """The base lognormal config on an average-price contract, with some
    [model] values replaced."""
    sections = base_sections("bs")
    sections["model"].update(model)
    del sections["payoff"]["barrier"]
    return render(sections)


@st.composite
def ini_texts(draw):
    """A valid config of any model and payoff kind with up to four numeric
    values replaced or removed."""
    model = draw(st.sampled_from(sorted(BASE_MODEL)))
    sections = base_sections(model)
    if model == "bs":
        sections["model"]["s0"] = draw(st.sampled_from(["50", "50 60",
                                                        "40 50 60"]))
    sections["payoff"]["kind"] = draw(st.sampled_from(KINDS))
    if sections["payoff"]["kind"] == "asian-basket":
        del sections["payoff"]["barrier"]
    numeric = sorted((name, key) for name, keys in sections.items()
                     for key in keys if key not in ("kind", "methods", "alloc"))
    edits = draw(st.dictionaries(st.sampled_from(numeric),
                                 st.one_of(st.none(), VALUES), max_size=4))
    for (name, key), value in edits.items():
        if value is None:
            del sections[name][key]
        else:
            sections[name][key] = value
    return render(sections)


@settings(max_examples=300, deadline=None)
@given(ini_texts())
def test_load_config_accepts_or_rejects_as_config_error(text):
    # a config either loads or is rejected as ConfigInvalid (exit 2);
    # a loaded lognormal model always has its path factor
    try:
        config = load_text(text)
    except ConfigInvalid:
        return
    if config.model == "bs":
        assert config.params.factor.shape == (config.params.dim,
                                              config.params.dim)


@settings(max_examples=100, deadline=None)
@given(ini_texts())
# a nearly parallel two-dir-la pair puts unreachable draws thousands of
# standard deviations out, where the payoff overflows
@example(bs_basket_text(rate="4", maturity="4"))
# paths beyond the float64 range
@example(bs_basket_text(rate="50", maturity="50"))
def test_run_experiment_prices_or_raises_stratmc_error(text):
    # every cell of a tiny table prices to finite numbers, or the run fails
    # as a StratMcError (exit 2 or 3); any other exception is a defect
    try:
        rows = run_experiment(load_text(text))
    except StratMcError:
        return
    assert np.all(np.isfinite([(r.price, r.variance) for r in rows]))


# configs that exit 2, and a part of the one-line message each must print
MALFORMED = {
    "barrier-not-a-number": (
        BS_INI.replace("strike = 45 50 55", "strike = 45\nbarrier = abc"),
        "payoff.barrier: could not convert string to float: 'abc'"),
    "duplicate-section": (BS_INI + "\n[model]\nkind = cir\n",
                          "section 'model' already exists"),
    "duplicate-key": (
        BS_INI.replace("strike = 45 50 55", "strike = 45\nbarrier = 60\nbarrier = 70"),
        "option 'barrier' in section 'payoff' already exists"),
    "not-utf8": ("\xff" + BS_INI, "'utf-8' codec can't decode byte 0xff"),
    "zero-steps": (BS_INI.replace("steps = 8", "steps = 0"),
                   "model: steps must be >= 1"),
    "no-steps": (BS_INI.replace("steps = 8\n", ""), "model.steps is required"),
    "unknown-model": (BS_INI.replace("kind = bs", "kind = heston"),
                      "model.kind: unknown model 'heston'"),
    "rho-above-one": (BS_INI.replace("s0 = 50", "s0 = 50 60\nrho = 1.5"),
                      "model: rho = 1.5 must lie in (-1, 1) for 2 assets"),
    "rho-one-asset": (BS_INI.replace("s0 = 50", "s0 = 50\nrho = 7"),
                      "model: rho = 7.0 must lie in (-1, 1) for 1 asset"),
    "rho-not-positive-definite": (
        BS_INI.replace("s0 = 50", "s0 = 40 50 60\nrho = -0.6"),
        "model: rho = -0.6 must lie in (-0.5, 1) for 3 assets"),
    "rho-numerically-singular": (
        BS_INI.replace("s0 = 50", "s0 = 50 60\nrho = 0.99999999999999"),
        "model: pivot at or below tolerance"),
    "sigma-count": (BS_INI.replace("s0 = 50\nsigma = 0.3",
                                   "s0 = 50 60\nsigma = 0.1 0.2 0.3"),
                    "model: sigma needs one value or one per asset (2), got 3"),
    "sigma-numerically-singular": (BS_INI.replace("sigma = 0.3", "sigma = 1e-200"),
                                   "model: Matrix is not positive definite"),
    "opt-pilot-takes-the-budget": (
        BS_INI.replace("n_samples = 2000", "n_samples = 20"),
        "run.n_samples: la/opt over 10 strata needs 40 draws to keep n_min "
        "per stratum after its pilot"),
    "lhs-replications-take-the-budget": (
        BS_INI.replace("mc, la", "mc, lhs").replace("n_samples = 2000",
                                                    "n_samples = 59"),
        "run.n_samples too small for the LHS replications"),
    "no-alloc": (BS_INI.replace("alloc = opt", "alloc ="),
                 "run.alloc: need at least one rule"),
    "no-strike": (BS_INI.replace("strike = 45 50 55", "strike ="),
                  "payoff: at least one contract is required"),
    "unknown-payoff-kind": (
        BS_INI.replace("kind = asian-basket", "kind = lookback"),
        "payoff.kind: unknown kind 'lookback'"),
    "percent-in-value": (BS_INI.replace("strike = 45 50 55", "strike = 45%"),
                         "payoff.strike: '%' must be followed by '%' or '('"),
    "repeated-method": (BS_INI.replace("mc, la", "mc, la, la"),
                        "run.methods: la is repeated"),
    "repeated-alloc": (BS_INI.replace("alloc = opt", "alloc = opt, opt"),
                       "run.alloc: opt is repeated"),
    "repeated-strike": (BS_INI.replace("strike = 45 50 55", "strike = 50 50"),
                        "payoff.strike: 50 is repeated"),
    "barrier-on-basket": (
        BS_INI.replace("strike = 45 50 55", "strike = 45\nbarrier = 60"),
        "payoff: asian-basket takes no barrier"),
    **{key: (text, f"{name}: unknown ") for key, (text, name) in UNKNOWN_NAMES.items()},
    **{f"one-step-{method}": (
        BS_INI.replace("steps = 8", "steps = 1").replace("mc, la", method),
        f"run.methods: {method} needs 2 directions, more than the model's "
        "dimension 1") for method in ONE_STEP_METHODS},
    "cir-sigma-overflows": (CIR_INI.replace("sigma = 8", "sigma = 1e300"),
                            "model: 2*alpha*mu = 300.0 must exceed sigma^2 = inf"),
    **{f"cir-{key}-overflows": (
        CIR_INI.replace(old, new),
        f"model: paths leave the float64 range: the Euler scale bound "
        f"reaches e^{top} > e^354.89")
       for key, old, new, top in [
           ("s0", "s0 = 100", "s0 = 1e300", "690.776"),
           ("alpha", "alpha = 1.5", "alpha = 1e300", "5516.76"),
           ("mu", "mu = 100", "mu = 1e300", "690.776"),
           ("maturity", "steps = 8", "steps = 8\nmaturity = 1e300", "5865.23")]},
    # RandomStream keys on the seed modulo 2**64: -1 would draw seed
    # 2**64 - 1's numbers, and 2**64 seed 0's
    **{f"seed-{value}": (BS_INI.replace("seed = 7", f"seed = {value}"),
                         "run.seed must lie in 0 .. 2**64 - 1")
       for value in (-1, 2**64)},
    "paths-overflow": (
        BS_INI.replace("rate = 0.05", "rate = 50")
        .replace("maturity = 1.0", "maturity = 50").replace("mc, la", "mc"),
        "model: paths leave the float64 range: ln s0 + drift + 10 sigma "
        "sqrt(t) reaches 2522.88 > 709.78"),
}


class TestCli:
    def test_experiment_end_to_end(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        out = tmp_path / "table.csv"
        code = main(["experiment", "--config", str(ini), "--out", str(out),
                     "--format", "csv", "--seed", "3"])
        assert code == 0
        rows = read_table(out.read_text())
        assert len(rows) == 6
        assert all(r["seed"] == "3" for r in rows)  # CLI override wins

    def test_price_command(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        assert main(["price", "--config", str(ini)]) == 0
        text = capsys.readouterr().out
        assert "price" in text
        assert "std error" in text

    def test_price_command_writes_mc_and_cell(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        out = tmp_path / "cell.json"
        assert main(["price", "--config", str(ini), "--out", str(out),
                     "--format", "json"]) == 0
        records = json.loads(out.read_text())
        assert [(r["method"], r["alloc"], r["strike"]) for r in records] == \
            [("mc", "-", 45.0), ("la", "opt", 45.0)]

    def test_price_command_writes_to_the_config_path(self, tmp_path):
        # [output] path serves price as it serves experiment
        out = tmp_path / "cell.json"
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI.replace("[output]", f"[output]\npath = {out}"))
        assert main(["price", "--config", str(ini)]) == 0
        records = json.loads(out.read_text())
        assert [(r["method"], r["alloc"], r["strike"]) for r in records] == \
            [("mc", "-", 45.0), ("la", "opt", 45.0)]

    def test_directions_needs_a_direction_method(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI.replace("mc, la", "mc, lhs"))
        assert main(["directions", "--config", str(ini)]) == 2
        assert "no direction-based method" in capsys.readouterr().err

    def test_directions_command(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI.replace("mc, la", "mc, la, two-dir-la"))
        out = tmp_path / "dirs.txt"
        assert main(["directions", "--config", str(ini),
                     "--out", str(out)]) == 0
        assert out.read_text().count("# column") == 3
        text = capsys.readouterr().out
        assert "[la]" in text
        # the two iterated gradient directions nearly coincide
        ang = float(text.split("angle(col 1, col 2) = ")[1].split()[0])
        assert 0.0 < ang < 5.0

    def test_directions_export_is_direction_sets(self, tmp_path):
        # the exported 17-digit columns are the run's direction sets bit for
        # bit, pilot-pca's sampled direction included
        ini = tmp_path / "exp.ini"
        ini.write_text(CIR_INI.replace("mc, la", "mc, la, pilot-pca, two-dir-lt"))
        out = tmp_path / "dirs.txt"
        assert main(["directions", "--config", str(ini), "--out", str(out)]) == 0
        blocks = out.read_text().split("# column ")[1:]
        exported = np.column_stack([[float(v) for v in b.split()[1:]]
                                    for b in blocks])
        sets = direction_sets(load_config(str(ini)))
        assert list(sets) == ["la", "pilot-pca", "two-dir-lt"]
        np.testing.assert_array_equal(
            exported, np.column_stack([ds.columns for ds in sets.values()]))

    def test_directions_takes_no_format(self, tmp_path):
        # directions prints no table, so --format is not one of its flags
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        with pytest.raises(SystemExit) as exc:
            main(["directions", "--config", str(ini), "--format", "json"])
        assert exc.value.code == 2

    def test_config_error_exit_code(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI.replace("mc, la", "warp"))
        assert main(["experiment", "--config", str(ini)]) == 2

    @pytest.mark.parametrize("text, message", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_malformed_config_exit_code(self, tmp_path, capsys, text, message):
        ini = tmp_path / "exp.ini"
        ini.write_bytes(text.encode("latin-1"))
        assert main(["experiment", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("name", ["basket", "bs_asian", "bs_barrier",
                                      "cir_asian"])
    def test_seed_override_is_checked(self, capsys, name):
        # --seed replaces the loaded config's seed, so it passes the same
        # check as the file's
        ini = str(DEMOS / "configs" / f"{name}.ini")
        for command in ("directions", "price", "experiment"):
            assert main([command, "--config", ini, "--seed", "-1"]) == 2
            assert capsys.readouterr().err == (
                "config error: run.seed must lie in 0 .. 2**64 - 1\n")

    def test_one_step_pilot_pca(self, tmp_path, capsys):
        # one step gives a 1 x 1 pilot covariance
        ini = tmp_path / "exp.ini"
        ini.write_text(CIR_INI.replace("steps = 8", "steps = 1")
                       .replace("mc, la", "mc, pilot-pca"))
        assert main(["experiment", "--config", str(ini)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["method"] for r in rows} == {"mc", "pilot-pca"}
        assert np.all(np.isfinite([(r["price"], r["variance"]) for r in rows]))

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch,
                                     exc, message):
        def run_experiment(config):
            raise exc
        monkeypatch.setattr("stratmc.cli.run_experiment", run_experiment)
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI)
        assert main(["experiment", "--config", str(ini)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # a CIR path this far above mu drowns the noise term of the la/lt
        # expansions: a numeric failure, not a config one
        ini = tmp_path / "exp.ini"
        ini.write_text((DEMOS / "configs" / "cir_asian.ini").read_text()
                       .replace("s0 = 100", "s0 = 1e20"))
        assert main(["experiment", "--config", str(ini)]) == 3
        err = capsys.readouterr().err
        assert err == "error: expansion column vanished after projection\n"

    def test_noiseless_pilot_pca_exit_code(self, tmp_path, capsys):
        # sigma = 0 is a valid model, but its pilot covariance is rounding
        # error and has no direction to give
        ini = tmp_path / "exp.ini"
        ini.write_text(CIR_INI.replace("sigma = 8", "sigma = 0")
                       .replace("mu = 100", "mu = 95")
                       .replace("mc, la", "mc, pilot-pca"))
        assert main(["directions", "--config", str(ini)]) == 3
        assert capsys.readouterr().err == "error: pilot paths carry no variance\n"

    def test_worthless_strike_prices_at_zero(self, tmp_path, capsys):
        # far out of the money every pilot stratum std of that row is zero;
        # its main stage takes n_min per stratum, and the other strikes of
        # the table still price
        ini = tmp_path / "exp.ini"
        ini.write_text(BS_INI.replace("strike = 45 50 55", "strike = 45 100000")
                       .replace("alloc = opt", "alloc = const, opt"))
        out = tmp_path / "table.csv"
        assert main(["experiment", "--config", str(ini), "--out", str(out),
                     "--format", "csv"]) == 0
        rows = read_table(out.read_text())
        assert len(rows) == 6
        for r in rows:
            worthless = float(r["strike"]) == 100000
            assert (float(r["price"]) == 0.0) == worthless
            assert (float(r["variance"]) == 0.0) == worthless

    def test_worthless_strike_leaves_the_opt_pool_alone(self):
        # the worthless row's n_min per stratum stays under every other row's
        # counts, so the main-stage pool, and with it the bytes of the other
        # opt rows, is that of the table without the worthless strike
        text = ((DEMOS / "configs" / "bs_asian.ini").read_text()
                .replace("mc, lhs, la, lt, pca, la+pca", "mc, la, la+pca")
                .replace("alloc = const, opt", "alloc = opt")
                .replace("n_samples = 100000", "n_samples = 20000"))
        alone = run_experiment(load_text(
            text.replace("strike = 45 50 55", "strike = 45")))
        rows = run_experiment(load_text(
            text.replace("strike = 45 50 55", "strike = 45 500")))
        assert rows[:3] == alone
        assert [(r.price, r.variance, r.n_samples) for r in rows[4:]] == \
            [(0.0, 0.0, 2200)] * 2

    def test_vanishing_but_representable_gradient(self, tmp_path):
        # sigma = 40 drives every zero-noise value towards underflow: the
        # gradient's norm is tiny but not zero, so la and lt still have a
        # direction, and every row prices the worthless contract at 0
        text = (BS_INI.replace("sigma = 0.3", "sigma = 40")
                .replace("steps = 8", "steps = 4")
                .replace("strike = 45 50 55", "strike = 50")
                .replace("mc, la", "mc, la, lt"))
        ini = tmp_path / "exp.ini"
        ini.write_text(text.replace("alloc = opt", "alloc = const"))
        out = tmp_path / "table.csv"
        assert main(["experiment", "--config", str(ini), "--out", str(out),
                     "--format", "csv"]) == 0
        rows = read_table(out.read_text())
        assert [r["method"] for r in rows] == ["mc", "la", "lt"]
        assert all(float(r["price"]) == 0.0 and float(r["variance"]) == 0.0
                   for r in rows)
        # under opt every pilot stratum std is zero, so the main stage takes
        # n_min per stratum and prices 0 as well
        ini.write_text(text)
        assert main(["experiment", "--config", str(ini), "--out", str(out),
                     "--format", "csv"]) == 0
        rows = read_table(out.read_text())
        assert [r["method"] for r in rows] == ["mc", "la", "lt"]
        assert all(float(r["price"]) == 0.0 and float(r["variance"]) == 0.0
                   for r in rows)

    def test_missing_config_exit_code(self):
        assert main(["experiment", "--config", "/nonexistent.ini"]) == 2

    def test_selftest_single_criterion(self, capsys):
        assert main(["selftest", "--only", "7"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]  7 allocation-optimality" in out
        assert "1/1 criteria passed" in out

    def test_selftest_unknown_criterion(self):
        assert main(["selftest", "--only", "99"]) == 2
