"""Benchmark workloads: INI experiment descriptions keyed by name.

A workload is one or more INI tables.  The benchmark writes each with the
run's seed and hands it to ``stratmc.experiment.load_config``; the program
sees nothing else.  ``bs-asian-table`` and ``cir-asian-table`` copy the demo
configs ``demos/configs/bs_asian.ini`` and ``cir_asian.ini`` so that later
edits to the demos do not move the benchmark.

The ``tiny`` size shrinks the budget and the stratum count so the benchmark's
own test runs each workload in a second or two.
"""
from __future__ import annotations

_BS_MODEL = {"kind": "bs", "s0": "50", "sigma": "0.3", "rate": "0.05",
             "steps": "64", "maturity": "1.0"}
_MANY_STRATA_RUN = {"strata": "10000", "n_samples": "200000"}

# workload name -> the tables (INI sections) one repetition prices in turn
WORKLOADS = {
    # the paper's headline table; RNG- and bs_basket_g-bound; the only
    # multi-strike workload
    "bs-asian-table": [{
        "model": _BS_MODEL,
        "payoff": {"kind": "asian-basket", "strike": "45 50 55"},
        "run": {"methods": "mc, lhs, la, lt, pca, la+pca", "alloc": "const, opt",
                "strata": "100", "n_samples": "100000",
                "lhs_replications": "30"},
    }],
    # Euler path map and payoffs on path matrices; pilot-pca and CIR LT
    # engines; never calls bs_basket_g
    "cir-asian-table": [{
        "model": {"kind": "cir", "s0": "100", "alpha": "1.5", "mu": "100",
                  "sigma": "8", "rate": "0.05", "steps": "64",
                  "maturity": "1.0"},
        "payoff": {"kind": "asian-basket", "strike": "100"},
        "run": {"methods": "mc, lhs, la, lt, pilot-pca", "alloc": "const, opt",
                "strata": "100", "n_samples": "100000",
                "lhs_replications": "30"},
    }],
    # 10000 strata (a 100 x 100 grid for two-dir-la): per-stratum Python
    # overhead dominates.  two-dir-la runs under const only, in a second
    # table: its opt cell reports a heavy-tailed variance (5 to 170 across
    # seeds), which no bound on vr_gmean or eff_gain could hold
    "many-strata": [
        {"model": _BS_MODEL,
         "payoff": {"kind": "asian-basket", "strike": "50"},
         "run": {"methods": "mc, la", "alloc": "const, opt", **_MANY_STRATA_RUN}},
        {"model": _BS_MODEL,
         "payoff": {"kind": "asian-basket", "strike": "50"},
         "run": {"methods": "mc, two-dir-la", "alloc": "const", **_MANY_STRATA_RUN}},
    ],
}

TINY = {
    "bs-asian-table": {"strata": "10", "n_samples": "3000"},
    "cir-asian-table": {"strata": "10", "n_samples": "3000"},
    "many-strata": {"strata": "100", "n_samples": "4000"},
}

SIZES = ("full", "tiny")


def ini_texts(name: str, seed: int, size: str = "full") -> list[str]:
    """The INI files of one workload at the given seed and size."""
    texts = []
    for table in WORKLOADS[name]:
        sections = {key: dict(values) for key, values in table.items()}
        if size == "tiny":
            sections["run"].update(TINY[name])
        sections["run"]["seed"] = str(seed)
        sections["output"] = {"format": "csv"}
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        texts.append("\n".join(lines))
    return texts
