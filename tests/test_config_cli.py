"""Configuration parsing, pipeline artifacts, and the command-line surface."""

import csv
import hashlib
import json
import math
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from zneboundary.boundary import (
    CrossingEstimate,
    auto_windows,
    crossing_estimates,
    theoretical_boundary,
)
from zneboundary import config as config_module
from zneboundary.cli import main
from zneboundary.config import config_hash, load_config, parse_config
from zneboundary.errors import ConfigError, DomainError
from zneboundary.models import PowerLeakageBinary, scaled_domain_max
from zneboundary.pipeline import (
    build_report,
    read_crossings_csv,
    read_delta_csv,
    run_sweep,
    write_crossings_csv,
    write_delta_csv,
)
from zneboundary.rules import build_rule

DLB_EXACT = {
    "model": {"type": "deterministic_limit_binary", "kappa": 1.0},
    "rule": {"scales": [1, 3], "alloc": "uniform"},
    "grid": {"mode": "auto", "span": [0.1, 10.0], "points_per_decade": 40},
    "budgets": {"lo": 1.0e4, "hi": 1.0e7, "per_decade": 3},
    "windows": {"variance": [1.0e-4, 1.0e-3], "bias": [1.0e-4, 1.0e-3]},
    "output": {"prefix": "dlb"},
}

DLB_MC = {
    "model": {"type": "deterministic_limit_binary", "kappa": 1.0},
    "rule": {"scales": [1, 3], "alloc": "uniform"},
    "grid": {"mode": "auto", "span": [0.2, 5.0], "points_per_decade": 10},
    "budgets": {"values": [2000, 8000, 32000, 128000]},
    "engine": {"kind": "monte_carlo", "replicates": 40},
    "windows": {"variance": [2.0e-3, 5.0e-2], "bias": [2.0e-3, 5.0e-2]},
    "bootstrap": {"statistics": ["s_obs", "c_fit", "eps_star"],
                  "n_replicates": 120, "level": 0.95, "seed": 21},
    "seed": 424242,
    "output": {"prefix": "mc"},
}


BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"


def sweep_crossings(cfg):
    """The crossings of ``cfg``'s sweep, as ``boundary`` finds them, and its raw counts."""
    delta, _, counts = run_sweep(cfg)
    return crossing_estimates(cfg.grids, delta, cfg.budgets), counts


def write_cfg(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestConfig:
    def test_round_trip_and_hash_stability(self, tmp_path):
        path = write_cfg(tmp_path, DLB_EXACT)
        a = load_config(path)
        b = load_config(path)
        assert a.hash() == b.hash()
        assert a.budgets[0] == pytest.approx(1e4)
        assert len(a.budgets) == 10

    def test_set_override_changes_hash(self, tmp_path):
        path = write_cfg(tmp_path, DLB_EXACT)
        base = load_config(path)
        tweaked = load_config(path, overrides=["model.kappa=2.0"])
        assert tweaked.model().kappa == 2.0
        assert tweaked.hash() != base.hash()

    def test_yaml12_float_strings_hash_as_floats(self, tmp_path):
        # YAML 1.1 loads 1e-4 (no dot) as a string, which the readers take as a float
        base = load_config(write_cfg(tmp_path, DLB_EXACT))
        dotless = load_config(write_cfg(tmp_path, DLB_EXACT), overrides=[
            "windows.variance=[1e-4, 1e-3]", "budgets.lo=1e4", "budgets.hi=+1E7"])
        assert dotless.raw["windows"]["variance"] == ["1e-4", "1e-3"]
        assert dotless.windows["variance"] == base.windows["variance"]
        assert dotless.hash() == base.hash()
        for text in ("1e", "e-4", "1e-4x", "12"):  # no dotless exponent number: a string
            canonical = json.dumps({"w": text}, separators=(",", ":"))
            assert config_hash({"w": text}) == hashlib.sha256(canonical.encode()).hexdigest()

    def test_mc_requires_seed(self, tmp_path):
        raw = {k: v for k, v in DLB_MC.items() if k != "seed"}
        with pytest.raises(ConfigError, match="seed is mandatory"):
            parse_config(raw)

    def test_mc_requires_integer_budgets(self):
        raw = dict(DLB_MC, budgets={"values": [1000.5]})
        with pytest.raises(ConfigError, match="integers"):
            parse_config(raw)

    def test_bootstrap_requires_monte_carlo(self):
        raw = dict(DLB_EXACT)
        raw["bootstrap"] = {"statistics": ["s_obs"], "seed": 3}
        with pytest.raises(ConfigError, match="monte_carlo"):
            parse_config(raw)

    @pytest.mark.parametrize("statistics, expected", [
        ([], r"distinct bootstrap statistics, got \[\]"),
        (["s_obs", "c_fit", "s_obs"], r"got \['s_obs', 'c_fit', 's_obs'\]"),
    ], ids=["empty", "repeated"])
    def test_bootstrap_statistics_empty_or_repeated(self, statistics, expected):
        raw = dict(DLB_MC, bootstrap={**DLB_MC["bootstrap"], "statistics": statistics})
        with pytest.raises(ConfigError, match=expected):
            parse_config(raw)

    def test_monomial_cannot_sample(self):
        raw = {
            "model": {"type": "monomial_balance", "p": 1, "q": 0, "d_p": 1.0, "k_q": 1.0},
            "budgets": [1000],
            "engine": {"kind": "monte_carlo", "replicates": 10},
            "seed": 1,
        }
        with pytest.raises(ConfigError, match="no sampler"):
            parse_config(raw)

    def test_monomial_rule_section_still_checked(self):
        # the closed form ignores the rule, but an unknown key is still refused
        raw = {
            "model": {"type": "monomial_balance", "p": 1, "q": 0, "d_p": 1.0, "k_q": 1.0},
            "rule": {"scales": [1, 3], "alocc": "optimal"},
            "budgets": [1000],
        }
        with pytest.raises(ConfigError, match="unknown rule keys"):
            parse_config(raw)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration sections"):
            parse_config(dict(DLB_EXACT, extra={}))

    def test_ruleless_sweep_needs_explicit_grid(self):
        raw = {
            "model": {"type": "deterministic_limit_binary", "kappa": 1.0},
            "rule": None,
            "budgets": [1000],
        }
        with pytest.raises(ConfigError, match="explicit grid"):
            parse_config(raw)

    def test_duplicate_budgets_rejected(self):
        raw = dict(DLB_EXACT, budgets={"values": [10000, 10000, 100000]})
        with pytest.raises(ConfigError, match="strictly ascending, got 10000, 10000, 100000"):
            parse_config(raw)

    def test_optimal_alloc_realloc_flag(self):
        raw = dict(DLB_EXACT, rule={"scales": [1, 3], "alloc": "optimal"})
        cfg = parse_config(raw)
        assert cfg.rule().optimal
        assert cfg.rule().alloc == (0.5, 0.5)  # uniform base fractions

    @pytest.mark.parametrize("eps", [[0.001, 0.002, 0.002, 0.004], [0.002, 0.001, 0.004]])
    def test_explicit_grid_must_be_strictly_ascending(self, eps):
        raw = dict(DLB_EXACT, grid={"mode": "explicit", "eps": eps})
        with pytest.raises(ConfigError, match="strictly ascending, got "
                           + ", ".join(f"{e:g}" for e in eps)):
            parse_config(raw)


    def test_null_section_is_absent(self, tmp_path, monkeypatch):
        cfg = parse_config(dict(DLB_EXACT, grid=None, engine=None, windows=None, output=None))
        assert cfg.grid == parse_config(dict(DLB_EXACT, grid={})).grid
        assert (cfg.engine, cfg.windows, cfg.output) == (
            {"kind": "exact"}, {}, {"dir": ".", "prefix": "run"})
        cfg_path = write_cfg(tmp_path, dict(DLB_EXACT, budgets={"values": [1e4, 1e5]}))
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(cfg_path),
                     "--set", "windows=null", "--set", "output=null"]) == 0
        assert (tmp_path / "run_delta.csv").exists()

    def test_override_inside_null_section(self, tmp_path):
        cfg_path = write_cfg(tmp_path, dict(DLB_EXACT, windows=None))
        cfg = load_config(cfg_path, ["windows.variance=[1.0e-4, 1.0e-3]"])
        assert cfg.windows == {"variance": (1e-4, 1e-3)}
        with pytest.raises(ConfigError, match="cannot override through non-mapping key 'rule'"):
            load_config(write_cfg(tmp_path, dict(DLB_EXACT, rule=5)), ["rule.scales=[1, 3]"])

    def test_unknown_windows_key_named(self):
        with pytest.raises(ConfigError, match=r"unknown windows keys \['n_points'\]"):
            parse_config(dict(DLB_EXACT, windows={"n_points": 40}))

    @pytest.mark.parametrize("base, overrides, named", [
        (DLB_EXACT, ["grid.mode=explicit", "grid.eps=[0.001, abc, 0.004]"],
         "grid.eps must be a number, got 'abc'"),
        (DLB_EXACT, ["budgets=[1000, 1e4x]"], "budgets must be a number, got '1e4x'"),
        (DLB_EXACT, ["windows.variance=[a, b]"], "windows.variance must be a number"),
        (DLB_EXACT, ["windows.bias=0.001"], "windows.bias must be a list"),
        (DLB_MC, ["engine.replicates=abc"], "engine.replicates must be an integer"),
        (DLB_EXACT, ["grid.points_per_decade=abc"], "grid.points_per_decade must be an integer"),
        (DLB_MC, ["bootstrap.statistics=[foo]"], "unknown bootstrap statistics ['foo']"),
        (DLB_MC, ["bootstrap={statistics: [{a: 1}], seed: 3}"],
         "bootstrap statistics must be names, got [{'a': 1}]"),
        (DLB_MC, ["bootstrap.n_replicates=50"], "at least 100 bootstrap replicates"),
        (DLB_MC, ["bootstrap.level=1.5"], "level must lie in (0, 1)"),
        (DLB_MC, ["bootstrap.statistics=[q_hat]", "windows.variance=null"],
         "q_hat/c_plugin need a pre-registered variance window"),
        (DLB_EXACT, ["grid=5"], "grid section must be a mapping, got 5"),
        (DLB_EXACT, ["engine=abc"], "engine section must be a mapping, got 'abc'"),
        (DLB_EXACT, ["windows=[1, 2]"], "windows section must be a mapping"),
        (DLB_EXACT, ["output=x"], "output section must be a mapping, got 'x'"),
        (DLB_EXACT, ["rule.alocc=optimal"], "unknown rule keys ['alocc']; known: alloc, scales"),
        (DLB_EXACT, ["engine.replicate=5"],
         "unknown engine keys ['replicate']; known: kind, replicates"),
        (DLB_EXACT, ["grid.spam=1"],
         "unknown grid keys ['spam']; known: eps, mode, points_per_decade, span"),
        (DLB_EXACT, ["output.prefx=x"], "unknown output keys ['prefx']; known: dir, prefix"),
        (DLB_EXACT, ["output.dir=5"], "output.dir must be a non-empty string, got 5"),
        (DLB_EXACT, ["output.prefix=[a]"], "output.prefix must be a non-empty string, got ['a']"),
        (DLB_EXACT, ["output.prefix=''"], "output.prefix must be a non-empty string, got ''"),
        (DLB_EXACT, ["output.prefix=sub/x"], "output.prefix must be a file-name prefix, "
                                             "got 'sub/x'; directories belong in output.dir"),
        (DLB_EXACT, ["grid={mode: explicit, eps: [0.001, 0.01]}"],
         "grid.eps of an explicit grid must list at least 3 points, got [0.001, 0.01]"),
        (DLB_EXACT, ["rule.scales=5"], "rule.scales must be a list of numbers, got 5"),
        (DLB_EXACT, ["rule.alloc=[a, 1]"], "rule.alloc must be a number, got 'a'"),
        (DLB_EXACT, ["model.kappa=abc"], "model.kappa must be a number, got 'abc'"),
        (DLB_MC, ["seed=true"], "seed must be an integer, got True"),
        (DLB_EXACT, ["windows.bias=[true, 2]"], "windows.bias must be a number, got True"),
        (DLB_MC, ["bootstrap.sead=1"], "unknown bootstrap keys ['sead']"),
        (DLB_EXACT, ["budgets.step=2"], "unknown budgets keys ['step']"),
        (DLB_EXACT, ["grid.points_per_decade=0"],
         "grid.points_per_decade must be a positive integer, got 0"),
        (DLB_EXACT, ["grid.points_per_decade=-3"],
         "grid.points_per_decade must be a positive integer, got -3"),
        (DLB_EXACT, ["budgets={lo: 1000, hi: 100000, per_decade: 0}"],
         "budgets.per_decade must be a positive integer, got 0"),
        (DLB_EXACT, ["budgets.per_decade=-2"],
         "budgets.per_decade must be a positive integer, got -2"),
        (DLB_EXACT, ["budgets=[]"], "budgets must list at least one budget, got []"),
        (DLB_EXACT, ["budgets.values=[]"],
         "budgets.values must list at least one budget, got []"),
        (DLB_EXACT, ["grid.eps=[0.1, 0.2, 0.3]"],
         "an auto grid takes span and points_per_decade, not grid.eps"),
        (DLB_EXACT, ["grid={mode: explicit, eps: [0.1, 0.2, 0.3], span: [0.5, 2.0]}"],
         "an explicit grid takes eps, not grid.span"),
        (DLB_EXACT, ["grid.mode=explicit", "grid.eps=[0.1, 0.2, 0.3]"],
         "an explicit grid takes eps, not grid.points_per_decade, grid.span"),
        (DLB_EXACT, ["budgets.values=[1000, 2000]"],
         "got budgets.values, budgets.hi, budgets.lo, budgets.per_decade"),
        (DLB_MC, ["budgets.lo=5"], "not both; got budgets.values, budgets.lo"),
        (DLB_EXACT, ["budgets={values: [1000, 2000], lo: 5, hi: 1, per_decade: 3}"],
         "budgets takes values or lo, hi, per_decade, not both; got budgets.values, "
         "budgets.hi, budgets.lo, budgets.per_decade"),
    ], ids=["eps", "budgets", "variance", "bias", "replicates", "ppd", "statistics",
            "statistics-type", "n_replicates", "level", "window", "grid-int", "engine-str",
            "windows-list",
            "output-str", "rule-key", "engine-key", "grid-key", "output-key",
            "output-dir-int", "output-prefix-list", "output-prefix-empty",
            "output-prefix-path", "two-point-grid", "rule-scales",
            "rule-alloc", "model-param", "seed-bool", "window-bool", "bootstrap-key",
            "budgets-key", "ppd-zero", "ppd-negative", "per-decade-zero",
            "per-decade-negative", "budgets-empty", "budgets-values-empty",
            "auto-grid-eps", "explicit-grid-span", "budgets-mixed", "explicit-grid-auto-keys",
            "budgets-values-on-ladder", "budgets-ladder-on-values"])
    def test_sweep_refuses_bad_value_naming_it(self, tmp_path, capsys, base, overrides, named):
        cfg_path = write_cfg(tmp_path, dict(base, output={"dir": str(tmp_path), "prefix": "x"}))
        sets = [arg for override in overrides for arg in ("--set", override)]
        assert main(["sweep", "--config", str(cfg_path), *sets]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x_delta.csv").exists()


class TestPipelineArtifacts:
    @pytest.mark.parametrize("engine", [None, {"kind": "monte_carlo", "replicates": 4}])
    def test_domain_cut_windows_keep_the_point_count(self, engine):
        # the domain cuts the windows to about 1.0 (B=1e3) and 1.5 (B=1e4) decades:
        # each keeps the span's 2 decades x 200 points, one table
        raw = {
            "model": {"type": "linear_bias_binary", "mu0": 0.5, "alpha": 1.0},
            "rule": {"scales": [1, 3, 5], "alloc": "uniform"},
            "grid": {"mode": "auto", "span": [0.1, 10.0], "points_per_decade": 200},
            "budgets": {"values": [1000, 10000]},
        }
        if engine:
            raw.update(engine=engine, seed=1)
        cfg = parse_config(raw)
        delta, _, _ = run_sweep(cfg)
        assert cfg.grids.shape == delta.shape == (2, 400)
        top = scaled_domain_max(cfg.model(), cfg.rule().scales) * (1 - 1e-9)
        assert cfg.grids[0, -1] == top
        assert np.all(np.isfinite(delta))

    def test_delta_csv_round_trip(self, tmp_path):
        cfg = parse_config(dict(DLB_EXACT, budgets={"values": [1e4, 1e5, 1e6]}))
        delta, std_err, _ = run_sweep(cfg)
        path = tmp_path / "delta.csv"
        write_delta_csv(path, cfg, delta, std_err)
        back, back_err = read_delta_csv(path, cfg)
        assert back.shape == cfg.grids.shape  # the reader checked each row's (B, eps) cell
        assert np.array_equal(back, delta)  # repr round-trips floats
        assert std_err is None and back_err is None

    def test_delta_reader_memory_is_bounded(self, tmp_path):
        # exact_a's 121 x 400 table, 48,400 rows: the reader streams its row-ending count
        cfg = load_config(BENCH_CONFIGS / "exact_a.yaml")
        eps = cfg.grids
        assert eps.shape == (121, 400)
        delta = np.sin(eps * 1e5)
        path = tmp_path / "delta.csv"
        write_delta_csv(path, cfg, delta, None)
        assert path.stat().st_size > 3e6
        fresh = load_config(BENCH_CONFIGS / "exact_a.yaml")  # its grid table is built in the read
        tracemalloc.start()
        try:
            back, _ = read_delta_csv(path, fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, delta)
        assert peak < 3e6

    @pytest.mark.parametrize("name", ["exact_a", "exact_b", "mc_battery", "mc_sweep"])
    def test_auto_windows_match_the_per_budget_loop(self, name):
        # cfg.grids draws every window in one geomspace call, bit for bit the per-budget one
        cfg = load_config(BENCH_CONFIGS / f"{name}.yaml")
        model, rule = cfg.model(), cfg.rule()
        regime = theoretical_boundary(model, replace(rule, optimal=False))  # the base split
        span, ppd = cfg.grid["span"], cfg.grid["points_per_decade"]
        top = scaled_domain_max(model, rule.scales) * (1 - 1e-9)
        rows = []
        for budget in cfg.budgets:
            guess = regime.predicted_eps_star(budget)
            lo, hi = span[0] * guess, min(span[1] * guess, top)
            rows.append(np.geomspace(lo, hi, max(3, int(round(ppd * math.log10(hi / lo))))))
        grids = cfg.grids
        assert grids.flags.c_contiguous
        assert np.array_equal(grids.view(np.uint64), np.array(rows).view(np.uint64))

    def test_grid_table_checked_where_it_is_built(self, monkeypatch):
        # built once per configuration; a table boundary could not use names the grid
        cfg = parse_config(DLB_MC)
        assert cfg.grids is cfg.grids and not cfg.grids.flags.writeable
        monkeypatch.setattr(config_module, "auto_windows",
                            lambda *args, **kwargs: np.array([[0.1, 0.2]] * 4))
        with pytest.raises(ConfigError, match="auto grid table: need at least 3 grid points, "
                                              "got 2"):
            parse_config(DLB_MC).grids

    def test_crossings_csv_round_trip(self, tmp_path):
        cfg = parse_config(dict(DLB_EXACT, budgets={"values": [1e4, 1e5, 1e6]}))
        crossings, _ = sweep_crossings(cfg)
        path = tmp_path / "cross.csv"
        write_crossings_csv(path, crossings, cfg)
        assert read_crossings_csv(path, cfg) == crossings

    def test_exact_report_contents(self, tmp_path):
        cfg = parse_config(DLB_EXACT)
        crossings, _ = sweep_crossings(cfg)
        report = build_report(cfg, crossings, None)
        assert report["config_hash"] == cfg.hash()
        assert report["pre_registered"]["declared_before_fit"] is True
        assert report["regime"]["c_pq"] == pytest.approx(10.0)
        assert -1.02 <= report["boundary_fit"]["slope"] <= -0.98
        assert 0.98 <= report["variance_fit"]["q_hat"] <= 1.0
        assert report["bias_fit"]["alpha_hat"] == pytest.approx(-1.0, abs=1e-6)
        assert report["constant_check"]["rel_error"] <= 0.10
        assert report["predicted_slope"] == pytest.approx(-1.0, abs=0.01)

    def test_report_echoes_only_the_grid_mode_keys(self):
        explicit = {"mode": "explicit", "eps": np.geomspace(1e-6, 1e-2, 9).tolist()}
        cfg = parse_config(dict(DLB_EXACT, grid=explicit, budgets={"values": [1e4, 1e5]}))
        report = build_report(cfg, sweep_crossings(cfg)[0], None)
        assert report["pre_registered"]["grid"] == explicit

    def test_default_grid_is_the_auto_windows_default(self):
        cfg = parse_config(dict(DLB_EXACT, grid={}))
        assert cfg.grid == {"mode": "auto", "span": (0.1, 10.0), "points_per_decade": 40}
        assert np.array_equal(cfg.grids, auto_windows(cfg.model(), cfg.rule(), cfg.budgets))

    def test_monomial_report_skips_curve_fits(self):
        raw = {
            "model": {"type": "monomial_balance", "p": 2, "q": 1, "d_p": 2.0, "k_q": 3.0},
            "budgets": {"lo": 1.0e3, "hi": 1.0e6, "per_decade": 3},
            "windows": {"variance": [1e-4, 1e-3]},
        }
        cfg = parse_config(raw)
        report = build_report(cfg, sweep_crossings(cfg)[0], None)
        assert report["regime"]["regime"] == "subcritical"
        assert report["boundary_fit"]["slope"] == pytest.approx(-1 / 3, abs=0.01)
        assert "variance_fit" not in report  # no exact curve to fit
        assert "constant_check" not in report

    def test_monte_carlo_optimal_allocation_varies_shots(self):
        raw = dict(DLB_MC, rule={"scales": [1, 3], "alloc": "optimal"},
                   budgets={"values": [2000, 8000, 32000]})
        cfg = parse_config(raw)
        crossings, table = sweep_crossings(cfg)
        # the table holds the reallocating rule it was drawn with
        assert table.rule.optimal
        # optimal split weights the base level more than the amplified one
        level_shots = table.shots[0, 0, 1:, 0]
        assert level_shots[0] > level_shots[1]
        assert level_shots.sum() == 2000
        report = build_report(cfg, crossings, table)
        assert report["regime"]["k_q"] == pytest.approx(
            2.0 * ((1.5 + 0.5 * np.sqrt(3.0)) ** 2 - 1.0)
        )

    def test_monte_carlo_optimal_allocation_c_plugin(self):
        # c_plugin must use K_opt under per-strength reallocation, which the
        # count table's rule spec carries
        plugins = {}
        for alloc in ("uniform", "optimal"):
            raw = dict(DLB_MC, rule={"scales": [1, 3], "alloc": alloc},
                       bootstrap={"statistics": ["c_plugin"], "n_replicates": 100,
                                  "seed": 21})
            cfg = parse_config(raw)
            report = build_report(cfg, *sweep_crossings(cfg))
            est = report["count_estimates"]
            boot = next(e for e in report["bootstrap"] if e["statistic"] == "c_plugin")
            assert boot["point"] == est["c_plugin"]
            plugins[alloc] = est
        est = plugins["optimal"]
        q_hat, nu_hat = est["q_hat"], est["nu_hat"]
        k_opt = nu_hat * ((1.5 + 0.5 * 3.0 ** (q_hat / 2.0)) ** 2 - 1.0)
        assert est["c_plugin"] == pytest.approx(
            (k_opt / est["alpha_hat"] ** 2) ** (1.0 / (2.0 - q_hat)), rel=1e-12
        )
        assert est["c_plugin"] != plugins["uniform"]["c_plugin"]

    def test_linear_bias_report_negative_q_hat(self):
        # a q = 0 model fits a slightly negative q_hat; the plug-in constant
        # must still come out, without the declared-input q >= 0 check
        raw = {
            "model": {"type": "linear_bias_binary", "mu0": 0.5, "alpha": 1.0},
            "rule": {"scales": [1, 3], "alloc": "uniform"},
            "grid": {"mode": "auto", "span": [0.2, 5.0], "points_per_decade": 40},
            "budgets": {"lo": 1.0e4, "hi": 1.0e7, "per_decade": 3},
            "windows": {"variance": [1.0e-4, 1.0e-3], "bias": [1.0e-4, 1.0e-3]},
        }
        cfg = parse_config(raw)
        report = build_report(cfg, sweep_crossings(cfg)[0], None)
        assert report["variance_fit"]["q_hat"] < 0
        check = report["constant_check"]
        assert "error" not in check
        assert check["k_hat"] == pytest.approx(2.9865458760511023, rel=1e-12)
        assert check["c_hat_plugin"] == pytest.approx(1.727933816058377, rel=1e-12)

    def test_monte_carlo_report_with_bootstrap(self, tmp_path):
        cfg = parse_config(DLB_MC)
        crossings, counts = sweep_crossings(cfg)
        report = build_report(cfg, crossings, counts)
        names = {entry["statistic"] for entry in report["bootstrap"]}
        assert {"s_obs", "c_fit"} <= names
        assert any(name.startswith("eps_star[") for name in names)
        s_obs = next(e for e in report["bootstrap"] if e["statistic"] == "s_obs")
        assert s_obs["ci_lo"] <= s_obs["point"] <= s_obs["ci_hi"]
        assert report["count_estimates"]["q_hat"] == pytest.approx(1.0, abs=0.2)
        # byte-identical on JSON re-serialization
        assert json.dumps(report, sort_keys=True) == json.dumps(
            build_report(cfg, crossings, counts), sort_keys=True
        )


class TestArtifactReaderErrors:
    """A malformed delta or crossing table is refused with the file and row named."""

    @staticmethod
    def corrupt(tmp_path, name, write, read, edit):
        path = tmp_path / name
        write(path)
        lines = path.read_text().splitlines(keepends=True)
        edit(lines)  # lines[0] is the schema comment, lines[1] the column header
        path.write_text("".join(lines))
        with pytest.raises(ConfigError) as err:
            read(path)
        assert str(path) in str(err.value)
        return str(err.value)

    SWEEP = dict(DLB_EXACT, budgets={"values": [1e4, 1e5, 1e6]})
    # two budgets on one explicit grid, for hand-written tables
    TWO = dict(DLB_MC, grid={"mode": "explicit", "eps": [0.0009, 0.0011, 0.01, 0.02]},
               budgets={"values": [10000, 100000]})

    def delta(self, tmp_path, edit):
        cfg = parse_config(self.SWEEP)
        delta, std_err, _ = run_sweep(cfg)
        return self.corrupt(tmp_path, "delta.csv",
                            lambda p: write_delta_csv(p, cfg, delta, std_err),
                            lambda p: read_delta_csv(p, cfg), edit)

    def mc_delta(self, tmp_path, edit):
        """A Monte Carlo table of the TWO configuration: delta 1.0 and std_err 0.5 per cell."""
        cfg = parse_config(self.TWO)
        return self.corrupt(tmp_path, "mc.csv",
                            lambda p: write_delta_csv(p, cfg, np.ones((2, 4)),
                                                      np.full((2, 4), 0.5)),
                            lambda p: read_delta_csv(p, cfg), edit)

    # the TWO budgets spelled as a ladder, which numpy expands
    LADDER = {"lo": 1.0e4, "hi": 1.0e5, "per_decade": 1}

    def crossings(self, tmp_path, edit, budgets=None):
        cfg = parse_config(dict(self.TWO, budgets=budgets or self.TWO["budgets"]))
        crossings = [
            CrossingEstimate(1e4, 0.001, "crossed", 0.0009, 0.0011),
            CrossingEstimate(1e5, None, "no_negative_region"),
        ]
        return self.corrupt(tmp_path, "cross.csv",
                            lambda p: write_crossings_csv(p, crossings, cfg),
                            lambda p: read_crossings_csv(p, cfg), edit)

    def test_delta_budget_with_fewer_rows(self, tmp_path):
        grid = parse_config(self.SWEEP).grids[1].tolist()
        msg = self.delta(tmp_path, lambda lines: lines.pop(2 + len(grid) + 3))
        assert (f"data row {len(grid) + 4} (B=100000.0, eps={grid[4]!r}): not the "
                f"configuration's cell (B=100000.0, eps={grid[3]!r})") in msg

    def test_delta_non_numeric_value(self, tmp_path):
        def edit(lines):
            lines[6] = lines[6].replace(lines[6].split(",")[2], "oops")
        msg = self.delta(tmp_path, edit)
        assert "data row 5 " in msg and "delta not a number" in msg

    def test_delta_missing_std_err_column(self, tmp_path):
        def edit(lines):
            for i in range(1, len(lines)):
                lines[i] = lines[i].replace(",std_err,", ",").replace(",,", ",")
        msg = self.delta(tmp_path, edit)
        assert "column header 'B,eps,delta,source'" in msg

    def test_delta_truncated_row(self, tmp_path):
        def edit(lines):
            lines[4] = lines[4].split(",")[0] + "\r\n"
        msg = self.delta(tmp_path, edit)
        assert "data row 3 " in msg and "eps, delta not a number" in msg

    @pytest.mark.parametrize("row, fields", [(3, ["", ""]), (7, [])],
                             ids=["extra-empty", "missing-std_err"])
    def test_delta_row_field_count_checked(self, tmp_path, row, fields):
        def edit(lines):  # data row r is lines[r + 1]
            b, eps, delta, *_ = lines[row + 1].split(",")
            lines[row + 1] = ",".join([b, eps, delta, *fields, "exact"]) + "\r\n"
        msg = self.delta(tmp_path, edit)
        assert f"data row {row} " in msg and f"{len(fields) + 4} fields, expected 5" in msg

    def test_delta_short_last_budget(self, tmp_path):
        grid = parse_config(self.SWEEP).grids[2].tolist()
        msg = self.delta(tmp_path, lambda lines: lines.pop())
        assert (f"no data row {3 * len(grid)}, the row of the configuration's cell "
                f"(B=1000000.0, eps={grid[-1]!r})") in msg

    def test_delta_extra_row(self, tmp_path):
        n_rows = parse_config(self.SWEEP).grids.size
        msg = self.delta(tmp_path, lambda lines: lines.append(lines[-1]))
        assert f"data row {n_rows + 1}: extra row beyond the configuration's {n_rows} cells" in msg

    @pytest.mark.parametrize("rows, named", [
        ({3: "bogus"}, "data row 3 "),
        ({4: ("0.5", "exact")}, "data row 4 "),
        ({3: "monte_carlo", 4: "bogus"}, "data row 3 "),
        ({row: "monte_carlo" for row in range(1, 241)}, "data row 1 "),
    ], ids=["source", "std_err", "first-of-two", "every-row"])
    def test_delta_row_source_and_std_err_checked(self, tmp_path, rows, named):
        def edit(lines):
            for row, change in rows.items():  # data row r is lines[r + 1]
                b, eps, delta, err, source = lines[row + 1].rstrip("\r\n").split(",")
                err, source = change if isinstance(change, tuple) else (err, change)
                lines[row + 1] = ",".join([b, eps, delta, err, source]) + "\r\n"
        msg = self.delta(tmp_path, edit)
        assert named in msg and "std_err and source exact, as the configured engine writes" in msg

    def test_monte_carlo_delta_rows_need_std_err(self, tmp_path):
        def edit(lines):
            lines[2] = lines[2].replace(",0.5,", ",,")
        msg = self.mc_delta(tmp_path, edit)
        assert "data row 1 " in msg and "std_err not a number" in msg

    def test_delta_budgets_out_of_order(self, tmp_path):
        def edit(lines):
            lines[2:] = sorted(lines[2:], key=lambda line: -float(line.split(",")[0]))
        msg = self.delta(tmp_path, edit)
        assert "data row 1 (B=1000000.0, eps=" in msg
        assert "not the configuration's cell (B=10000.0, eps=" in msg

    @pytest.mark.parametrize("column, value, message", [
        (3, "-0.5", "data row 1: std_err -0.5 must be non-negative"),
        (1, "-0.001", "data row 1 (B=10000.0, eps=-0.001): not the configuration's cell "
                      "(B=10000.0, eps=0.0009)"),
        (1, "0.0", "data row 1 (B=10000.0, eps=0.0): not the configuration's cell "
                   "(B=10000.0, eps=0.0009)"),
        (0, "-10000.0", "data row 1 (B=-10000.0, eps=0.0009): not the configuration's cell "
                        "(B=10000.0, eps=0.0009)"),
        # a budget block relabelled, and an eps shifted by 0.1%
        (0, "10001.0", "data row 1 (B=10001.0, eps=0.0009): not the configuration's cell "
                       "(B=10000.0, eps=0.0009)"),
        (1, repr(0.0009 * 1.001), f"data row 1 (B=10000.0, eps={0.0009 * 1.001!r}): not the "
                                  "configuration's cell (B=10000.0, eps=0.0009)"),
    ], ids=["negative-std_err", "negative-eps", "zero-eps", "negative-budget",
            "relabelled-budget", "shifted-eps"])
    def test_delta_value_the_writer_never_writes(self, tmp_path, column, value, message):
        def edit(lines):  # a budget changes in its whole block, data rows 1 to 4
            for line in range(2, 6) if column == 0 else (2,):
                fields = lines[line].split(",")
                fields[column] = value
                lines[line] = ",".join(fields)
        assert message in self.mc_delta(tmp_path, edit)

    def test_delta_eps_out_of_order(self, tmp_path):
        grid = parse_config(self.SWEEP).grids[0].tolist()

        def edit(lines):
            lines[3], lines[4] = lines[4], lines[3]  # data rows 2 and 3 of B=1e4
        msg = self.delta(tmp_path, edit)
        assert (f"data row 2 (B=10000.0, eps={grid[2]!r}): not the configuration's cell "
                f"(B=10000.0, eps={grid[1]!r})") in msg

    def test_crossings_non_numeric_value(self, tmp_path):
        def edit(lines):
            lines[2] = lines[2].replace("0.001,", "abc,")
        msg = self.crossings(tmp_path, edit)
        assert "data row 1 " in msg and "could not convert" in msg

    @pytest.mark.parametrize("budgets", [None, LADDER], ids=["values", "ladder"])
    @pytest.mark.parametrize("order, named, budget", [
        ([0, 0, 1], 2, "10000.0, not the configuration's budget 100000.0"),
        ([1, 0], 1, "100000.0, not the configuration's budget 10000.0"),
        ([1], 1, "100000.0, not the configuration's budget 10000.0"),
    ], ids=["duplicated", "swapped", "first-deleted"])
    def test_crossings_budgets_out_of_order(self, tmp_path, order, named, budget, budgets):
        def edit(lines):  # data rows 1 and 2 are lines[2:4]
            lines[2:] = [lines[2 + i] for i in order]
        msg = self.crossings(tmp_path, edit, budgets)
        assert f"data row {named} " in msg and f": B {budget}" in msg

    @pytest.mark.parametrize("budgets", [None, LADDER], ids=["values", "ladder"])
    def test_crossings_missing_row(self, tmp_path, budgets):
        msg = self.crossings(tmp_path, lambda lines: lines.pop(), budgets)
        assert "no data row 2, the row of the configuration's budget B=100000.0" in msg

    def test_crossings_extra_row(self, tmp_path):
        msg = self.crossings(tmp_path, lambda lines: lines.append(lines[-1]))
        assert "data row 3 " in msg and "extra row beyond the configuration's 2 budgets" in msg

    def test_crossings_missing_column(self, tmp_path):
        def edit(lines):
            for i in range(1, len(lines)):
                lines[i] = lines[i].rsplit(",", 1)[0] + "\r\n"
        msg = self.crossings(tmp_path, edit)
        assert "column header 'B,eps_star,status,bracket_lo'" in msg

    def test_crossings_unknown_status(self, tmp_path):
        def edit(lines):
            lines[3] = lines[3].replace("no_negative_region", "maybe")
        msg = self.crossings(tmp_path, edit)
        assert "data row 2 " in msg and "status must be one of" in msg

    def test_crossings_crossed_without_eps_star(self, tmp_path):
        def edit(lines):
            lines[2] = lines[2].replace("0.001,", ",")
        msg = self.crossings(tmp_path, edit)
        assert "data row 1 " in msg and "eps_star must be given" in msg

    @pytest.mark.parametrize("row, number, message", [
        ("10000.0,0.001,crossed,,", 1, "bracket_lo and bracket_hi must be given exactly"),
        ("10000.0,0.001,crossed,0.0009,", 1, "bracket_lo and bracket_hi must be given exactly"),
        ("100000.0,,no_negative_region,0.01,0.02", 2,
         "bracket_lo and bracket_hi must be given exactly"),
        ("10000.0,0.5,crossed,0.01,0.02", 1, "eps_star 0.5 outside its bracket [0.01, 0.02]"),
        ("1000.0,-0.01,crossed,-0.02,-0.005", 1,
         "B 1000.0, not the configuration's budget 10000.0"),
        ("10000.0,0.001,crossed,0.0,0.0011", 1,
         "bracket [0.0, 0.0011] is not two neighbouring points of the budget's eps grid"),
        ("-10000.0,,no_negative_region,,", 1,
         "B -10000.0, not the configuration's budget 10000.0"),
        ("10000.0,-0.01,crossed,-0.02,-0.005", 1,
         "bracket [-0.02, -0.005] is not two neighbouring points of the budget's eps grid"),
        ("10000.0,0.001,crossed,0.0009,0.01", 1,
         "bracket [0.0009, 0.01] is not two neighbouring points of the budget's eps grid"),
        ("10000.0,0.001,crossed,0.000909,0.0011", 1,
         "bracket [0.000909, 0.0011] is not two neighbouring points of the budget's eps grid"),
        ("999.0,,no_negative_region,,", 1, "B 999.0, not the configuration's budget 10000.0"),
    ], ids=["crossed-no-bracket", "crossed-half-bracket", "censored-with-bracket",
            "eps-star-outside-bracket", "negative-crossing", "zero-bracket", "negative-budget",
            "negative-bracket", "bracket-not-neighbours", "bracket-off-grid",
            "relabelled-budget"])
    def test_crossings_row_the_writer_never_writes(self, tmp_path, row, number, message):
        def edit(lines):
            lines[1 + number] = row + "\r\n"
        msg = self.crossings(tmp_path, edit)
        assert f"data row {number} {row!r}: {message}" in msg

    @pytest.mark.parametrize("field, value, message", [
        (2, "nan", "data row 4: delta nan is not a finite number"),
        (1, "inf", "data row 4 (B=10000.0, eps=inf): not the configuration's cell"),
        (0, "-inf", "data row 4 (B=-inf, eps="),
    ])
    def test_delta_non_finite_value(self, tmp_path, field, value, message):
        def edit(lines):  # data row 4
            fields = lines[5].split(",")
            fields[field] = value
            lines[5] = ",".join(fields)
        assert message in self.delta(tmp_path, edit)

    def test_delta_non_finite_std_err(self, tmp_path):
        def edit(lines):  # data row 2
            lines[3] = lines[3].replace(",0.5,", ",inf,")
        assert "data row 2: std_err inf is not a finite number" in self.mc_delta(tmp_path, edit)

    @pytest.mark.parametrize("old, new, named", [
        ("0.001,", "nan,", "eps_star nan outside its bracket [0.0009, 0.0011]"),
        ("0.0011", "inf", "bracket [0.0009, inf] is not two neighbouring points"),
        ("10000.0,", "-inf,", "B -inf, not the configuration's budget 10000.0"),
    ])
    def test_crossings_non_finite_value(self, tmp_path, old, new, named):
        def edit(lines):
            lines[2] = lines[2].replace(old, new)
        msg = self.crossings(tmp_path, edit)
        assert "data row 1 " in msg and named in msg

    @staticmethod
    def other_schema(lines):
        lines[0] = lines[0].replace("zneboundary-schema=1", "zneboundary-schema=9")

    def test_delta_other_schema_version(self, tmp_path):
        msg = self.delta(tmp_path, self.other_schema)
        assert "carries schema version 9, expected 1" in msg

    def test_delta_missing_schema_comment(self, tmp_path):
        msg = self.delta(tmp_path, lambda lines: lines.pop(0))
        assert "carries no schema version, expected 1" in msg

    def test_crossings_other_schema_version(self, tmp_path):
        msg = self.crossings(tmp_path, self.other_schema)
        assert "carries schema version 9, expected 1" in msg

    def test_schema_checked_before_config_hash(self, tmp_path):
        def edit(lines):
            self.other_schema(lines)
            lines[0] = lines[0].replace("config_hash=", "config_hash=0")
        msg = self.delta(tmp_path, edit)
        assert "carries schema version 9, expected 1" in msg


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def configurations(draw):
    """Parsed configurations: explicit or auto grids, either engine, a few budgets."""
    # from B=100 on, every auto window lies inside the domain
    budgets = sorted(draw(st.lists(st.integers(100, 10**9), min_size=1, max_size=4,
                                   unique=True)))
    if draw(st.booleans()):
        positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
        eps = sorted(draw(st.lists(positive, min_size=3, max_size=5, unique=True)))
        grid = {"mode": "explicit", "eps": eps}
    else:
        lo = draw(st.floats(0.05, 0.9))
        grid = {"mode": "auto", "span": [lo, draw(st.floats(1.1, 20.0))],
                "points_per_decade": draw(st.integers(1, 4))}
    engine = draw(st.sampled_from(["exact", "monte_carlo"]))
    return parse_config(dict(DLB_EXACT, grid=grid, budgets={"values": budgets},
                             engine={"kind": engine}, seed=7))


@st.composite
def sweeps(draw):
    """A configuration and a table its writer writes: any finite delta, non-negative std_err."""
    cfg = draw(configurations())
    grids = cfg.grids
    values = st.lists(finite, min_size=grids.size, max_size=grids.size)
    errors = st.lists(st.floats(0.0, allow_infinity=False), min_size=grids.size,
                      max_size=grids.size)
    std_err = np.reshape(draw(errors), grids.shape) if cfg.is_monte_carlo else None
    return cfg, np.reshape(draw(values), grids.shape), std_err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_delta_csv_round_trip_property(drawn):
    cfg, delta, std_err = drawn
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        write_delta_csv(first, cfg, delta, std_err)
        back, back_err = read_delta_csv(first, cfg)
        assert back.shape == cfg.grids.shape  # the reader checked each row's (B, eps) cell
        assert first.read_text().splitlines()[2].endswith("," + cfg.engine["kind"])
        assert np.array_equal(back.view(np.uint64), delta.view(np.uint64))
        if std_err is None:
            assert back_err is None
        else:
            assert np.array_equal(back_err.view(np.uint64), std_err.view(np.uint64))
        write_delta_csv(second, cfg, back, back_err)
        assert second.read_bytes() == first.read_bytes()


@st.composite
def crossing_rows(draw):
    """A configuration and rows its writer writes: one per budget, in order, each crossed
    row bracketed by two neighbouring points of its budget's grid."""
    cfg = draw(configurations())
    rows = []
    for budget, grid in zip(cfg.budgets, cfg.grids.tolist()):
        if draw(st.booleans()):  # the crossing lies inside its bracket
            j = draw(st.integers(0, len(grid) - 2))
            lo, hi = grid[j], grid[j + 1]
            rows.append(CrossingEstimate(budget, draw(st.floats(lo, hi)), "crossed", lo, hi))
        else:
            status = draw(st.sampled_from(["no_negative_region", "no_crossing_in_window"]))
            rows.append(CrossingEstimate(budget, None, status))
    return cfg, rows


@settings(max_examples=60, deadline=None)
@given(crossing_rows())
def test_crossings_csv_round_trip_property(drawn):
    cfg, crossings = drawn
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        write_crossings_csv(first, crossings, cfg)
        back = read_crossings_csv(first, cfg)
        assert back == crossings
        write_crossings_csv(second, back, cfg)
        assert second.read_bytes() == first.read_bytes()


class TestCli:
    def test_rule_command_penalties(self, capsys):
        assert main(["rule", "--scales", "1,3", "--q", "1", "--nu", "2"]) == 0
        out = capsys.readouterr().out
        assert "K_fixed = 10" in out
        assert "[1.5, -0.5]" in out

    def test_rule_command_two_point(self, capsys):
        assert main(["rule", "--scales", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "[2.0, -1.0]" in out

    def test_rule_command_three_point_residuals(self, capsys):
        assert main(["rule", "--scales", "1,3,5"]) == 0
        out = capsys.readouterr().out
        assert "identity residuals" in out
        for token in out.split("residuals (m = 0..2): ")[1].splitlines()[0].split(", "):
            assert float(token) <= 1e-12

    def test_rule_command_rejects_bad_scales(self, capsys):
        assert main(["rule", "--scales", "2,3"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_rule_command_refuses_nan_q(self, capsys):
        assert main(["rule", "--scales", "1,3", "--q", "nan"]) == 2
        assert "variance exponent q must be >= 0, got nan" in capsys.readouterr().err

    def test_rule_command_prints_the_exact_coefficients(self, capsys):
        assert main(["rule", "--scales", "1,2,3,4"]) == 0
        out = capsys.readouterr().out
        assert "coefficients: [4.0, -6.0, 4.0, -1.0]\n" in out
        assert "identity residuals (m = 0..3): 0.00e+00, 0.00e+00, 0.00e+00, 0.00e+00\n" in out

    @pytest.mark.parametrize("command", [["rule"], ["plan", "--q", "1", "--kappa", "1",
                                                    "--nu", "2"]])
    def test_bad_alloc_is_a_configuration_error(self, capsys, command):
        assert main([*command, "--scales", "1,3", "--alloc", "1,x"]) == 2
        assert "cannot parse alloc '1,x'" in capsys.readouterr().err

    def test_sweep_boundary_fit_flow(self, tmp_path, capsys):
        raw = dict(DLB_EXACT, output={"dir": str(tmp_path), "prefix": "dlb"},
                   budgets={"lo": 1.0e4, "hi": 1.0e7, "per_decade": 2})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path)]) == 0
        assert main(["fit", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "dlb_report.json").read_text())
        assert -1.02 <= report["boundary_fit"]["slope"] <= -0.98
        with open(tmp_path / "dlb_crossings.csv", newline="") as fh:
            first_line = fh.readline()
            assert first_line.startswith("# zneboundary-schema=")  # version + flags
            assert "pre_registered=true" in first_line
            rows = list(csv.DictReader(fh))
        first = next(r for r in rows if float(r["B"]) == 1.0e4)
        assert float(first["eps_star"]) == pytest.approx(10.0 / 10008.0, rel=2e-3)
        assert (tmp_path / "dlb_variance.csv").exists()

    def test_dotless_float_override_matches_the_file(self, tmp_path, capsys):
        # the file says [1.0e-4, 1.0e-3]; the override spells the same floats 1e-4, 1e-3
        raw = dict(DLB_EXACT, output={"dir": str(tmp_path), "prefix": "dlb"},
                   budgets={"lo": 1.0e4, "hi": 1.0e6, "per_decade": 2})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path),
                     "--set", "windows.variance=[1e-4, 1e-3]"]) == 0

    def test_boundary_without_sweep_is_config_error(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path, dict(DLB_EXACT, output={"dir": str(tmp_path), "prefix": "x"})
        )
        assert main(["boundary", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"missing delta table {tmp_path / 'x_delta.csv'}; run `zneboundary sweep` first" \
            in err
        assert not (tmp_path / "x_crossings.csv").exists()

    def test_fit_without_boundary_is_config_error(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path, dict(DLB_EXACT, output={"dir": str(tmp_path), "prefix": "x"})
        )
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert "run `zneboundary boundary` first" in capsys.readouterr().err

    def test_stale_delta_and_crossings_refused(self, tmp_path, capsys):
        raw = dict(DLB_EXACT, output={"dir": str(tmp_path), "prefix": "dlb"},
                   budgets={"lo": 1.0e4, "hi": 1.0e7, "per_decade": 2})
        cfg_path = write_cfg(tmp_path, raw)
        stale = ["--set", "model.kappa=0.25"]
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path), *stale]) == 2
        err = capsys.readouterr().err
        assert "dlb_delta.csv carries config_hash" in err
        assert "rerun `zneboundary sweep`" in err
        assert main(["boundary", "--config", str(cfg_path)]) == 0
        assert main(["fit", "--config", str(cfg_path), *stale]) == 2
        assert "dlb_crossings.csv carries config_hash" in capsys.readouterr().err
        assert not (tmp_path / "dlb_report.json").exists()

    def test_delta_without_config_hash_refused(self, tmp_path, capsys):
        raw = dict(DLB_EXACT, output={"dir": str(tmp_path), "prefix": "dlb"},
                   budgets={"values": [1e4, 1e5, 1e6]})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        delta = tmp_path / "dlb_delta.csv"
        lines = delta.read_text().splitlines(keepends=True)
        lines[0] = "# zneboundary-schema=1\n"
        delta.write_text("".join(lines))
        assert main(["boundary", "--config", str(cfg_path)]) == 2
        assert "carries no config_hash" in capsys.readouterr().err

    def test_fit_refuses_counts_of_another_configuration(self, tmp_path, capsys):
        raw = dict(DLB_MC, budgets={"values": [2000, 8000, 32000]}, bootstrap=None,
                   engine={"kind": "monte_carlo", "replicates": 8}, seed=1,
                   output={"dir": str(tmp_path), "prefix": "m"})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path),
                     "--set", "seed=2", "--set", "output.prefix=other"]) == 0
        for suffix in ("counts.csv", "counts.json"):
            (tmp_path / f"m_{suffix}").write_bytes((tmp_path / f"other_{suffix}").read_bytes())
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"count header {tmp_path / 'm_counts.json'}: master_seed 2, " in err
        assert "configuration's 1; rerun `zneboundary sweep`" in err
        assert not (tmp_path / "m_report.json").exists()

    def test_fit_refuses_counts_drawn_on_another_grid(self, tmp_path, capsys):
        raw = dict(DLB_MC, budgets={"values": [2000, 8000, 32000]}, bootstrap=None,
                   engine={"kind": "monte_carlo", "replicates": 8},
                   output={"dir": str(tmp_path), "prefix": "m"})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--set", "grid.span=[0.3, 4.0]",
                     "--set", "output.prefix=other"]) == 0
        for suffix in ("counts.csv", "counts.json"):
            (tmp_path / f"m_{suffix}").write_bytes((tmp_path / f"other_{suffix}").read_bytes())
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"count header {tmp_path / 'm_counts.json'}: eps_grids of budget 2000 [" in err
        assert "rerun `zneboundary sweep`" in err
        assert not (tmp_path / "m_report.json").exists()

    def test_fit_refuses_optimal_counts_without_the_policy(self, tmp_path, capsys):
        # a header that stores the base fractions in place of "optimal" would
        # give c_plugin the fixed-split penalty
        raw = dict(DLB_MC, budgets={"values": [2000, 8000, 32000]}, bootstrap=None,
                   rule={"scales": [1, 3], "alloc": "optimal"},
                   engine={"kind": "monte_carlo", "replicates": 8},
                   output={"dir": str(tmp_path), "prefix": "m"})
        cfg_path = write_cfg(tmp_path, raw)
        for stage in ("sweep", "boundary", "fit"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        header_path = tmp_path / "m_counts.json"
        header = json.loads(header_path.read_text())
        header["rule"]["alloc"] = [0.5, 0.5]
        header_path.write_text(json.dumps(header))
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert "rule {'alloc': [0.5, 0.5], " in capsys.readouterr().err

    def mc_stages(self, tmp_path, **sections):
        """A small Monte Carlo run through ``boundary``; returns its config path."""
        raw = dict(DLB_MC, budgets={"values": [2000, 8000, 32000, 128000]}, bootstrap=None,
                   engine={"kind": "monte_carlo", "replicates": 4},
                   output={"dir": str(tmp_path), "prefix": "m"}, **sections)
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path)]) == 0
        return cfg_path

    @pytest.mark.parametrize("edit, named", [
        # data row 1 is the arm-0 row of (B=2000, eps 0, rep 0)
        (lambda f: [*f[:5], str(int(f[4]) + 1)], "data row 1 "),
        (lambda f: [*f[:4], "0", "0"], "data row 1 "),
        (lambda f: [*f[:4], "1500", f[5]], "data row 1 "),
    ], ids=["plus-above-shots", "zero-shots", "arm-0-shots"])
    def test_fit_refuses_counts_off_the_writers_layout(self, tmp_path, capsys, edit, named):
        cfg_path = self.mc_stages(tmp_path)
        counts = tmp_path / "m_counts.csv"
        lines = counts.read_text().splitlines(keepends=True)
        lines[2] = ",".join(edit(lines[2].rstrip("\r\n").split(","))) + "\r\n"
        counts.write_text("".join(lines))
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert f"count table {counts}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "m_report.json").exists()

    @pytest.mark.parametrize("alloc", ["uniform", "optimal"])
    def test_fit_refuses_shots_moved_between_levels(self, tmp_path, capsys, alloc):
        # data rows 5 and 9 are the two level rows of (B=2000, eps 0, rep 0);
        # 20 shots moved from one to the other keep the budget's sum
        cfg_path = self.mc_stages(tmp_path, rule={"scales": [1, 3], "alloc": alloc})
        counts = tmp_path / "m_counts.csv"
        lines = counts.read_text().splitlines(keepends=True)
        level_shots = []
        for row, move in ((5, 20), (9, -20)):
            fields = lines[row + 1].rstrip("\r\n").split(",")
            level_shots.append(int(fields[4]))
            fields[4] = str(int(fields[4]) + move)
            fields[5] = str(min(int(fields[5]), int(fields[4])))
            lines[row + 1] = ",".join(fields) + "\r\n"
        counts.write_text("".join(lines))
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"count table {counts}: data row 5 (budget_idx=0, eps_idx=0, scale_idx=0, " in err
        assert (f"shots {level_shots[0] + 20}, not the {level_shots[0]} "
                "of the rule's allocation") in err
        assert not (tmp_path / "m_report.json").exists()

    def test_non_finite_delta_and_crossing_refused(self, tmp_path, capsys):
        cfg_path = self.mc_stages(tmp_path)
        crossings = tmp_path / "m_crossings.csv"
        lines = crossings.read_text().splitlines(keepends=True)
        crossed = next(i for i, line in enumerate(lines) if ",crossed," in line)
        fields = lines[crossed].split(",")
        fields[1] = "nan"
        lines[crossed] = ",".join(fields)
        crossings.write_text("".join(lines))
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert "eps_star nan outside its bracket" in capsys.readouterr().err
        assert not (tmp_path / "m_report.json").exists()

        delta = tmp_path / "m_delta.csv"
        lines = delta.read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[2] = "nan"
        lines[3] = ",".join(fields)
        delta.write_text("".join(lines))
        assert main(["boundary", "--config", str(cfg_path)]) == 2
        assert "data row 2: delta nan is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1000.0,-0.01,crossed,-0.02,-0.005",
                                     "-1000.0,,no_negative_region,,"],
                             ids=["negative-crossing", "negative-budget"])
    def test_fit_refuses_a_crossing_row_the_writer_never_writes(self, tmp_path, capsys, row):
        raw = dict(DLB_EXACT, output={"dir": str(tmp_path), "prefix": "x"},
                   budgets={"values": [1e4, 1e5, 1e6]})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path)]) == 0
        crossings = tmp_path / "x_crossings.csv"
        lines = crossings.read_text().splitlines(keepends=True)
        lines[2] = row + "\r\n"
        crossings.write_text("".join(lines))
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert f"{crossings}: data row 1 {row!r}: " in capsys.readouterr().err
        assert not (tmp_path / "x_report.json").exists()

    @staticmethod
    def edit_rows(path, edit):
        """Rewrite a table through ``edit(rows)``, its data rows as lists of fields."""
        comment, head, *rows = path.read_text().splitlines(keepends=True)
        rows = [row.rstrip("\r\n").split(",") for row in rows]
        edit(rows)
        path.write_text(comment + head + "".join(",".join(row) + "\r\n" for row in rows))

    @pytest.mark.parametrize("table, stage, edit, message", [
        ("delta", "boundary", lambda rows: [row.__setitem__(0, "2001.0") for row in rows
                                            if row[0] == "2000.0"],
         "data row 1 (B=2001.0, eps="),
        ("delta", "boundary", lambda rows: rows[0].__setitem__(1, repr(float(rows[0][1]) * 1.001)),
         "data row 1 (B=2000.0, eps="),
        ("crossings", "fit", lambda rows: rows[0].__setitem__(0, "1999.0"),
         "data row 1 '1999.0,"),
        ("crossings", "fit", lambda rows: rows.pop(0), "data row 1 '8000.0,"),
        ("crossings", "fit", lambda rows: rows[0].__setitem__(3, repr(float(rows[0][3]) * 1.01)),
         "is not two neighbouring points of the budget's eps grid"),
    ], ids=["delta-block-relabelled", "delta-eps-shifted", "crossing-relabelled",
            "crossing-deleted", "bracket-off-grid"])
    def test_stages_refuse_a_table_off_the_configurations_layout(
            self, tmp_path, capsys, table, stage, edit, message):
        # each table keeps its config_hash; only its rows leave the configured layout
        cfg_path = self.mc_stages(tmp_path)
        path = tmp_path / f"m_{table}.csv"
        assert (tmp_path / "m_crossings.csv").read_text().splitlines()[2].split(",")[2] \
            == "crossed"
        self.edit_rows(path, edit)
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: data row 1 " in err and message in err
        assert not (tmp_path / "m_report.json").exists()

    @pytest.mark.parametrize("spelled, plain", [
        ("engine.replicates=1e1", "engine.replicates=10"),
        ("grid.points_per_decade=1.2e1", "grid.points_per_decade=12"),
        ("grid.span=[2e-1, 5e0]", "grid.span=[0.2, 5.0]"),
        ("model.kappa=1e0", "model.kappa=1.0"),
        ("rule.scales=[1, 3e0]", "rule.scales=[1, 3]"),
    ], ids=["replicates", "points-per-decade", "span", "model", "scales"])
    def test_exponent_spelling_is_the_plain_value(self, tmp_path, spelled, plain):
        # YAML 1.1 reads 1e1 as a string; the check parses it, and the run uses that number
        raw = dict(DLB_MC, budgets={"values": [2000, 8000]}, bootstrap=None,
                   output={"dir": str(tmp_path), "prefix": "x"})
        cfg_path = write_cfg(tmp_path, raw)
        parsed = [load_config(cfg_path, [override]) for override in (spelled, plain)]
        assert parsed[0].raw != parsed[1].raw
        assert replace(parsed[0], raw={}) == replace(parsed[1], raw={})
        for prefix, override in (("spelled", spelled), ("plain", plain)):
            assert main(["sweep", "--config", str(cfg_path), "--set", override,
                         "--set", f"output.prefix={prefix}"]) == 0
        for suffix in ("counts.csv", "counts.json"):
            spelled_bytes = (tmp_path / f"spelled_{suffix}").read_bytes()
            assert spelled_bytes == (tmp_path / f"plain_{suffix}").read_bytes()

    def test_each_stage_builds_the_rule_once(self, tmp_path, monkeypatch):
        # the configuration's rule is built by parse_config and nowhere else, and
        # fit reads the counts with it; its grid table is built once, by the
        # configuration, however many tables a stage reads on it
        built = []

        def spy(original, module):
            def counted(*args, **kwargs):
                built.append((original.__name__, module))
                return original(*args, **kwargs)
            return counted

        for original in (build_rule, auto_windows):
            for name, module in list(sys.modules.items()):
                if (name.startswith("zneboundary")
                        and getattr(module, original.__name__, None) is original):
                    monkeypatch.setattr(module, original.__name__, spy(original, name))
        raw = dict(DLB_MC, budgets={"values": [2000, 8000, 32000]}, bootstrap=None,
                   engine={"kind": "monte_carlo", "replicates": 4},
                   output={"dir": str(tmp_path), "prefix": "m"})
        cfg_path = write_cfg(tmp_path, raw)
        for stage in ("sweep", "boundary", "fit"):
            built.clear()
            assert main([stage, "--config", str(cfg_path)]) == 0
            assert built == [("build_rule", "zneboundary.config"),
                             ("auto_windows", "zneboundary.config")], stage

    def test_fit_ignores_the_retired_thread_variable(self, tmp_path, monkeypatch):
        # ZNEBOUNDARY_THREADS once sized the bootstrap pool; it is no setting now
        raw = dict(DLB_MC, budgets={"values": [2000, 8000, 32000]},
                   engine={"kind": "monte_carlo", "replicates": 8},
                   output={"dir": str(tmp_path), "prefix": "m"})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["boundary", "--config", str(cfg_path)]) == 0
        monkeypatch.delenv("ZNEBOUNDARY_THREADS", raising=False)
        assert main(["fit", "--config", str(cfg_path)]) == 0
        unset = (tmp_path / "m_report.json").read_bytes()
        assert json.loads(unset)["bootstrap"]
        monkeypatch.setenv("ZNEBOUNDARY_THREADS", "abc")
        assert main(["fit", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "m_report.json").read_bytes() == unset

    def test_byte_identical_reruns(self, tmp_path):
        raw = dict(DLB_MC, budgets={"values": [2000, 8000, 32000]},
                   output={"dir": str(tmp_path), "prefix": "mc"})
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("mc_delta.csv", "mc_counts.csv", "mc_counts.json")
        }
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_ruleless_sweep_is_zero(self, tmp_path):
        raw = {
            "model": {"type": "deterministic_limit_binary", "kappa": 1.0},
            "rule": None,
            "grid": {"mode": "explicit", "eps": [0.01, 0.02, 0.03]},
            "budgets": [1000],
            "output": {"dir": str(tmp_path), "prefix": "none"},
        }
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        with open(tmp_path / "none_delta.csv", newline="") as fh:
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        assert [float(r["delta"]) for r in rows] == [0.0, 0.0, 0.0]

    def test_ruleless_sweep_checks_the_domain(self, tmp_path, capsys):
        raw = {
            "model": {"type": "deterministic_limit_binary", "kappa": 1.0},  # domain [0, 2]
            "rule": None,
            "grid": {"mode": "explicit", "eps": [0.1, 1.0, 5.0]},
            "budgets": [1000],
            "output": {"dir": str(tmp_path), "prefix": "none"},
        }
        with pytest.raises(DomainError, match="eps=5.0 outside valid domain"):
            run_sweep(parse_config(raw))
        assert main(["sweep", "--config", str(write_cfg(tmp_path, raw))]) == 3
        assert "eps=5.0" in capsys.readouterr().err
        assert not (tmp_path / "none_delta.csv").exists()

    def test_domain_error_exit_code(self, tmp_path, capsys):
        raw = {
            "model": {"type": "deterministic_limit_binary", "kappa": 1.0},
            "rule": {"scales": [1, 3], "alloc": "uniform"},
            "grid": {"mode": "explicit", "eps": [0.5, 0.7, 1.0]},  # 3 eps > eps_max
            "budgets": [1000],
            "output": {"dir": str(tmp_path), "prefix": "bad"},
        }
        cfg_path = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "domain error" in err
        assert "lambda=3" in err  # names the offending (eps, scale) pair

    def test_validate_single_check(self, tmp_path, capsys):
        out_json = tmp_path / "val.json"
        code = main(["validate", "--only", "rule_identities", "--json", str(out_json)])
        assert code == 0
        assert "PASS  rule_identities" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload[0]["name"] == "rule_identities"
        assert payload[0]["passed"] is True

    def test_validate_json_into_a_new_directory(self, tmp_path, capsys):
        out_json = tmp_path / "nodir" / "x.json"
        assert main(["validate", "--only", "rule_identities", "--json", str(out_json)]) == 0
        assert json.loads(out_json.read_text())[0]["passed"] is True

    def test_variational_energy_ladder_runs(self, tmp_path, capsys):
        # q = 0, validate's linear-bias ladder: the domain cuts the B=1e4 window short
        raw = dict(DLB_EXACT, model={"type": "linear_bias_binary", "mu0": 0.5, "alpha": 1.0},
                   output={"dir": str(tmp_path), "prefix": "lbb"})
        cfg_path = write_cfg(tmp_path, raw)
        for stage in ("sweep", "boundary", "fit"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "lbb_report.json").read_text())
        assert -0.52 <= report["boundary_fit"]["slope"] <= -0.48
        assert report["boundary_fit"]["censored_budgets"] == []

    def test_validate_refuses_an_unknown_check(self, capsys):
        assert main(["validate", "--only", "rule_identities", "--only", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown checks ['bogus']; known: rule_identities, " in err

    @pytest.mark.parametrize("flags, message", [
        (["--budget", "0"], "--budget must be positive, got 0"),
        (["--budget", "-4"], "--budget must be positive, got -4"),
        (["--budget", "1e4", "--eps", "-0.1"], "--eps must be positive, got -0.1"),
    ], ids=["zero-budget", "negative-budget", "negative-eps"])
    def test_plan_refuses_non_positive_budget_or_eps(self, capsys, flags, message):
        assert main(["plan", "--q", "1", "--kappa", "1", "--nu", "2", "--scales", "1,3",
                     *flags]) == 2
        assert message in capsys.readouterr().err

    def test_plan_subcritical_example(self, capsys):
        code = main([
            "plan", "--q", "0", "--alpha", "1", "--nu", "0.75",
            "--scales", "1,3", "--budget", "1e4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "C = 1.73205" in out
        assert "eps* ~ 0.0173205" in out

    def test_plan_critical_verdict(self, capsys):
        code = main(["plan", "--q", "2", "--d-p", "1", "--k-q", "20000", "--budget", "1e5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget threshold B* = 20000" in out
        assert "helps" in out

    def test_plan_supercritical_verdict(self, capsys):
        code = main(["plan", "--q", "3", "--p", "1", "--d-p", "1", "--k-q", "1"])
        assert code == 0
        assert "no leading-order shrinking lower boundary" in capsys.readouterr().out

    def test_plan_bracket_output(self, capsys):
        code = main([
            "plan", "--q", "0", "--d-p", "1", "--k-q", "1", "--budget", "1e6",
            "--rho", "0.5", "--l-b", "1", "--l-v", "1", "--delta-b", "1",
            "--delta-v", "1", "--eps0", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "B0(0.5) = 324" in out
        assert "certified" in out

    def test_plan_help_harm_verdict_at_eps(self, capsys):
        main([
            "plan", "--q", "1", "--kappa", "1", "--nu", "2", "--scales", "1,3",
            "--budget", "1e4", "--eps", "0.01",
        ])
        out = capsys.readouterr().out
        assert "ZNE helps" in out  # eps* ~ 1e-3 at B = 1e4, so 0.01 is above

    @pytest.mark.parametrize("penalty", [["--nu", "2"], ["--k-q", "10"]])
    def test_plan_refuses_bias_the_rule_does_not_shrink(self, capsys, penalty):
        # rule (1, 3) at p = 2: rho_2 = 1.5 - 0.5 * 9 = -3
        code = main(["plan", "--q", "1", "--p", "2", "--alpha", "1", *penalty,
                     "--scales", "1,3", "--budget", "1e4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: no shrinking lower boundary at this order: |rho_p| = 3 >= 1" in out
        assert "regime:" not in out

    def test_plan_takes_d_p_from_the_rule(self, capsys):
        # p = 1.2 above the order of rule (1, 3): D_p = kappa^2 (1 - rho_p^2) < kappa^2
        model = PowerLeakageBinary(sigma=1, kappa=1.0, r=1.2)
        expected = theoretical_boundary(model, build_rule([1, 3]))
        assert main(["plan", "--p", "1.2", "--q", "1.2", "--kappa", "1", "--nu", "2",
                     "--scales", "1,3"]) == 0
        assert f"constant: C = {expected.c_pq:.6g}\n" in capsys.readouterr().out

    def test_plan_refuses_nan_q_as_it_does_a_negative_one(self, capsys):
        for q in ("-1", "nan"):
            assert main(["plan", "--q", q, "--kappa", "1", "--k-q", "1"]) == 2
            out, err = capsys.readouterr()
            assert f"configuration error: --q must be >= 0, got {float(q):g}" in err
            assert "verdict" not in out

    @pytest.mark.parametrize("flags, message", [
        (["--q", "-1", "--kappa", "1", "--k-q", "1"], "--q must be >= 0, got -1"),
        (["--q", "1", "--kappa", "1", "--k-q", "-3"], "--k-q must be positive, got -3"),
        (["--q", "1", "--kappa", "1", "--k-q", "0"], "--k-q must be positive, got 0"),
        (["--q", "1", "--kappa", "1", "--k-q", "nan"], "--k-q must be positive, got nan"),
        (["--q", "1", "--p", "0.5", "--kappa", "1", "--k-q", "3"], "--p must be >= 1, got 0.5"),
        (["--q", "1", "--p", "nan", "--kappa", "1", "--k-q", "3"], "--p must be >= 1, got nan"),
        (["--q", "-1", "--kappa", "1", "--nu", "2", "--scales", "1,3"],
         "--q must be >= 0, got -1"),
        (["--q", "1", "--d-p", "nan", "--k-q", "1"], "--d-p must be finite, got nan"),
        (["--q", "1", "--alpha", "nan", "--k-q", "1"], "--alpha must be finite, got nan"),
        (["--q", "1", "--kappa", "inf", "--k-q", "1"], "--kappa must be finite, got inf"),
    ], ids=["negative-q", "negative-k-q", "zero-k-q", "nan-k-q", "p-below-1", "nan-p",
            "negative-q-derived-k", "nan-d-p", "nan-alpha", "infinite-kappa"])
    def test_plan_refuses_invalid_constants_before_a_verdict(self, capsys, flags, message):
        assert main(["plan", *flags]) == 2
        out, err = capsys.readouterr()
        assert f"configuration error: {message}\n" in err
        assert out == ""

    @pytest.mark.parametrize("flags, verdict", [
        (["--q", "1", "--d-p", "0", "--k-q", "1"], "verdict: no leading bias improvement"),
        (["--q", "1", "--d-p", "-2", "--k-q", "1"], "verdict: no leading bias improvement"),
        (["--q", "1", "--p", "2", "--alpha", "1", "--k-q", "1", "--scales", "1,3"],
         "verdict: no shrinking lower boundary at this order"),
    ], ids=["zero-d-p", "negative-d-p", "rho-p-above-1"])
    def test_plan_keeps_no_boundary_verdicts(self, capsys, flags, verdict):
        assert main(["plan", *flags]) == 0
        assert verdict in capsys.readouterr().out

    def test_plan_refuses_alpha_with_kappa(self, capsys):
        assert main(["plan", "--q", "1", "--alpha", "1", "--kappa", "5", "--nu", "2",
                     "--scales", "1,3"]) == 2
        err = capsys.readouterr().err
        assert "--alpha" in err and "--kappa" in err

    def test_plan_d_p_overrides_the_rule(self, capsys):
        assert main(["plan", "--q", "1", "--p", "2", "--d-p", "1", "--nu", "2",
                     "--scales", "1,3"]) == 0
        assert "regime:   subcritical" in capsys.readouterr().out
