"""Raw-count bootstrap: label preservation, determinism, and intervals."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from zneboundary import fits, mse, resample
from zneboundary.boundary import auto_window
from zneboundary.errors import ConfigError
from zneboundary.fits import BiasFit, VarianceExponentFit
from zneboundary.models import DeterministicLimitBinary
from zneboundary.mse import CountTable, deltas_from_counts, sample_count_table
from zneboundary.resample import (
    KNOWN_STATISTICS,
    BootstrapResult,
    bootstrap_pipeline,
    count_pipeline,
)
from zneboundary.rules import PenaltyConstants, build_rule

DLB = DeterministicLimitBinary(kappa=1.0)
RULE13 = build_rule([1, 3])


def use_cores(monkeypatch, cores):
    """Let this process run on ``cores`` cores, as ``taskset`` would."""
    monkeypatch.setattr(resample.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


def small_table(replicates=30, seed=11, budgets=(1000, 4000, 16000, 64000)):
    grids = [auto_window(DLB, RULE13, b, span=(0.2, 5.0), points_per_decade=12)
             for b in budgets]
    return sample_count_table(
        DLB, RULE13, budgets=list(budgets), eps_grids=[g.tolist() for g in grids],
        replicates=replicates, master_seed=seed,
    )


class TestCountPipeline:
    def test_statistics_present_and_reasonable(self):
        table = small_table()
        stats = count_pipeline(
            table, variance_window=(2e-3, 5e-2), bias_window=(2e-3, 5e-2)
        )
        assert set(stats) >= {"s_obs", "c_fit", "q_hat", "alpha_hat", "c_plugin"}
        assert stats["s_obs"] == pytest.approx(-1.0, abs=0.15)
        assert stats["q_hat"] == pytest.approx(1.0, abs=0.15)
        assert stats["alpha_hat"] == pytest.approx(-1.0, abs=0.1)
        for budget in table.budgets:
            eps_star = stats[f"eps_star[{budget:g}]"]
            assert np.isfinite(eps_star)
            assert eps_star == pytest.approx(10.0 / (budget + 8.0), rel=0.5)

    @pytest.mark.parametrize("case", ["q_hat>=2", "alpha_hat=0", "K_hat<=0"])
    def test_undefined_plugin_constant_is_nan(self, case, monkeypatch):
        # each fit is forced into one case where the plug-in constant is undefined
        if case == "q_hat>=2":
            monkeypatch.setattr(resample, "fit_variance_exponent", lambda eps, v, window:
                                VarianceExponentFit(2.0, 0.0, window, 1.0))
        elif case == "alpha_hat=0":
            monkeypatch.setattr(resample, "fit_bias", lambda eps, shift, window:
                                BiasFit(0.0, 0.0, window, 0.0))
        else:
            monkeypatch.setattr(fits, "penalty_constants", lambda rule, q, nu:
                                PenaltyConstants(q, nu, -1.0, -1.0))
        stats = count_pipeline(
            small_table(replicates=10), variance_window=(2e-3, 5e-2), bias_window=(2e-3, 5e-2)
        )
        assert np.isnan(stats["c_plugin"])
        assert np.isfinite(stats["s_obs"])

    def test_window_holding_one_shared_strength_is_nan(self):
        # an explicit grid shared by three budgets puts only eps = 0.01 in both
        # windows, three times over: neither fit is defined
        budgets = [1000, 10000, 100000]
        table = sample_count_table(DLB, RULE13, budgets=budgets,
                                   eps_grids=[[0.001, 0.01, 0.1]] * 3,
                                   replicates=8, master_seed=1)
        stats = count_pipeline(table, variance_window=(0.005, 0.02),
                               bias_window=(0.005, 0.02))
        for name in ("q_hat", "nu_hat", "alpha_hat", "c_plugin"):
            assert np.isnan(stats[name]), name

    def test_windows_optional(self):
        table = small_table(replicates=10)
        stats = count_pipeline(table)
        assert "q_hat" not in stats
        assert "s_obs" in stats

    def test_short_grid_rejected(self):
        table = small_table(replicates=4)
        table.eps_grids = tuple(g[:2] for g in table.eps_grids)
        table.shots, table.plus = table.shots[:, :2], table.plus[:, :2]
        with pytest.raises(ValueError, match="at least 3 grid points"):
            count_pipeline(table)


class TestBootstrapPipeline:
    def test_determinism(self):
        table = small_table()
        kw = dict(statistics=["s_obs", "eps_star"], n_replicates=120, seed=99)
        a = bootstrap_pipeline(table, **kw)
        b = bootstrap_pipeline(table, **kw)
        assert a == b

    def test_thread_count_does_not_change_results(self, monkeypatch):
        table = small_table(replicates=12)
        kw = dict(statistics=["s_obs"], n_replicates=100, seed=5)
        use_cores(monkeypatch, 1)
        sequential = bootstrap_pipeline(table, **kw)
        use_cores(monkeypatch, 4)
        threaded = bootstrap_pipeline(table, **kw)
        assert sequential == threaded

    @pytest.mark.parametrize("cores", [1, 3])
    def test_failing_replicate_reraises_through_the_pool(self, cores, monkeypatch):
        use_cores(monkeypatch, cores)
        failure = RuntimeError("replicate 37")
        stream = resample._replicate_stream

        def failing_stream(seed, rep_idx):
            if rep_idx == 37:
                raise failure
            return stream(seed, rep_idx)

        monkeypatch.setattr(resample, "_replicate_stream", failing_stream)
        with pytest.raises(RuntimeError) as err:
            bootstrap_pipeline(small_table(replicates=4), ["s_obs"], 100, seed=0)
        assert err.value is failure

    def test_degenerate_counts_zero_width_intervals(self):
        # plus == shots everywhere: every replicate redraws identically
        table = small_table(replicates=8)
        table.plus[:] = table.shots
        results = bootstrap_pipeline(table, ["eps_star"], 100, seed=1)
        for res in results:
            assert res.missing_fraction == 1.0  # no crossing anywhere
        table2 = small_table(replicates=8)
        table2.plus[:] = table2.shots
        res = bootstrap_pipeline(table2, ["c_fit"], 100, seed=1)[0]
        assert res.ci_lo is None and res.ci_hi is None

    def test_interval_orientation_and_coverage_of_truth(self):
        table = small_table(replicates=60)
        res = bootstrap_pipeline(table, ["s_obs"], 200, seed=42)[0]
        assert res.ci_lo <= res.ci_hi
        assert res.missing_fraction == 0.0
        assert res.ci_lo < -1.0 < res.ci_hi  # truth is s = -1 up to O(1/B)

    def test_label_preservation_with_sentinel_cells(self):
        # a cell pinned to an extreme value must stay in its cell under
        # resampling: other cells' redraw distributions are unaffected
        table = small_table(replicates=6)
        sentinel = (1, 2, 1, slice(None))
        table.plus[sentinel] = 0  # all-minus outcomes in one (budget, eps, arm)
        rng_probe = []
        from zneboundary.resample import _replicate_stream

        for rep in range(50):
            rng = _replicate_stream(7, rep)
            redraw = rng.binomial(table.shots, table.plus / table.shots)
            assert np.all(redraw[1, 2, 1, :] == 0)  # p_hat = 0 stays 0
            rng_probe.append(redraw[0, 0, 0, 0])
        # sibling cells keep their own (nonzero) rates
        assert any(x > 0 for x in rng_probe)

    def test_missing_statistics_counted_not_dropped(self):
        # censor every budget in some replicates by shrinking the table to a
        # window with no negative region at the smallest budget
        table = small_table(replicates=4, budgets=(1000, 2000, 3000))
        res = bootstrap_pipeline(table, ["s_obs"], 150, seed=3)[0]
        assert isinstance(res, BootstrapResult)
        assert 0.0 <= res.missing_fraction <= 1.0

    def test_validates_inputs(self):
        table = small_table(replicates=4)
        with pytest.raises(ConfigError, match="unknown bootstrap statistics"):
            bootstrap_pipeline(table, ["nope"], 100, seed=0)
        with pytest.raises(ConfigError, match="at least 100"):
            bootstrap_pipeline(table, ["s_obs"], 10, seed=0)
        with pytest.raises(ConfigError, match="variance window"):
            bootstrap_pipeline(table, ["q_hat"], 100, seed=0)
        with pytest.raises(ConfigError, match="bias window"):
            bootstrap_pipeline(table, ["alpha_hat"], 100, seed=0)
        with pytest.raises(ConfigError, match="level"):
            bootstrap_pipeline(table, ["s_obs"], 100, seed=0, level=1.5)


class TestPinnedBootstrap:
    """sha256 of ``as_dict()`` output, recorded before the per-table estimator."""

    DIGESTS = {
        "fixed": "f43b2a997720a220767c64c67dbd3c1832adcbeac4b72ee1639a08f7fbe39512",
        "optimal": "116aa5e68f7d0b9332fb8f5a8d21f07ab2ba33059d87cca2707acd401ad298ec",
    }

    @pytest.mark.parametrize("allocation", ["fixed", "optimal"])
    @pytest.mark.parametrize("cores", [1, 2, None], ids=["1", "2", "unset"])
    def test_all_statistics_pinned(self, allocation, cores, monkeypatch):
        if cores is not None:
            use_cores(monkeypatch, cores)
        budgets = (1000, 4000, 16000, 64000)
        rule = build_rule([1, 3], {"fixed": "uniform", "optimal": "optimal"}[allocation])
        grids = [auto_window(DLB, rule, b, span=(0.2, 5.0), points_per_decade=12).tolist()
                 for b in budgets]
        table = sample_count_table(DLB, rule, list(budgets), grids, 12, 11)
        results = bootstrap_pipeline(
            table, list(KNOWN_STATISTICS), 100, seed=21,
            variance_window=(2e-3, 5e-2), bias_window=(2e-3, 5e-2),
        )
        text = json.dumps([r.as_dict() for r in results], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[allocation]


WINDOWS = dict(variance_window=(2e-3, 5e-2), bias_window=(2e-3, 5e-2))


def estimates(table):
    """Bytes of every Monte Carlo estimate of ``table``: deltas, point statistics, bootstrap."""
    delta, std_err = deltas_from_counts(table)
    stats = count_pipeline(table, **WINDOWS)
    results = bootstrap_pipeline(table, list(KNOWN_STATISTICS), 100, seed=3, **WINDOWS)
    return (delta.tobytes(), std_err.tobytes(), json.dumps(stats, sort_keys=True),
            json.dumps([r.as_dict() for r in results], sort_keys=True))


class TestEstimateBlocks:
    """The estimators walk a count table in blocks of whole budget rows."""

    @pytest.mark.parametrize("rows", [1, 2], ids=["one-row", "two-rows"])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_blocks_match_one_block(self, rows, cores, monkeypatch):
        use_cores(monkeypatch, cores)
        table = small_table(replicates=7, budgets=(1000, 2000, 4000, 8000, 16000))
        assert table.plus.size <= mse.ESTIMATE_BLOCK_CELLS  # one block by default
        whole = estimates(table)
        # one or two budget rows a block; in twos, the fifth row is a short last block
        monkeypatch.setattr(mse, "ESTIMATE_BLOCK_CELLS", rows * table.plus[0].size)
        assert estimates(table) == whole

    def test_peak_memory_is_a_few_blocks(self, monkeypatch):
        block = 8192  # cells; the table's rows are 8,160 cells, one a block
        monkeypatch.setattr(mse, "ESTIMATE_BLOCK_CELLS", block, raising=False)
        use_cores(monkeypatch, 1)
        budgets = [1000 * 2**i for i in range(8)]
        table = sample_count_table(DLB, RULE13, budgets, [np.geomspace(2e-3, 5e-2, 8)] * 8,
                                   replicates=340, master_seed=4)
        assert table.plus[0].size <= block and len(table.plus) >= 8
        # one float64 array of the whole table is 8 blocks' worth, so a bound of
        # 8 blocks (plus the bootstrap's table-sized p_hat) refuses table-wide
        # temporaries
        block_bytes = 8 * block
        p_hat_bytes = 8 * table.plus.size
        runs = {
            "deltas_from_counts": (lambda: deltas_from_counts(table), 8 * block_bytes),
            "count_pipeline": (lambda: count_pipeline(table, **WINDOWS), 8 * block_bytes),
            "bootstrap_pipeline": (lambda: bootstrap_pipeline(table, ["s_obs", "q_hat"], 100,
                                                              seed=1, **WINDOWS),
                                   p_hat_bytes + 8 * block_bytes),
        }
        for name, (run, bound) in runs.items():
            run()  # first calls import and cache outside the trace
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"{name}: traced peak {peak} B, bound {bound} B"


class TestWorkerCount:
    """The bootstrap pool's size; these tests start no threads."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class Pool:  # runs the replicates in this thread, recording the pool's size
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(resample, "ThreadPoolExecutor", Pool)
        return sizes

    @pytest.mark.parametrize("cores, expected", [(2, 2), (16, 16), (512, 200)])
    def test_default_is_the_usable_cores(self, cores, expected, pool_sizes, monkeypatch):
        use_cores(monkeypatch, cores)
        bootstrap_pipeline(small_table(replicates=4), ["s_obs"], 200, seed=0)
        assert pool_sizes == [expected]

    @pytest.mark.parametrize("value", ["1", "3", "500", "abc", "0", "-3", "2.5", ""])
    def test_retired_thread_variable_is_ignored(self, value, pool_sizes, monkeypatch):
        # ZNEBOUNDARY_THREADS once sized the pool and refused a bad value
        monkeypatch.setenv("ZNEBOUNDARY_THREADS", value)
        use_cores(monkeypatch, 8)
        bootstrap_pipeline(small_table(replicates=4), ["s_obs"], 100, seed=0)
        assert pool_sizes == [8]

    def test_cpu_count_without_affinity(self, pool_sizes, monkeypatch):
        monkeypatch.delattr(resample.os, "sched_getaffinity", raising=False)
        table = small_table(replicates=4)
        monkeypatch.setattr(resample.os, "cpu_count", lambda: 6)
        bootstrap_pipeline(table, ["s_obs"], 100, seed=0)
        monkeypatch.setattr(resample.os, "cpu_count", lambda: None)
        bootstrap_pipeline(table, ["s_obs"], 100, seed=0)
        assert pool_sizes == [6, 1]
