"""Raw-count bootstrap: label preservation, determinism, and intervals."""

import hashlib
import json

import numpy as np
import pytest

from zneboundary.boundary import auto_window
from zneboundary.errors import ConfigError
from zneboundary.models import DeterministicLimitBinary
from zneboundary.mse import CountTable, sample_count_table
from zneboundary.resample import (
    KNOWN_STATISTICS,
    BootstrapResult,
    bootstrap_pipeline,
    count_pipeline,
)
from zneboundary.rules import build_rule

DLB = DeterministicLimitBinary(kappa=1.0)
RULE13 = build_rule([1, 3])


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

    def test_windows_optional(self):
        table = small_table(replicates=10)
        stats = count_pipeline(table)
        assert "q_hat" not in stats
        assert "s_obs" in stats

    def test_resampled_counts_are_range_checked(self):
        table = small_table(replicates=4)
        for value in (-1, table.shots[1, 2, 1, 3] + 1):
            bad = table.plus.copy()
            bad[1, 2, 1, 3] = value
            with pytest.raises(ValueError, match=r"\[0, shots\]"):
                count_pipeline(table, plus=bad)
        with pytest.raises(ValueError, match="shape"):
            count_pipeline(table, plus=table.plus[..., :2])

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
        sequential = bootstrap_pipeline(table, **kw)
        monkeypatch.setenv("ZNEBOUNDARY_THREADS", "4")
        threaded = bootstrap_pipeline(table, **kw)
        assert sequential == threaded

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
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_all_statistics_pinned(self, allocation, threads, monkeypatch):
        monkeypatch.setenv("ZNEBOUNDARY_THREADS", threads)
        budgets = (1000, 4000, 16000, 64000)
        grids = [auto_window(DLB, RULE13, b, span=(0.2, 5.0), points_per_decade=12).tolist()
                 for b in budgets]
        table = sample_count_table(DLB, RULE13, list(budgets), grids, 12, 11,
                                   realloc=allocation)
        results = bootstrap_pipeline(
            table, list(KNOWN_STATISTICS), 100, seed=21,
            variance_window=(2e-3, 5e-2), bias_window=(2e-3, 5e-2), allocation=allocation,
        )
        text = json.dumps([r.as_dict() for r in results], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[allocation]
