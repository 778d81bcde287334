"""Acceptance suite: one test per validation criterion, at fixed tolerances.

Each criterion delegates to the package's own validation battery (the same
code behind ``zneboundary validate``), so the CLI battery and this suite can
never drift apart.  Runtime budgets are asserted alongside correctness.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  The Monte Carlo / bootstrap criterion dominates the runtime
(about 2.5 minutes); everything else finishes in seconds.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from scipy import stats

from zneboundary.validate import CHECKS, T_CRIT_99, UNBIASED_RUNS

ROOT = Path(__file__).resolve().parents[1]

RUNTIME_BUDGETS = {
    "rule_identities": 1.0,
    "penalty_closed_form": 1.0,
    "subcritical_root_law": 10.0,
    "critical_threshold": 5.0,
    "exact_analytic_crossings": 30.0,
    "qhat_slope_chain": 10.0,
    "allocation_invariance": 30.0,
    "local_optimality_and_bracketing": 10.0,
    "rate_law": 10.0,
    "mc_bootstrap_soundness": 600.0,
}


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_criterion(name, check):
    start = time.perf_counter()
    detail = check()  # raises AssertionError with the measured numbers on failure
    elapsed = time.perf_counter() - start
    print(f"PASS {name} [{elapsed:.1f}s]: {detail}")
    assert elapsed < RUNTIME_BUDGETS[name], (
        f"{name} took {elapsed:.1f}s, over its {RUNTIME_BUDGETS[name]:.0f}s budget"
    )


def test_battery_covers_every_criterion():
    assert [name for name, _ in CHECKS] == list(RUNTIME_BUDGETS)


def test_t_critical_value_is_the_students_t_quantile():
    assert T_CRIT_99 == pytest.approx(stats.t.ppf(0.995, UNBIASED_RUNS - 1), rel=1e-12)


def test_cli_and_config_do_not_load_scipy():
    script = ("import sys, zneboundary.cli; from zneboundary.config import load_config; "
              "load_config('bench/configs/exact_a.yaml'); sys.exit('scipy' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0
