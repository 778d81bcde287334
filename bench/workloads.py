"""The three benchmark workloads, their artifact digests and science checks.

Each workload is prepared once (configs parsed, untimed) and then iterated.
One iteration returns its wall time and a list of operations; an operation
is one unit the workload must get right (one CLI pipeline, or one step of
the Monte Carlo battery) with the sha256 digests of what it produced and
the problems found in it.  A problem is a non-zero CLI exit code, an
exception, or a failed science check; digest mismatches are judged by the
caller, which knows the golden digests.

Everything the program does is reached through module attributes at call
time (``cli.main``, ``mse.mc_delta``, ...), so a tracer that wraps those
attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
DEFAULT_SEED = 12345


@dataclass
class Operation:
    name: str
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    science: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _exception_text(err: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(err), err)).strip()


def _clear(workdir: Path) -> None:
    for entry in workdir.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


class CliWorkload:
    """``sweep -> boundary -> fit`` through ``cli.main`` for each config."""

    stages = ("sweep", "boundary", "fit")

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def overrides(self) -> list[str]:
        return []

    def run_stages(self, config: Path) -> list[str]:
        from zneboundary import cli

        problems = []
        args = ["--config", str(config)]
        for value in self.overrides():
            args += ["--set", value]
        sink = io.StringIO()
        for stage in self.stages:
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main([stage, *args])
            except Exception as err:  # any exception is a failed operation
                problems.append(f"{stage}: {_exception_text(err)}")
                break
            if code != 0:
                tail = sink.getvalue().strip().splitlines()[-1:]
                problems.append(f"{stage} exited with code {code}: {' '.join(tail)}")
                break
        return problems

    def iterate(self) -> tuple[float, list[Operation]]:
        _clear(self.workdir)
        start = time.perf_counter()
        outcomes = [(prefix, self.run_stages(path)) for prefix, path in self.configs]
        elapsed = time.perf_counter() - start
        ops = []
        for prefix, problems in outcomes:
            op = Operation(name=prefix, problems=problems)
            op.digests = {p.name: sha256_file(p)
                          for p in sorted(self.workdir.glob(f"{prefix}_*"))}
            if not problems:
                self.science(op, json.loads((self.workdir / f"{prefix}_report.json").read_text()))
            ops.append(op)
        return elapsed, ops


class ExactLadder(CliWorkload):
    """Exact engine over a 121-budget ladder, fixed and optimal allocation.

    The exact engine draws nothing at random, so the inputs do not depend on
    the seed and the golden digests hold for every seed.
    """

    name = "exact_ladder"
    seeded = False
    configs = [("a", CONFIG_DIR / "exact_a.yaml"), ("b", CONFIG_DIR / "exact_b.yaml")]
    setup_config = CONFIG_DIR / "exact_a.yaml"

    def science(self, op: Operation, report: dict) -> None:
        slope = report["boundary_fit"].get("slope")
        if op.name == "a":
            target, tol = -1.0, 0.02
        else:
            target, tol = report.get("predicted_slope"), 0.03
        op.science = {"slope": slope, "target": target, "tolerance": tol}
        if not isinstance(target, float) or slope is None or abs(slope - target) > tol:
            op.problems.append(f"fitted slope {slope} not within {tol} of {target}")


class McSweep(CliWorkload):
    """Monte Carlo engine, 13 budgets x 17 points x 3 arms x 256 replicates."""

    name = "mc_sweep"
    seeded = True
    configs = [("mc", CONFIG_DIR / "mc_sweep.yaml")]
    setup_config = CONFIG_DIR / "mc_sweep.yaml"

    def overrides(self) -> list[str]:
        return [f"seed={self.seed}"]

    def science(self, op: Operation, report: dict) -> None:
        crossed = sum(c["status"] == "crossed" for c in report["crossings"])
        s_obs = report["count_estimates"].get("s_obs")
        op.science = {"crossed": crossed, "budgets": len(report["crossings"]),
                      "s_obs": s_obs}
        if crossed < 3 or s_obs is None:
            op.problems.append(f"only {crossed} budgets crossed; s_obs = {s_obs}")


class McBattery:
    """Monte Carlo steps of the battery's bootstrap-soundness check.

    Sizes and seeds are the check's own: 200 single-cell ``mc_delta`` runs
    for the unbiasedness t-test, the bootstrap determinism pair, and 12
    datasets bootstrapped for the interval-overlap spot check.  The check's
    100-dataset coverage loop runs the same code 100 more times and is left
    out.  The seeds belong to the check, whose statistical tolerances hold
    at them, so the inputs do not depend on ``--seed``.
    """

    name = "mc_battery"
    seeded = False
    setup_config = CONFIG_DIR / "mc_battery.yaml"
    eps, budget, cells, cell_replicates = 0.05, 2000, 200, 16

    def __init__(self, workdir: Path, seed: int):
        from zneboundary.config import load_config

        self.workdir = workdir
        self.seed = seed
        self.cfg = load_config(self.setup_config)

    def dataset(self, seed: int, replicates: int):
        from zneboundary import boundary, mse

        cfg = self.cfg
        model, rule = cfg.model(), cfg.rule()
        span = tuple(float(s) for s in cfg.grid["span"])
        ppd = int(cfg.grid["points_per_decade"])
        grids = [boundary.auto_window(model, rule, b, span=span,
                                      points_per_decade=ppd).tolist()
                 for b in cfg.budgets]
        return mse.sample_count_table(model, rule, [int(b) for b in cfg.budgets],
                                      grids, replicates, seed)

    def run_steps(self):
        from zneboundary import mse, resample

        model, rule = self.cfg.model(), self.cfg.rule()
        exact = mse.exact_delta(model, rule, self.eps, float(self.budget)).delta
        errors = []
        for i in range(self.cells):
            point, _ = mse.mc_delta(model, rule, self.eps, self.budget,
                                    self.cell_replicates, master_seed=3000 + i)
            errors.append(point.delta - exact)

        table = self.dataset(self.cfg.seed, 16)
        pair = [resample.bootstrap_pipeline(table, statistics=["s_obs"],
                                            n_replicates=120, seed=5)
                for _ in range(2)]

        spot = []
        for i in range(12):
            data = self.dataset(50_000 + 23 * i, self.cfg.replicates)
            spot.append(resample.bootstrap_pipeline(
                data, ["s_obs"], 200, seed=900 + i, level=0.95)[0])
        return errors, pair, spot

    def iterate(self) -> tuple[float, list[Operation]]:
        start = time.perf_counter()
        try:
            errors, pair, spot = self.run_steps()
        except Exception as err:  # any exception fails every step
            elapsed = time.perf_counter() - start
            text = _exception_text(err)
            return elapsed, [Operation(n, problems=[text])
                             for n in ("unbiasedness", "determinism", "overlap")]
        elapsed = time.perf_counter() - start
        return elapsed, [self.unbiasedness(errors), self.determinism(pair),
                         self.overlap(spot)]

    @staticmethod
    def unbiasedness(errors) -> Operation:
        import numpy as np
        from scipy import stats

        err = np.asarray(errors)
        t_stat = float(err.mean() / (err.std(ddof=1) / np.sqrt(err.size)))
        t_crit = float(stats.t.ppf(1 - 0.01 / 2, df=err.size - 1))
        op = Operation("unbiasedness", digests={"mc_delta_errors": sha256_json(errors)},
                       science={"t": t_stat, "t_crit": t_crit})
        if abs(t_stat) > t_crit:
            op.problems.append(f"unbiasedness t-test fails: |t| = {abs(t_stat):.3f} "
                               f"> {t_crit:.3f}")
        return op

    @staticmethod
    def determinism(pair) -> Operation:
        dicts = [[r.as_dict() for r in results] for results in pair]
        op = Operation("determinism", digests={"bootstrap_pair": sha256_json(dicts[0])})
        if dicts[0] != dicts[1]:
            op.problems.append("bootstrap results differ across identically seeded runs")
        return op

    @staticmethod
    def overlap(spot) -> Operation:
        op = Operation("overlap",
                       digests={"bootstrap_spot": sha256_json([r.as_dict() for r in spot])})
        if any(r.ci_lo is None for r in spot):
            op.problems.append("a spot-check repetition produced no interval")
            return op
        lo, hi = max(r.ci_lo for r in spot), min(r.ci_hi for r in spot)
        op.science = {"max_lo": lo, "min_hi": hi}
        if lo > hi:
            op.problems.append(f"12-interval overlap fails: max lo {lo:.4f} > min hi {hi:.4f}")
        return op


WORKLOADS = {w.name: w for w in (ExactLadder, McSweep, McBattery)}
