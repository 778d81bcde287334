"""End-to-end experiment pipeline shared by the CLI commands.

A run flows sweep -> boundary -> fit:

    sweep     evaluates the MSE-difference grid (exact engine or Monte Carlo
              with persisted raw counts),
    boundary  extracts one crossing estimate per budget,
    fit       produces the JSON report: regime classification, boundary fit,
              variance/bias regressions, constant-level check, and bootstrap
              intervals when raw counts exist.

All artifacts are plain CSV plus one JSON report; column orders are fixed.
Re-running any stage with the same configuration and seed reproduces every
byte (the delta, crossing and variance CSVs and the report embed the
configuration hash, and a stage refuses a delta or crossing table written for
another configuration; ``fit`` refuses a counts header, grids included, other
than the one its configuration's sweep writes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .boundary import (
    STATUS_CROSSED,
    STATUS_NO_CROSSING,
    STATUS_NO_NEGATIVE,
    CrossingEstimate,
    auto_windows,
    check_crossing_grid,
    crossing_estimates,
    theoretical_boundary,
)
from .artifacts import SCHEMA_VERSION, begin_table, data_rows, open_table, read_block
from .config import ExperimentConfig
from .errors import ConfigError, FitError, RegimeError
from .fits import constant_check, fit_bias, fit_boundary, fit_variance_exponent, predict_slope
from .mse import CountTable, deltas_from_counts, exact_delta_curve, grid_table, sample_count_table
from .resample import bootstrap_pipeline, count_pipeline

__all__ = [
    "SweepResult",
    "build_grids",
    "run_sweep",
    "crossings_from_sweep",
    "build_report",
    "write_delta_csv",
    "read_delta_csv",
    "write_crossings_csv",
    "read_crossings_csv",
    "write_variance_csv",
]

EXACT_FIT_POINTS = 40  # samples of the model's exact curves in a fit window
VARIANCE_CSV_POINTS = 60  # rows of the plot-ready variance curve


@dataclass
class SweepResult:
    """MSE-difference grid for a budget ladder, plus raw counts if sampled."""

    budgets: tuple[float, ...]
    eps_grids: np.ndarray       # (n_budgets, n_eps), one grid per budget
    delta: np.ndarray           # (n_budgets, n_eps)
    std_err: np.ndarray | None  # Monte Carlo only
    source: str
    counts: CountTable | None


def build_grids(cfg: ExperimentConfig) -> np.ndarray:
    """The :func:`mse.grid_table` of the pre-registered grid section, one row per budget."""
    if cfg.grid["mode"] == "explicit":
        return grid_table(cfg.budgets, [cfg.grid["eps"]] * len(cfg.budgets))
    return auto_windows(cfg.model(), cfg.rule(), cfg.budgets, span=cfg.grid["span"],
                        points_per_decade=cfg.grid["points_per_decade"])


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Evaluate the MSE-difference grid with the configured engine."""
    model, rule = cfg.model(), cfg.rule()
    grids = build_grids(cfg)
    if cfg.is_monte_carlo:
        table = sample_count_table(model, rule, cfg.budgets, grids, cfg.replicates, cfg.seed)
        delta, std_err = deltas_from_counts(table)
        return SweepResult(
            budgets=cfg.budgets, eps_grids=grids, delta=delta,
            std_err=std_err, source="monte_carlo", counts=table,
        )
    budgets = np.asarray(cfg.budgets, dtype=float)[:, None]
    return SweepResult(
        budgets=cfg.budgets, eps_grids=grids, delta=exact_delta_curve(model, rule, grids, budgets),
        std_err=None, source="exact", counts=None,
    )


def crossings_from_sweep(sweep: SweepResult) -> list[CrossingEstimate]:
    """One crossing per budget, from one pass over the sweep's table.

    A grid with fewer than 3 points or out of ascending order raises
    :class:`ConfigError`.
    """
    try:
        check_crossing_grid(sweep.eps_grids, sweep.delta)
    except ValueError as err:
        raise ConfigError(f"crossing estimation: {err}") from err
    return crossing_estimates(sweep.eps_grids, sweep.delta, sweep.budgets)


# ---------------------------------------------------------------------------
# CSV artifacts (fixed column orders; the format itself is in ``artifacts``)

_DELTA_COLUMNS = ("B", "eps", "delta", "std_err", "source")
_DELTA_SOURCES = ("exact", "monte_carlo")
# the delta reader counts row endings in batches of whole lines, each this
# many bytes plus the line that crosses the mark
_LINE_BATCH_BYTES = 256 * 1024


def write_delta_csv(path, sweep: SweepResult, cfg: ExperimentConfig | None = None) -> None:
    """Write the delta table, formatting one budget block per write.

    Fields are ``repr`` floats and ``std_err`` is empty for the exact engine.
    """
    row = ",%r,%r," + ("" if sweep.std_err is None else "%r") + f",{sweep.source}\r\n"
    with open(path, "w", newline="") as fh:
        begin_table(fh, _DELTA_COLUMNS, cfg)
        cols = [sweep.eps_grids, sweep.delta] + ([] if sweep.std_err is None else [sweep.std_err])
        for budget, block in zip(sweep.budgets, np.stack(cols, axis=-1)):
            fh.write((repr(float(budget)) + row) * len(block) % tuple(block.ravel().tolist()))


def read_delta_csv(path, cfg: ExperimentConfig | None = None) -> SweepResult:
    """Load a delta table with one :func:`artifacts.read_block` call.

    With ``cfg``, the table must have been written for ``cfg``.  Besides the
    format errors of :func:`artifacts.open_table` and :func:`artifacts.read_block`,
    a nan or inf number, a budget or eps that is not positive, a negative
    std_err, a budget with another row count than the first, eps or budgets
    out of ascending order, a row with another field count than the header,
    and a row whose source is not data row 1's or whose std_err is set under
    the exact source (empty under monte_carlo) raise :class:`ConfigError`
    naming the first offending row.
    """
    where = f"delta table {path}"
    with open_table(path, where, _DELTA_COLUMNS, cfg, "`zneboundary sweep`") as fh:
        start = fh.tell()
        first = fh.readline().rstrip("\n").split(",")
        if first == [""]:
            raise ConfigError(f"{where} is empty")
        if first[-1] not in _DELTA_SOURCES:
            raise ConfigError(f"{where}: data row 1 {','.join(first)!r}: "
                              f"source must be one of {_DELTA_SOURCES}")
        source = first[-1]
        fh.seek(start)
        rows = read_block(fh, where, _DELTA_COLUMNS, None, 1,
                          (0, 1, 2) if source == "exact" else (0, 1, 2, 3))
    if not (finite := np.isfinite(rows)).all():
        row, col = np.argwhere(~finite)[0]
        raise ConfigError(f"{where}: data row {row + 1}: {_DELTA_COLUMNS[col]} "
                          f"{float(rows[row, col])} is not a finite number")
    # the writer's budgets and strengths are positive and its std_err non-negative;
    # checked before the order checks, whose differences would overflow otherwise
    below = np.zeros(rows.shape, dtype=bool)
    below[:, :2], below[:, 3:] = rows[:, :2] <= 0, rows[:, 3:] < 0
    if below.any():
        row, col = np.argwhere(below)[0]
        raise ConfigError(f"{where}: data row {row + 1}: {_DELTA_COLUMNS[col]} "
                          f"{float(rows[row, col])!r} must be "
                          f"{'positive' if col < 2 else 'non-negative'}")
    # each run of one B value is a budget block
    b_col = rows[:, 0]
    starts = np.flatnonzero(np.r_[True, b_col[1:] != b_col[:-1]])
    n_rows = np.diff(np.r_[starts, len(rows)])
    n_eps = int(n_rows[0])

    def at(row) -> str:
        return f"{where}: data row {row + 1} (B={float(b_col[row])!r})"

    if (short := np.flatnonzero(n_rows != n_eps)).size:
        raise ConfigError(f"{at(starts[short[0]])}: budget has {n_rows[short[0]]} rows, "
                          f"the first {n_eps}")
    if (down := np.flatnonzero((np.diff(rows[:, 1]) <= 0) & (np.diff(b_col) == 0))).size:
        raise ConfigError(f"{at(down[0] + 1)}: eps must be strictly ascending within a budget")
    if (down := np.flatnonzero(np.diff(b_col[starts]) <= 0)).size:
        raise ConfigError(f"{at(starts[down[0] + 1])}: budgets must be strictly ascending")
    # Every row has one field per column and ends in ",,exact" (empty std_err)
    # or ",monte_carlo" (its std_err parsed as a number above).  Counting the
    # writer's row endings and commas (the header has as many as a row) is the
    # fast check, streamed; the row scan decides, and names the first bad row.
    suffix = (",," if source == "exact" else ",") + source
    endings = commas = 0
    with open(path, "rb") as fh:  # whole lines, so no row ending straddles two batches
        ending = f"{suffix}\r\n".encode()
        while batch := b"".join(fh.readlines(_LINE_BATCH_BYTES)):
            endings += batch.count(ending)
            commas += batch.count(b",")
    n_columns = len(_DELTA_COLUMNS)
    if endings != len(rows) or commas != (n_columns - 1) * (len(rows) + 1):
        for number, line in data_rows(path):
            if (n_fields := line.count(",") + 1) != n_columns:
                raise ConfigError(f"{where}: data row {number} {line!r}: "
                                  f"{n_fields} fields, expected {n_columns}")
            if not line.endswith(suffix):
                raise ConfigError(f"{where}: data row {number} {line!r}: expected "
                                  f"{'an empty' if source == 'exact' else 'a'} std_err "
                                  f"and source {source}, as in data row 1")
    _, eps, delta, *std_err = rows.T.reshape(-1, len(starts), n_eps)  # one per column
    return SweepResult(
        budgets=tuple(b_col[starts].tolist()), eps_grids=eps,
        delta=delta, std_err=std_err[0] if std_err else None, source=source, counts=None,
    )


_CROSSING_COLUMNS = ("B", "eps_star", "status", "bracket_lo", "bracket_hi")
_CROSSING_STATUSES = (STATUS_CROSSED, STATUS_NO_NEGATIVE, STATUS_NO_CROSSING)


def _field(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_crossings_csv(
    path, crossings: list[CrossingEstimate], cfg: ExperimentConfig | None = None
) -> None:
    with open(path, "w", newline="") as fh:
        begin_table(fh, _CROSSING_COLUMNS, cfg)
        for c in crossings:
            fh.write(f"{_field(c.budget)},{_field(c.eps_star)},{c.status},"
                     f"{_field(c.bracket_lo)},{_field(c.bracket_hi)}\r\n")


def read_crossings_csv(path, cfg: ExperimentConfig | None = None) -> list[CrossingEstimate]:
    """Load a crossing table; with ``cfg``, it must have been written for ``cfg``.

    Besides the format errors of :func:`artifacts.open_table`, a malformed
    row raises :class:`ConfigError` naming the first offending data row: a
    nan or inf number, a budget, eps_star or bracket end that is not
    positive, a crossed row without its eps_star or bracket or with its
    eps_star outside the bracket, a censored row with either, or a budget
    not above the previous row's (budgets must be strictly ascending).
    """
    where = f"crossing table {path}"
    out = []
    rerun = "`zneboundary sweep`, then `zneboundary boundary`"
    with open_table(path, where, _CROSSING_COLUMNS, cfg, rerun) as fh:
        rows = (line.rstrip("\n").split(",") for line in fh if line.strip())
        for number, row in enumerate(rows, 1):
            try:
                crossing = _crossing_from_row(row)
                if out and crossing.budget <= out[-1].budget:
                    raise ValueError(f"budgets must be strictly ascending; the previous "
                                     f"row has B={out[-1].budget!r}")
                out.append(crossing)
            except ValueError as err:
                raise ConfigError(f"{where}: data row {number} {','.join(row)!r}: {err}") from err
    if not out:
        raise ConfigError(f"{where} is empty")
    return out


def _crossing_from_row(row: list[str]) -> CrossingEstimate:
    if len(row) != len(_CROSSING_COLUMNS):
        raise ValueError(f"{len(row)} fields, expected {len(_CROSSING_COLUMNS)}")
    budget, eps_star, status, lo, hi = row
    if status not in _CROSSING_STATUSES:
        raise ValueError(f"status must be one of {_CROSSING_STATUSES}")
    crossed = status == STATUS_CROSSED
    if crossed != bool(eps_star):
        raise ValueError("eps_star must be given exactly when the status is crossed")
    if not crossed == bool(lo) == bool(hi):
        raise ValueError("bracket_lo and bracket_hi must be given exactly when the "
                         "status is crossed")
    for name, text in zip(_CROSSING_COLUMNS, row):
        if name != "status" and text:
            if not math.isfinite(value := float(text)):
                raise ValueError(f"{name} {text} is not a finite number")
            if value <= 0:  # the writer's budgets and strengths are positive
                raise ValueError(f"{name} {text} must be positive")
    if crossed and not float(lo) <= float(eps_star) <= float(hi):
        raise ValueError(f"eps_star {eps_star} outside its bracket [{lo}, {hi}]")
    return CrossingEstimate(
        budget=float(budget),
        eps_star=float(eps_star) if eps_star else None,
        status=status,
        bracket_lo=float(lo) if lo else None,
        bracket_hi=float(hi) if hi else None,
    )


def write_variance_csv(path, cfg: ExperimentConfig) -> bool:
    """Plot-ready exact variance curve over the pre-registered window."""
    window, model = cfg.windows.get("variance"), cfg.model()
    if window is None or not model.sampled:
        return False
    grid = np.geomspace(window[0], window[1], VARIANCE_CSV_POINTS)
    with open(path, "w", newline="") as fh:
        begin_table(fh, ("eps", "variance"), cfg)
        for eps, variance in zip(grid.tolist(), model.variance(grid).tolist()):
            fh.write(f"{eps!r},{variance!r}\r\n")
    return True


# ---------------------------------------------------------------------------
# report

def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def build_report(
    cfg: ExperimentConfig,
    crossings: list[CrossingEstimate],
    counts: CountTable | None,
) -> dict:
    """Assemble the JSON run report; the single source for fitted numbers."""
    model, rule = cfg.model(), cfg.rule()
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": cfg.raw,
        "config_hash": cfg.hash(),
        "pre_registered": {
            "grid": cfg.grid,
            "windows": cfg.windows,
            "declared_before_fit": True,
        },
        "model_declared": model.declared(),
    }

    try:
        regime = theoretical_boundary(model, rule)
        report["regime"] = regime.as_dict()
    except RegimeError as err:
        regime = None
        report["regime"] = {"error": str(err)}

    report["crossings"] = [
        {
            "B": c.budget, "eps_star": c.eps_star, "status": c.status,
            "bracket_lo": c.bracket_lo, "bracket_hi": c.bracket_hi,
        }
        for c in crossings
    ]

    try:
        boundary_fit = fit_boundary(crossings)
        report["boundary_fit"] = boundary_fit.as_dict()
    except FitError as err:
        boundary_fit = None
        report["boundary_fit"] = {"error": str(err)}

    var_fit = bias_fit = None
    var_win, bias_win = cfg.windows.get("variance"), cfg.windows.get("bias")
    if model.sampled and var_win:
        grid = np.geomspace(*var_win, EXACT_FIT_POINTS)
        var_fit = fit_variance_exponent(grid, model.variance(grid), var_win)
        report["variance_fit"] = var_fit.as_dict()
        try:
            report["predicted_slope"] = predict_slope(var_fit.q_hat)
        except FitError as err:
            report["predicted_slope"] = {"error": str(err)}
    if model.sampled and bias_win:
        grid = np.geomspace(*bias_win, EXACT_FIT_POINTS)
        bias_fit = fit_bias(grid, model.mean(grid) - model.mean(0.0), bias_win)
        report["bias_fit"] = bias_fit.as_dict()

    if boundary_fit and var_fit and bias_fit and regime and regime.c_pq:
        try:
            check = constant_check(boundary_fit, var_fit, bias_fit, rule, regime.c_pq)
            report["constant_check"] = check.as_dict()
        except FitError as err:
            report["constant_check"] = {"error": str(err)}

    if counts is not None:
        point_stats = count_pipeline(counts, variance_window=var_win, bias_window=bias_win)
        report["count_estimates"] = point_stats
        if cfg.bootstrap:
            results = bootstrap_pipeline(
                counts,
                cfg.bootstrap["statistics"],
                cfg.bootstrap["n_replicates"],
                cfg.bootstrap["seed"],
                level=cfg.bootstrap["level"],
                variance_window=var_win,
                bias_window=bias_win,
            )
            report["bootstrap"] = [r.as_dict() for r in results]

    return _jsonable(report)
