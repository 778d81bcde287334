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
byte.  The delta, crossing and variance CSVs and the report embed the
configuration hash, and each stage reads its input as the table its
configuration fixes, laid out by the grid table ``cfg.grids``: the delta
rows are its ``(B, eps)`` cells, the crossing rows one per budget with each
bracket on its grid, and ``fit`` reads the counts with the configuration's
model, rule, budgets, grids, replicates and seed.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .boundary import (
    STATUS_CROSSED,
    STATUS_NO_CROSSING,
    STATUS_NO_NEGATIVE,
    CrossingEstimate,
    theoretical_boundary,
)
from .artifacts import SCHEMA_VERSION, begin_table, data_rows, open_table, read_block
from .config import ExperimentConfig
from .errors import ConfigError, FitError, RegimeError
from .fits import constant_check, fit_bias, fit_boundary, fit_variance_exponent, predict_slope
from .mse import CountTable, deltas_from_counts, exact_delta_curve, sample_count_table
from .resample import bootstrap_pipeline, count_pipeline

__all__ = [
    "run_sweep",
    "build_report",
    "write_delta_csv",
    "read_delta_csv",
    "write_crossings_csv",
    "read_crossings_csv",
    "write_variance_csv",
]

EXACT_FIT_POINTS = 40  # samples of the model's exact curves in a fit window
VARIANCE_CSV_POINTS = 60  # rows of the plot-ready variance curve


def run_sweep(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray | None, CountTable | None]:
    """The MSE-difference table on ``cfg.grids`` with the configured engine.

    Returns ``(delta, std_err, counts)``; ``std_err`` and the raw ``counts``
    are None for the exact engine.
    """
    model, rule = cfg.model(), cfg.rule()
    if cfg.is_monte_carlo:
        table = sample_count_table(model, rule, cfg.budgets, cfg.grids, cfg.replicates, cfg.seed)
        return (*deltas_from_counts(table), table)
    budgets = np.asarray(cfg.budgets, dtype=float)[:, None]
    return exact_delta_curve(model, rule, cfg.grids, budgets), None, None


# ---------------------------------------------------------------------------
# CSV artifacts (fixed column orders; the format itself is in ``artifacts``)

_DELTA_COLUMNS = ("B", "eps", "delta", "std_err", "source")
# the delta reader counts row endings in batches of whole lines, each this
# many bytes plus the line that crosses the mark
_LINE_BATCH_BYTES = 256 * 1024


def write_delta_csv(path, cfg: ExperimentConfig, delta: np.ndarray,
                    std_err: np.ndarray | None) -> None:
    """Write the delta table on ``cfg.grids``, formatting one budget block per write.

    Fields are ``repr`` floats, ``std_err`` is empty for the exact engine, and
    the source is the engine's kind.
    """
    row = ",%r,%r," + ("" if std_err is None else "%r") + f",{cfg.engine['kind']}\r\n"
    with open(path, "w", newline="") as fh:
        begin_table(fh, _DELTA_COLUMNS, cfg)
        cols = [cfg.grids, delta] + ([] if std_err is None else [std_err])
        for budget, block in zip(cfg.budgets, np.stack(cols, axis=-1)):
            fh.write((repr(float(budget)) + row) * len(block) % tuple(block.ravel().tolist()))


def read_delta_csv(path, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Load ``(delta, std_err)`` as written for ``cfg``, with one :func:`artifacts.read_block` call.

    Its rows must be the ``(B, eps)`` cells of ``cfg.grids`` in the writer's
    order, budget by budget, each with the configured engine's source.
    Besides the format errors of :func:`artifacts.open_table` and
    :func:`artifacts.read_block`, a row off its cell, a missing or an extra
    row, a nan or inf delta or std_err, a negative std_err, a row with
    another field count than the header, and a row whose source is not the
    engine's or whose std_err is set under the exact source (empty under
    monte_carlo) raise :class:`ConfigError` naming the first offending row.
    """
    where = f"delta table {path}"
    source = cfg.engine["kind"]
    grids = cfg.grids  # before the rows, so that its temporaries are gone by then
    with open_table(path, where, _DELTA_COLUMNS, cfg, "`zneboundary sweep`") as fh:
        rows = read_block(fh, where, _DELTA_COLUMNS, None, 1,
                          (0, 1, 2) if source == "exact" else (0, 1, 2, 3))
    _check_cells(where, rows, cfg.budgets, grids)
    if not (finite := np.isfinite(rows[:, 2:])).all():
        row, col = np.argwhere(~finite)[0] + (0, 2)
        raise ConfigError(f"{where}: data row {row + 1}: {_DELTA_COLUMNS[col]} "
                          f"{float(rows[row, col])} is not a finite number")
    if (negative := np.flatnonzero(rows[:, 3:] < 0)).size:
        raise ConfigError(f"{where}: data row {negative[0] + 1}: std_err "
                          f"{float(rows[negative[0], 3])!r} must be non-negative")
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
                                  f"and source {source}, as the configured engine writes")
    _, _, delta, *std_err = rows.T.reshape(-1, *grids.shape)  # one per column
    return delta, std_err[0] if std_err else None


def _check_cells(where: str, rows: np.ndarray, budgets, grids: np.ndarray) -> None:
    """Refuse ``rows`` other than the ``(B, eps)`` cells of ``grids``, in writer order."""
    cell_b, cell_eps = np.repeat(budgets, grids.shape[1]), grids.ravel()
    n = min(len(rows), grids.size)
    if (off := np.flatnonzero((rows[:n, 0] != cell_b[:n]) | (rows[:n, 1] != cell_eps[:n]))).size:
        i = off[0]
        raise ConfigError(f"{where}: data row {i + 1} (B={float(rows[i, 0])!r}, "
                          f"eps={float(rows[i, 1])!r}): not the configuration's cell "
                          f"(B={float(cell_b[i])!r}, eps={float(cell_eps[i])!r})")
    if len(rows) > n:
        raise ConfigError(f"{where}: data row {n + 1}: extra row beyond the configuration's "
                          f"{n} cells")
    if grids.size > n:
        raise ConfigError(f"{where}: no data row {n + 1}, the row of the configuration's "
                          f"cell (B={float(cell_b[n])!r}, eps={float(cell_eps[n])!r})")


_CROSSING_COLUMNS = ("B", "eps_star", "status", "bracket_lo", "bracket_hi")
_CROSSING_STATUSES = (STATUS_CROSSED, STATUS_NO_NEGATIVE, STATUS_NO_CROSSING)


def _field(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_crossings_csv(path, crossings: list[CrossingEstimate], cfg: ExperimentConfig) -> None:
    with open(path, "w", newline="") as fh:
        begin_table(fh, _CROSSING_COLUMNS, cfg)
        for c in crossings:
            fh.write(f"{_field(c.budget)},{_field(c.eps_star)},{c.status},"
                     f"{_field(c.bracket_lo)},{_field(c.bracket_hi)}\r\n")


def read_crossings_csv(path, cfg: ExperimentConfig) -> list[CrossingEstimate]:
    """Load the crossing table written for ``cfg``: one row per configured budget, in order.

    Besides the format errors of :func:`artifacts.open_table`, a malformed
    row raises :class:`ConfigError` naming the first offending data row: a
    budget other than the configuration's for that row, a missing or an
    extra row, a crossed row without its eps_star or bracket, with a bracket
    other than two neighbouring points of its budget's ``cfg.grids`` grid,
    or with its eps_star outside the bracket, and a censored row with
    either.
    """
    where = f"crossing table {path}"
    out = []
    rerun = "`zneboundary sweep`, then `zneboundary boundary`"
    grids = cfg.grids
    with open_table(path, where, _CROSSING_COLUMNS, cfg, rerun) as fh:
        rows = (line.rstrip("\n").split(",") for line in fh if line.strip())
        for number, row in enumerate(rows, 1):
            try:
                if number > len(cfg.budgets):
                    raise ValueError(f"extra row beyond the configuration's "
                                     f"{len(cfg.budgets)} budgets")
                out.append(_crossing_from_row(row, cfg.budgets[number - 1], grids[number - 1]))
            except ValueError as err:
                raise ConfigError(f"{where}: data row {number} {','.join(row)!r}: {err}") from err
    if len(out) < len(cfg.budgets):
        raise ConfigError(f"{where}: no data row {len(out) + 1}, the row of the "
                          f"configuration's budget B={cfg.budgets[len(out)]!r}")
    return out


def _crossing_from_row(row: list[str], budget: float, grid: np.ndarray) -> CrossingEstimate:
    if len(row) != len(_CROSSING_COLUMNS):
        raise ValueError(f"{len(row)} fields, expected {len(_CROSSING_COLUMNS)}")
    b, eps_star, status, lo, hi = row
    if status not in _CROSSING_STATUSES:
        raise ValueError(f"status must be one of {_CROSSING_STATUSES}")
    crossed = status == STATUS_CROSSED
    if crossed != bool(eps_star):
        raise ValueError("eps_star must be given exactly when the status is crossed")
    if not crossed == bool(lo) == bool(hi):
        raise ValueError("bracket_lo and bracket_hi must be given exactly when the "
                         "status is crossed")
    if float(b) != budget:
        raise ValueError(f"B {b}, not the configuration's budget {budget!r}")
    if not crossed:
        return CrossingEstimate(budget=budget, eps_star=None, status=status)
    eps_star, lo, hi = float(eps_star), float(lo), float(hi)
    j = int(np.searchsorted(grid, lo))
    if not (j + 1 < len(grid) and grid[j] == lo and grid[j + 1] == hi):
        raise ValueError(f"bracket [{lo!r}, {hi!r}] is not two neighbouring points "
                         f"of the budget's eps grid")
    if not lo <= eps_star <= hi:
        raise ValueError(f"eps_star {eps_star!r} outside its bracket [{lo!r}, {hi!r}]")
    return CrossingEstimate(budget=budget, eps_star=eps_star, status=status,
                            bracket_lo=lo, bracket_hi=hi)


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
