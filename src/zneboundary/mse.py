"""Exact and Monte Carlo mean-squared error of the two estimators.

The unmitigated estimator spends the whole budget ``B`` at strength ``eps``:

    bias = mu(eps) - mu(0),        var = v(eps) / B.

The extrapolated estimator splits ``n_j = pi_j B`` shots across the scaled
strengths ``lam_j eps``:

    bias = sum_j c_j mu(lam_j eps) - mu(0),
    var  = (1/B) sum_j c_j^2 v(lam_j eps) / pi_j,

both computed from the exact model curves with no series truncation.  The
quantity of interest is ``delta = MSE_noisy - MSE_zne`` (positive means the
extrapolation helps).

The Monte Carlo engine realizes the same comparison with finite counts.  Raw
data for one experiment lives in a :class:`CountTable`: one binomial
plus-count per (budget, eps, arm, replicate) cell, where arm slot 0 is the
unmitigated arm and slots 1..k+1 the scaled levels.  Every cell's random
stream is derived from the master seed and the cell index by a counter-based
split, so cells can be generated in any order (or in parallel) with
bit-identical results.

:func:`sample_count_table` uses that: each budget block is one task, drawn
in-process or, on a large enough table, by forked worker processes (the
per-cell loop holds the interpreter lock, so threads would not overlap).
:func:`worker_count` sizes both that pool and the bootstrap's threads.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import SCHEMA_VERSION, begin_table, check_schema, open_table, read_block
from .errors import AllocationError, ConfigError, ModelError
from .models import NoiseObservableModel, check_scaled_eps
from .rules import RichardsonRule, optimal_allocation

__all__ = [
    "DeltaPoint",
    "CountTable",
    "exact_delta",
    "exact_delta_curve",
    "check_grid_lengths",
    "integerize_allocation",
    "cell_stream",
    "mc_delta",
    "sample_count_table",
    "deltas_from_counts",
    "worker_count",
]

THREADS_ENV_VAR = "ZNEBOUNDARY_THREADS"

# Cells per sampling worker process.  At about 2.3 us a cell this is some
# 20 ms of draws, against about 8 ms to fork a worker pool.
MIN_CELLS_PER_WORKER = 10_000


@dataclass(frozen=True)
class DeltaPoint:
    """MSE difference at one (eps, budget) cell."""

    eps: float
    budget: float
    delta: float
    source: str  # "exact" or "monte_carlo"
    std_err: float | None = None


def _resolve_alloc(model, rule: RichardsonRule, eps) -> np.ndarray:
    """The rule's split at ``eps``: per strength if it reallocates, else fixed."""
    return np.asarray(optimal_allocation(rule, model, eps) if rule.optimal else rule.alloc)


def _mse_terms(model, rule: RichardsonRule | None, eps, budget: float):
    """Exact ``(bias, variance)`` arrays of both estimators along a 1-D grid.

    The one implementation of the formulas above; returns ``(noisy, zne)``,
    ``zne`` None without a rule.  Out-of-domain grids raise the error a
    point-by-point loop meets first.  The golden outputs pin the rounding:
    one BLAS dot per row for the bias (a gemv over the grid rounds
    differently), libm ``pow`` in the models, and row sums of C-contiguous
    ``(n, k+1)`` terms.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    mu0 = model.mean(0.0)
    eps = np.asarray(eps, dtype=float)
    if rule is not None:
        strengths = eps[:, None] * np.asarray(rule.scales)
        inside = model.inside_domain(eps) & model.inside_domain(strengths).all(axis=1)
        if not inside.all():
            first = float(eps[np.argmin(inside)])
            model.check_eps(first)
            check_scaled_eps(model, first, rule.scales)
    noisy = (model.mean(eps) - mu0, model.variance(eps) / budget)
    if rule is None:
        return noisy, None
    pi = _resolve_alloc(model, rule, eps)
    c = np.asarray(rule.coeffs)
    bias = (model.mean(strengths)[:, None, :] @ c)[:, 0] - mu0
    variance = (c**2 * model.variance(strengths) / pi).sum(axis=1) / budget
    return noisy, (bias, variance)


def exact_delta(model, rule: RichardsonRule | None, eps: float, budget: float) -> DeltaPoint:
    """Exact MSE difference at one point: element 0 of :func:`exact_delta_curve`."""
    delta = exact_delta_curve(model, rule, [eps], budget)[0]
    return DeltaPoint(eps=eps, budget=budget, delta=float(delta), source="exact")


def exact_delta_curve(model, rule: RichardsonRule | None, eps_grid: Sequence[float],
                      budget: float) -> np.ndarray:
    """Exact delta at every grid point, at one fixed budget, as an array.

    A model that is not sampled returns its closed form ``delta_mse``.
    Without a rule the unmitigated estimator is compared with itself: zeros,
    once the grid has passed the domain check.
    """
    if not model.sampled:
        return model.delta_mse(np.asarray(eps_grid, dtype=float), budget)
    noisy, zne = _mse_terms(model, rule, eps_grid, budget)
    (noisy_bias, noisy_var), (zne_bias, zne_var) = noisy, zne or noisy
    return (noisy_bias * noisy_bias + noisy_var) - (zne_bias * zne_bias + zne_var)


def check_grid_lengths(budgets: Sequence[float], eps_grids: Sequence[Sequence[float]]) -> None:
    """Refuse per-budget eps grids of unequal length, naming each budget's count."""
    if len({len(g) for g in eps_grids}) > 1:
        raise ConfigError("per-budget eps grids must have equal length, got " + ", ".join(
            f"{len(g)} points at B={b:g}" for b, g in zip(budgets, eps_grids)))


def integerize_allocation(alloc: Sequence[float], budget: int) -> np.ndarray:
    """Split an integer budget across levels by largest-remainder rounding.

    Every level gets at least one shot and the total equals the budget
    exactly; the distortion relative to the real-valued split is O(1) shots
    per level, i.e. an O(1/B^2) variance effect.
    """
    pi = np.asarray(alloc, dtype=float)
    budget = int(budget)
    if not np.all(np.isfinite(pi)) or np.any(pi < 0):
        raise AllocationError(
            f"allocation fractions must be finite and non-negative, got {pi.tolist()}"
        )
    if budget < pi.size:
        raise AllocationError(
            f"budget {budget} too small to give each of {pi.size} levels a shot"
        )
    raw = pi * budget
    shots = np.floor(raw).astype(np.int64)
    remainder = raw - shots
    deficit = budget - int(shots.sum())
    if deficit > 0:
        # ties broken by level index for determinism
        order = np.lexsort((np.arange(pi.size), -remainder))
        shots[order[:deficit]] += 1
    for idx in np.nonzero(shots == 0)[0]:
        shots[int(np.argmax(shots))] -= 1
        shots[idx] = 1
    if int(shots.sum()) != budget or np.any(shots < 1):
        raise AllocationError(
            f"allocation {pi.tolist()} cannot split budget {budget} into positive "
            f"level shots (got {shots.tolist()})"
        )
    return shots


_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    """splitmix64 finalizer of a Python int or, elementwise, a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _absorb(h, part):
    """Fold one cell index (int or uint64 array) into the running key hash."""
    return _splitmix64(h ^ ((part + 0x1F) & _MASK64))


def _budget_hash(master_seed: int, budget_idx: int) -> int:
    return _absorb(master_seed & _MASK64, budget_idx)


def cell_stream(
    master_seed: int, budget_idx: int, eps_idx: int, arm_slot: int, rep_idx: int
) -> np.random.Generator:
    """Counter-based random stream for one measurement cell.

    The Philox key is a hash of (master_seed, budget, eps, arm, replicate),
    so streams for distinct cells are independent and the table can be filled
    in any order, or concurrently, with identical results.  Arm slot 0 is the
    unmitigated arm; slot 1+j is scaled level j.  This is the single-cell
    reference; :func:`sample_count_table` draws the same streams table-wide.
    """
    h = _budget_hash(master_seed, budget_idx)
    for part in (eps_idx, arm_slot, rep_idx):
        h = _absorb(h, part)
    key = np.array([h, _splitmix64(h)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _budget_keys(master_seed: int, budget_idx: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """Both Philox key words of every (eps, arm, replicate) cell of one budget.

    The same hash chain as :func:`cell_stream`, vectorized over the cell
    indices; two uint64 arrays of the given shape.
    """
    h = _budget_hash(master_seed, budget_idx)
    for part in np.indices(shape, dtype=np.uint64):
        h = _absorb(h, part)
    return h, _splitmix64(h)


@dataclass
class CountTable:
    """Raw plus-counts for a full experiment grid.

    ``shots`` and ``plus`` have shape (n_budgets, n_eps, n_arms, n_reps)
    where arm slot 0 is the unmitigated arm at the base strength and slot
    1+j is the extrapolation level at ``scales[j] * eps``.  Per (budget,
    eps, replicate), the level shots sum to the budget and the unmitigated
    arm holds the full budget.
    """

    budgets: tuple[int, ...]
    eps_grids: tuple[tuple[float, ...], ...]  # one grid per budget, equal lengths
    scales: tuple[float, ...]
    shots: np.ndarray
    plus: np.ndarray
    master_seed: int
    model_spec: dict = field(default_factory=dict)
    rule_spec: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (len(self.budgets), len(self.eps_grids[0]), len(self.scales) + 1)
        if self.shots.shape[:3] != expected or self.plus.shape != self.shots.shape:
            raise ValueError(
                f"count arrays have shape {self.shots.shape}, expected {expected} + reps"
            )
        if np.any(self.shots <= 0):
            raise AllocationError("count table contains cells with zero shots")
        if np.any(self.plus < 0) or np.any(self.plus > self.shots):
            raise ValueError("plus counts must lie in [0, shots]")

    @property
    def n_replicates(self) -> int:
        return self.shots.shape[3]

    def header(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model_spec,
            "rule": self.rule_spec,
            "budgets": list(self.budgets),
            "eps_grids": [list(g) for g in self.eps_grids],
            "scales": list(self.scales),
            "replicates": self.n_replicates,
            "master_seed": self.master_seed,
        }

    def write(self, csv_path, header_path) -> None:
        """Persist as a columnar CSV plus a JSON header.

        Rows run in (budget, eps, arm, replicate) order and end in ``\\r\\n``,
        the bytes ``csv.writer`` produces; one budget is formatted per write.
        Each run of replicates shares its row prefix, written into the block's
        template, and so do its shots when they are one count, as in every
        sampled table.
        """
        nb, ne, ns, nr = self.shots.shape
        rep = np.tile(np.arange(nr), ne * ns)
        with open(csv_path, "w", newline="") as fh:
            begin_table(fh, _COUNT_COLUMNS)
            for b in range(nb):
                shots = self.shots[b]
                uniform = bool((shots == shots[..., :1]).all())
                template = "".join(
                    f"{b},{e},{s - 1},%d,{n if uniform else '%d'},%d\r\n" * nr
                    for (e, s), n in np.ndenumerate(shots[..., 0])
                )
                fields = (rep, self.plus[b].ravel()) if uniform else (
                    rep, shots.ravel(), self.plus[b].ravel())
                fh.write(template % tuple(np.column_stack(fields).ravel().tolist()))
        Path(header_path).write_text(json.dumps(self.header(), indent=2, sort_keys=True))

    @classmethod
    def read(cls, csv_path, header_path, cfg=None) -> "CountTable":
        """Load a table written by :meth:`write`, one budget block at a time.

        The JSON header must carry this schema version, every field the
        table's shape needs and one strictly ascending eps grid per budget,
        all of one length; with ``cfg``, its model, rule, budgets, replicates
        and master seed must be ``cfg``'s.  Every cell must appear exactly
        once, in any order; a wrong column header, an out-of-range index, a
        duplicate, a missing or an extra row raises :class:`ConfigError`
        naming the file and the first such row.
        """
        head = f"count header {header_path}"
        try:
            header = json.loads(Path(header_path).read_text())
            check_schema(head, header.get("schema_version"))
            budgets = tuple(int(b) for b in header["budgets"])
            eps_grids = tuple(tuple(float(x) for x in g) for g in header["eps_grids"])
            scales = tuple(float(s) for s in header["scales"])
            n_reps, master_seed = int(header["replicates"]), int(header["master_seed"])
        except KeyError as err:
            raise ConfigError(f"{head}: no {err.args[0]!r} field") from err
        except (AttributeError, TypeError, ValueError) as err:
            raise ConfigError(f"{head}: {err}") from err
        if cfg is not None:
            _check_experiment(head, header, cfg)
        if not budgets or len(eps_grids) != len(budgets):
            raise ConfigError(f"{head}: {len(eps_grids)} eps grids for {len(budgets)} budgets")
        if len({len(g) for g in eps_grids}) > 1:
            raise ConfigError(f"{head}: eps grids of unequal lengths "
                              f"{', '.join(str(len(g)) for g in eps_grids)}")
        for budget, grid in zip(budgets, eps_grids):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{head}: eps grid of budget {budget} is not strictly ascending")
        shape = (len(budgets), len(eps_grids[0]), len(scales) + 1, n_reps)
        n_cells = int(np.prod(shape))
        block_rows = n_cells // shape[0]
        shots = np.zeros(n_cells, dtype=np.int64)
        plus = np.zeros(n_cells, dtype=np.int64)
        seen = np.zeros(n_cells, dtype=bool)
        where = f"count table {csv_path}"
        with open_table(csv_path, where, _COUNT_COLUMNS) as fh:
            n_read = 0
            while n_read < n_cells:
                rows = read_block(fh, where, _COUNT_COLUMNS, min(block_rows, n_cells - n_read),
                                  n_read + 1, dtype=np.int64)
                if not len(rows):
                    break
                idx = rows[:, :4] + (0, 0, 1, 0)  # scale_idx -1 is arm slot 0
                bad = np.any((idx < 0) | (idx >= shape), axis=1)
                flat = np.ravel_multi_index(idx.T, shape, mode="clip")
                repeat = np.ones(len(rows), dtype=bool)
                repeat[np.unique(flat, return_index=True)[1]] = False
                repeat |= seen[flat]
                if np.any(bad | repeat):
                    i = int(np.argmax(bad | repeat))
                    raise ConfigError(
                        f"{where}: data row {n_read + i + 1} {_describe_row(rows[i])}: "
                        + ("index out of range" if bad[i] else "duplicate cell")
                    )
                seen[flat] = True
                shots[flat] = rows[:, 4]
                plus[flat] = rows[:, 5]
                n_read += len(rows)
            for line in fh:
                if line.strip():
                    raise ConfigError(
                        f"{where}: data row {n_read + 1} {line.strip()!r}: "
                        f"extra row beyond the table's {n_cells} cells"
                    )
        if not seen.all():
            cell = np.unravel_index(int(np.argmin(seen)), shape)
            raise ConfigError(
                f"{where}: no row for cell "
                f"{_describe_row(np.subtract(cell, (0, 0, 1, 0)))}"
            )
        return cls(
            budgets=budgets, eps_grids=eps_grids, scales=scales,
            shots=shots.reshape(shape), plus=plus.reshape(shape),
            master_seed=master_seed,
            model_spec=header.get("model", {}), rule_spec=header.get("rule", {}),
        )


_COUNT_COLUMNS = ("budget_idx", "eps_idx", "scale_idx", "rep_idx", "shots", "plus_count")


def _check_experiment(head: str, header: dict, cfg) -> None:
    """Refuse a count header that another configuration's sweep wrote."""
    expected = {
        "model": cfg.model().spec(), "rule": cfg.rule().spec(),
        "budgets": [int(b) for b in cfg.budgets],
        "replicates": cfg.replicates, "master_seed": cfg.seed,
    }
    for key, value in expected.items():
        if header.get(key) != value:
            raise ConfigError(f"{head}: {key} {header.get(key)!r}, not the configuration's "
                              f"{value!r}; rerun `zneboundary sweep`")


def _describe_row(row) -> str:
    return "(" + ", ".join(f"{col}={int(v)}" for col, v in zip(_COUNT_COLUMNS, row)) + ")"


def worker_count(n_tasks: int) -> int:
    """Workers for ``n_tasks`` independent tasks (bootstrap replicates, budget blocks).

    The ``ZNEBOUNDARY_THREADS`` environment variable when set, which must be
    a positive integer (else :class:`ConfigError`); otherwise the cores this
    process may run on.  Either way at most ``n_tasks``, and at least one.
    """
    value = os.environ.get(THREADS_ENV_VAR)
    if value is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    else:
        try:
            workers = int(value)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"{THREADS_ENV_VAR} must be a positive integer, got {value!r}")
    return max(1, min(workers, n_tasks))


def _draw_budget(job, b_idx: int) -> np.ndarray:
    """Plus-counts of one budget block, shape (n_eps, n_arms, n_reps).

    ``job`` is ``(master_seed, shots, p_arm)``: the table's shots and the
    per-(budget, eps, arm) plus probabilities.  One Philox serves the block,
    re-keyed per cell.  A fresh Philox starts at counter 0 with its
    four-word output buffer empty, so every reset restores the buffer fields
    as well: a stale ``buffer_pos`` would hand the next cell the previous
    cell's leftover draws.
    """
    master_seed, shots, p_arm = job
    shape = shots.shape[1:]
    p_cell = np.broadcast_to(p_arm[b_idx][:, :, None], shape)
    k0, k1 = _budget_keys(master_seed, b_idx, shape)
    bitgen = np.random.Philox(0)
    binomial = np.random.Generator(bitgen).binomial
    key = [0, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = []
    for key[0], key[1], n, p in zip(k0.ravel().tolist(), k1.ravel().tolist(),
                                    shots[b_idx].ravel().tolist(), p_cell.ravel().tolist()):
        bitgen.state = fresh  # re-keyed through ``key``
        draws.append(binomial(n, p))
    return np.array(draws, dtype=np.int64).reshape(shape)


def _draw_budgets(job, workers: int) -> list[np.ndarray]:
    """:func:`_draw_budget` over every budget, on ``workers`` forked processes.

    Forked workers inherit ``job`` through the pool initializer, so it is
    never pickled, and the ``with`` block joins them before returning.  One
    worker, a platform without ``fork``, or a process running other threads
    (which ``fork`` would copy mid-flight) draws in-process instead.
    """
    budgets = range(len(job[1]))  # one block of the shots array per budget
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_adopt_job, initargs=(job,)) as pool:
                return list(pool.map(_draw_adopted_budget, budgets))
    return [_draw_budget(job, b_idx) for b_idx in budgets]


_WORKER_JOB = None  # set in each forked sampling worker by its initializer


def _adopt_job(job) -> None:
    global _WORKER_JOB
    _WORKER_JOB = job


def _draw_adopted_budget(b_idx: int) -> np.ndarray:
    return _draw_budget(_WORKER_JOB, b_idx)


def sample_count_table(
    model: NoiseObservableModel,
    rule: RichardsonRule,
    budgets: Sequence[int],
    eps_grids: Sequence[Sequence[float]],
    replicates: int,
    master_seed: int,
) -> CountTable:
    """Draw the full raw-count table for an experiment grid.

    Cell (b, e, arm, rep) draws from the stream ``cell_stream(master_seed,
    b, e, arm, rep)`` would return, with the probability ``sample_counts``
    would use, so tables match a cell-by-cell loop bit for bit.  This
    process checks the domain and derives every cell's shots and arm
    probability; the draws then run one budget block per task, on
    :func:`worker_count` forked processes when the table holds at least
    ``MIN_CELLS_PER_WORKER`` cells per worker, else in-process.  The counts
    are plus-counts of +/-1 outcomes, so the model must be sampled, and so
    binary.
    """
    if not model.sampled:
        raise ModelError("model has no sampler")
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    budgets = [int(b) for b in budgets]
    if len(eps_grids) != len(budgets):
        raise ValueError("need one eps grid per budget")
    check_grid_lengths(budgets, eps_grids)
    n_eps = len(eps_grids[0])

    n_arms = len(rule.scales) + 1
    shots = np.zeros((len(budgets), n_eps, n_arms, replicates), dtype=np.int64)
    p_arm = np.zeros((len(budgets), n_eps, n_arms))
    for b_idx, budget in enumerate(budgets):
        eps = np.asarray(eps_grids[b_idx], dtype=float)
        level_shots = None  # a fixed split's, after the first eps's domain check
        for e_idx, e in enumerate(eps.tolist()):
            check_scaled_eps(model, e, rule.scales)
            if rule.optimal or level_shots is None:
                level_shots = integerize_allocation(_resolve_alloc(model, rule, e), budget)
            shots[b_idx, e_idx, 1:] = level_shots[:, None]
        shots[b_idx, :, 0] = budget
        # arm 0 is the base strength, arm 1+j the scaled level j
        strengths = np.column_stack((eps, eps[:, None] * np.asarray(rule.scales)))
        p_arm[b_idx] = model.plus_probability(strengths)
    job = (int(master_seed), shots, p_arm)
    workers = worker_count(min(len(budgets), shots.size // MIN_CELLS_PER_WORKER))
    plus = np.stack(_draw_budgets(job, workers))
    return CountTable(
        budgets=tuple(budgets),
        eps_grids=tuple(tuple(float(x) for x in g) for g in eps_grids),
        scales=tuple(rule.scales),
        shots=shots,
        plus=plus,
        master_seed=int(master_seed),
        model_spec=model.spec(),
        rule_spec=rule.spec(),
    )


def deltas_from_counts(
    table: CountTable, coeffs: Sequence[float], mu0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Replicate-averaged MSE differences from raw counts.

    Returns (delta, std_err), each of shape (n_budgets, n_eps).  Squared
    errors are measured against the exact ideal value ``mu0``, so the
    replicate mean is an unbiased estimate of the exact MSE difference.
    """
    diff = _squared_error_diffs(table.plus, table.shots, coeffs, mu0)
    delta = diff.mean(axis=2)
    std_err = diff.std(axis=2, ddof=1) / np.sqrt(table.n_replicates)
    return delta, std_err


def _squared_error_diffs(plus, shots, coeffs, mu0: float) -> np.ndarray:
    """Per-replicate ``noisy - zne`` squared errors, shape (n_budgets, n_eps, n_reps)."""
    mu_hat = 2.0 * plus / shots - 1.0
    noisy_err = (mu_hat[:, :, 0, :] - mu0) ** 2
    zne_est = np.tensordot(mu_hat[:, :, 1:, :], np.asarray(coeffs), axes=([2], [0]))
    return noisy_err - (zne_est - mu0) ** 2


def mc_delta(
    model: NoiseObservableModel,
    rule: RichardsonRule,
    eps: float,
    budget: int,
    replicates: int,
    master_seed: int,
) -> tuple[DeltaPoint, CountTable]:
    """Monte Carlo MSE difference at a single (eps, budget) cell.

    The drawn counts are returned alongside the estimate so the raw data can
    be persisted and later bootstrap-resampled.
    """
    table = sample_count_table(model, rule, [budget], [[eps]], replicates, master_seed)
    mu0 = model.mean(0.0)
    delta, std_err = deltas_from_counts(table, rule.coeffs, mu0)
    point = DeltaPoint(
        eps=float(eps), budget=float(budget), delta=float(delta[0, 0]),
        source="monte_carlo", std_err=float(std_err[0, 0]),
    )
    return point, table
