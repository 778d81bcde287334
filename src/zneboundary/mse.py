"""Exact and Monte Carlo mean-squared error of the two estimators.

The unmitigated estimator spends the whole budget ``B`` at strength ``eps``:

    bias = mu(eps) - mu(0),        var = v(eps) / B.

The extrapolated estimator splits ``n_j = pi_j B`` shots across the scaled
strengths ``lam_j eps``:

    bias = sum_j c_j mu(lam_j eps) - mu(0),
    var  = (1/B) sum_j c_j^2 v(lam_j eps) / pi_j,

both computed from the exact model curves with no series truncation.  The
quantity of interest is ``delta = MSE_noisy - MSE_zne`` (positive means the
extrapolation helps).  :func:`exact_delta_curve` checks a whole grid table's
domain, then evaluates it in blocks of whole budget rows, at most
``EXACT_BLOCK_POINTS`` points each, with one model pass on the base
strengths and one on the scaled ones: the level variances give both the
variance term and a reallocating rule's split.

The Monte Carlo engine realizes the same comparison with finite counts.  Raw
data for one experiment lives in a :class:`CountTable`: one binomial
plus-count per (budget, eps, arm, replicate) cell, where arm slot 0 is the
unmitigated arm and slots 1..k+1 the scaled levels.  Every cell's random
stream is derived from the master seed and the cell index by a counter-based
split, so cells can be generated in any order with bit-identical results.

:func:`sample_count_table` draws a table in-process, a block of budget rows
at a time: a numpy kernel computes the cells' first Philox blocks and runs
numpy's binomial inversion sampler on them across the block, and the cells
it cannot finish are drawn one at a time.  The counts are the same bytes as
``cell_stream(...).binomial(n, p)``.  :func:`worker_count` sizes the
bootstrap's threads.

On disk a table's rows run in (budget, eps, arm, replicate) order, which
:meth:`CountTable.read` requires, beside the header :func:`count_header` lays out.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import SCHEMA_VERSION, begin_table, check_schema, open_table, read_block
from .errors import AllocationError, ConfigError, ModelError
from .models import NoiseObservableModel, check_scaled_eps
from .rules import RichardsonRule, optimal_allocation, optimal_split

__all__ = [
    "DeltaPoint",
    "CountTable",
    "count_header",
    "exact_delta",
    "exact_delta_curve",
    "grid_table",
    "integerize_allocation",
    "cell_stream",
    "mc_delta",
    "sample_count_table",
    "deltas_from_counts",
    "worker_count",
]

THREADS_ENV_VAR = "ZNEBOUNDARY_THREADS"

# Count tables of fewer cells draw cell by cell: below this the vectorized
# kernel's fixed cost exceeds the per-cell loop's.  On a 2-vCPU x86-64 host a
# 48-cell table took 0.15 ms by the loop and 0.5 ms by the kernel, and the two
# crossed between 400 and 800 cells.
MIN_KERNEL_CELLS = 600

# Cells per block of the vectorized draw, in whole budget rows (one row if a
# row is longer).  A block's temporaries are about 15 arrays of its cells, so
# they stay under 0.5 MB here, whatever the size of the table; the validation
# battery's peak memory grew by 2 MB with blocks of 16,384 cells.
DRAW_BLOCK_CELLS = 4096

# Grid points per block of the exact engine: a block's model evaluations and
# MSE terms are a few hundred kB, whatever the size of the sweep's table.
EXACT_BLOCK_POINTS = 4096


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


def _check_domain(model, rule: RichardsonRule | None, eps: np.ndarray, budget) -> None:
    """Raise the error a row-major point-by-point loop over ``eps`` meets first.

    One pass over the whole grid or grid table, one scaled level at a time.
    """
    if (lowest := np.min(budget)) <= 0:
        raise ValueError(f"budget must be positive, got {lowest}")
    inside = model.inside_domain(eps)
    for lam in rule.scales if rule is not None else ():
        inside &= model.inside_domain(lam * eps)
    if not inside.all():
        first = float(eps.flat[np.argmin(inside)])
        model.check_eps(first)
        check_scaled_eps(model, first, rule.scales)


def _mse_terms(model, rule: RichardsonRule | None, eps, budget):
    """Exact ``(bias, variance)`` arrays of both estimators over an in-domain grid.

    The one implementation of the formulas above; returns ``(noisy, zne)``,
    ``zne`` None without a rule.  ``eps`` has passed :func:`_check_domain`.
    The model is evaluated once on ``eps`` and once on the scaled strengths;
    the level variances give both the variance term and, for a reallocating
    rule, :func:`rules.optimal_split`.  The golden outputs pin the rounding:
    one BLAS dot per point for the bias (a gemv rounds differently), libm
    ``pow`` in the models, and last-axis sums of C-contiguous ``(..., k+1)`` terms.
    """
    mu0 = model.mean(0.0)
    eps = np.asarray(eps, dtype=float)
    mu, v = model.mean_and_variance(eps)
    noisy = (mu - mu0, v / budget)
    if rule is None:
        return noisy, None
    c = np.asarray(rule.coeffs)
    mu, v = model.mean_and_variance(eps[..., None] * np.asarray(rule.scales))
    bias = (mu[..., None, :] @ c)[..., 0] - mu0
    terms = c**2 * v
    terms /= optimal_split(rule, v) if rule.optimal else np.asarray(rule.alloc)
    return noisy, (bias, terms.sum(axis=-1) / budget)


def exact_delta(model, rule: RichardsonRule | None, eps: float, budget: float) -> DeltaPoint:
    """Exact MSE difference at one point: element 0 of :func:`exact_delta_curve`."""
    delta = exact_delta_curve(model, rule, [eps], budget)[0]
    return DeltaPoint(eps=eps, budget=budget, delta=float(delta), source="exact")


def exact_delta_curve(model, rule: RichardsonRule | None, eps_grid, budget) -> np.ndarray:
    """Exact delta at every grid point, as an array of the grid's shape.

    ``eps_grid`` is one grid at ``budget``, or a :func:`grid_table` with
    ``budget`` its column of budgets; each row then equals the row's 1-D call.
    A model that is not sampled returns its closed form ``delta_mse``.
    Without a rule the unmitigated estimator is compared with itself: zeros,
    once the grid has passed the domain check.

    The domain check covers the whole grid before any evaluation.  A table
    is then evaluated in blocks of whole rows, at most
    ``EXACT_BLOCK_POINTS`` points each (one row if a row is longer), so its
    temporaries stay a block's size however long the budget ladder is.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if not model.sampled:
        return model.delta_mse(eps, budget)
    _check_domain(model, rule, eps, budget)
    if eps.ndim < 2:
        return _delta(model, rule, eps, budget)
    budget = np.broadcast_to(budget, eps.shape)
    out = np.empty(eps.shape)
    rows = max(1, EXACT_BLOCK_POINTS // max(1, eps.shape[1]))
    for i in range(0, len(eps), rows):
        out[i:i + rows] = _delta(model, rule, eps[i:i + rows], budget[i:i + rows])
    return out


def _delta(model, rule: RichardsonRule | None, eps: np.ndarray, budget) -> np.ndarray:
    noisy, zne = _mse_terms(model, rule, eps, budget)
    (noisy_bias, noisy_var), (zne_bias, zne_var) = noisy, zne or noisy
    return (noisy_bias * noisy_bias + noisy_var) - (zne_bias * zne_bias + zne_var)


def grid_table(budgets: Sequence[float], eps_grids) -> np.ndarray:
    """Per-budget eps grids as one float array of shape ``(n_budgets, n_eps)``.

    Refuses (:class:`ConfigError`) an empty ladder, a grid count other than
    the budget count, and grids of unequal length, naming each one's count.
    """
    if not len(budgets) or len(eps_grids) != len(budgets):
        raise ConfigError(f"{len(eps_grids)} eps grids for {len(budgets)} budgets")
    if len({len(g) for g in eps_grids}) > 1:
        raise ConfigError("per-budget eps grids must have equal length, got " + ", ".join(
            f"{len(g)} points at B={b:g}" for b, g in zip(budgets, eps_grids)))
    table = np.asarray(eps_grids, dtype=float, order="C")
    if table.ndim != 2:
        raise ConfigError(f"eps grids must be lists of numbers, got shape {table.shape}")
    return table


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
# Philox4x64-10 constants (Salmon et al., SC'11), as uint64 scalars so that no
# numpy version promotes the uint64 arithmetic to another type.
_U64 = np.uint64
_LOW32, _HALF = _U64(0xFFFFFFFF), _U64(32)
_PHILOX_M = (_U64(0xD2E7470EE14C6C93), _U64(0xCA5A826395121157))
_PHILOX_BUMP = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))


def _splitmix64(x):
    """splitmix64 finalizer of a Python int or, elementwise, a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _absorb(h, part):
    """Fold one cell index (int or uint64 array) into the running key hash."""
    return _splitmix64(h ^ ((part + 0x1F) & _MASK64))


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
    h = master_seed & _MASK64
    for part in (budget_idx, eps_idx, arm_slot, rep_idx):
        h = _absorb(h, part)
    key = np.array([h, _splitmix64(h)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _budget_keys(master_seed: int, first_budget: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """Both Philox key words of every cell of a block of budget rows.

    ``shape`` is the block's ``(n_rows, n_eps, n_arms, n_reps)``, its first
    row budget ``first_budget``.  The same hash chain as :func:`cell_stream`,
    vectorized over the cell indices; two uint64 arrays of that shape.
    """
    h = _U64(master_seed & _MASK64)
    parts = np.indices(shape, dtype=np.uint64)
    parts[0] += _U64(first_budget)
    for part in parts:
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
    eps_grids: np.ndarray  # (n_budgets, n_eps), one grid per budget; see grid_table
    scales: tuple[float, ...]
    shots: np.ndarray
    plus: np.ndarray
    master_seed: int
    model_spec: dict = field(default_factory=dict)
    rule_spec: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eps_grids = grid_table(self.budgets, self.eps_grids)
        expected = (*self.eps_grids.shape, len(self.scales) + 1)
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
        return count_header(self.model_spec, self.rule_spec, self.budgets, self.eps_grids,
                            self.scales, self.n_replicates, self.master_seed)

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
    def read(cls, csv_path, header_path, expected: dict | None = None) -> "CountTable":
        """Load a table written by :meth:`write`, one budget block at a time.

        The JSON header must carry this schema version, every field the
        table's shape needs, at least 2 replicates and a :func:`grid_table`
        of strictly ascending grids; with ``expected``, a configuration's
        :func:`count_header`, it must be that header.  Rows come in the
        writer's (budget, eps, arm, replicate) order: a wrong column header,
        an out-of-range cell, one before the next cell in that order (a
        duplicate) or after it (the next one has no row), or an extra row
        raises :class:`ConfigError` naming the file and the first such row.
        """
        head = f"count header {header_path}"
        try:
            header = json.loads(Path(header_path).read_text())
            check_schema(head, header.get("schema_version"))
            budgets = tuple(int(b) for b in header["budgets"])
            eps_grids = grid_table(budgets, header["eps_grids"])
            scales = tuple(float(s) for s in header["scales"])
            n_reps, master_seed = int(header["replicates"]), int(header["master_seed"])
        except KeyError as err:
            raise ConfigError(f"{head}: no {err.args[0]!r} field") from err
        except (AttributeError, TypeError, ValueError, ConfigError) as err:
            raise ConfigError(f"{head}: {err}") from err
        if expected is not None:
            _check_header(head, header, expected)
        if n_reps < 2:
            raise ConfigError(f"{head}: {n_reps} replicates, need at least 2")
        if (down := (np.diff(eps_grids, axis=1) <= 0).any(axis=1)).any():
            raise ConfigError(f"{head}: eps grid of budget {budgets[np.argmax(down)]} "
                              "is not strictly ascending")
        shape = (*eps_grids.shape, len(scales) + 1, n_reps)
        shots, plus = np.empty((2, *shape), dtype=np.int64)
        # one budget block's index columns in writer order; scale_idx -1 is arm slot 0
        cells = np.indices((1, *shape[1:])).reshape(4, -1).T - (0, 0, 1, 0)
        where = f"count table {csv_path}"
        with open_table(csv_path, where, _COUNT_COLUMNS) as fh:
            for b in range(shape[0]):
                cells[:, 0] = b
                n_before = b * len(cells)
                rows = read_block(fh, where, _COUNT_COLUMNS, len(cells), n_before + 1,
                                  dtype=np.int64)
                if len(rows) < len(cells) or (rows[:, :4] != cells).any():
                    raise _misplaced(where, n_before, rows, cells, shape)
                shots[b], plus[b] = rows[:, 4:].T.reshape(2, *shape[1:])
            for line in fh:
                if line.strip():
                    raise ConfigError(f"{where}: data row {shots.size + 1} {line.strip()!r}: "
                                      f"extra row beyond the table's {shots.size} cells")
        return cls(budgets=budgets, eps_grids=eps_grids, scales=scales, shots=shots, plus=plus,
                   master_seed=master_seed, model_spec=header.get("model", {}),
                   rule_spec=header.get("rule", {}))


_COUNT_COLUMNS = ("budget_idx", "eps_idx", "scale_idx", "rep_idx", "shots", "plus_count")


def count_header(model_spec, rule_spec, budgets, eps_grids, scales, replicates,
                 master_seed) -> dict:
    """The counts JSON header that :meth:`CountTable.write` writes and ``fit`` expects."""
    return {"schema_version": SCHEMA_VERSION, "model": model_spec, "rule": rule_spec,
            "budgets": [int(b) for b in budgets],
            "eps_grids": grid_table(budgets, eps_grids).tolist(), "scales": list(scales),
            "replicates": int(replicates), "master_seed": int(master_seed)}


def _check_header(head: str, header: dict, expected: dict) -> None:
    """Refuse a header other than ``expected``, naming the first key or grid that differs."""
    for key, value in expected.items():
        if (found := header.get(key)) == value:
            continue
        if key == "eps_grids" and isinstance(found, list) and len(found) == len(value):
            b = next(b for b, grid in enumerate(value) if found[b] != grid)
            key, found, value = f"eps_grids of budget {expected['budgets'][b]}", found[b], value[b]
        raise ConfigError(f"{head}: {key} {found!r}, not the configuration's "
                          f"{value!r}; rerun `zneboundary sweep`")


def _misplaced(where: str, n_before: int, rows, cells, shape) -> ConfigError:
    """The error for the first row, of ``rows`` after ``n_before``, off the writer's ``cells``."""
    off = np.flatnonzero((rows[:, :4] != cells[:len(rows)]).any(axis=1))
    if not off.size:  # the table ends early
        return ConfigError(f"{where}: no row for cell {_describe_row(cells[len(rows)])}")
    i = off[0]
    found, want = rows[i, :4].tolist(), cells[i].tolist()
    if not all(0 <= x < n for x, n in zip(np.add(found, (0, 0, 1, 0)), shape)):
        problem = "index out of range"
    else:
        problem = "duplicate cell" if found < want else f"no row for cell {_describe_row(want)}"
    return ConfigError(f"{where}: data row {n_before + i + 1} {_describe_row(rows[i])}: {problem}")


def _describe_row(row) -> str:
    return "(" + ", ".join(f"{col}={int(v)}" for col, v in zip(_COUNT_COLUMNS, row)) + ")"


def worker_count(n_tasks: int) -> int:
    """Threads for ``n_tasks`` independent bootstrap replicates.

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


def _draw_cells(k0, k1, n, p) -> np.ndarray:
    """Plus-counts of cells, ``Generator.binomial(n, p)`` on each cell's stream.

    The scalar reference path.  The shots ``n`` and plus probabilities ``p``
    broadcast to the shape of the key words, which the counts take.  One
    Philox serves every cell, re-keyed per cell.  A fresh Philox starts at
    counter 0 with its four-word output buffer empty, so every reset
    restores the buffer fields as well: a stale ``buffer_pos`` would hand
    the next cell the previous cell's leftover draws.
    """
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
    n, p = (np.broadcast_to(a, k0.shape).ravel().tolist() for a in (n, p))
    for key[0], key[1], n_c, p_c in zip(k0.ravel().tolist(), k1.ravel().tolist(), n, p):
        bitgen.state = fresh  # re-keyed through ``key``
        draws.append(binomial(n_c, p_c))
    return np.array(draws, dtype=np.int64).reshape(k0.shape)


def _mulhilo(m, x):
    """High and low words of the 128-bit products of uint64 ``m`` and array ``x``."""
    m_lo, m_hi = m & _LOW32, m >> _HALF
    x_lo, x_hi = x & _LOW32, x >> _HALF
    hi_lo = m_hi * x_lo
    mid = ((m_lo * x_lo) >> _HALF) + (hi_lo & _LOW32) + m_lo * x_hi  # < 2**64
    return m_hi * x_hi + (hi_lo >> _HALF) + (mid >> _HALF), m * x


def _philox_block(k0, k1) -> tuple[np.ndarray, ...]:
    """The four words of each key's first Philox4x64-10 block, elementwise.

    numpy's Philox increments its counter before it computes a block, so a
    fresh generator's first block, ``random_raw(4)``, is at counter
    ``(1, 0, 0, 0)``.
    """
    zero = np.zeros_like(k0)
    c0, c1, c2, c3 = zero + _U64(1), zero, zero, zero
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_BUMP[0], k1 + _PHILOX_BUMP[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _next_double(word: np.ndarray) -> np.ndarray:
    """numpy's uniform double from a 64-bit Philox word: its top 53 bits over 2**53."""
    return (word >> _U64(11)) * (1.0 / 9007199254740992.0)


@functools.cache
def _log_q():
    """The ``log(q)``, as a function of ``p``, of numpy's binomial inversion setup.

    numpy 2.4 computes ``q**n`` as ``exp(n log1p(-p))``; a release that
    computes ``exp(n log(1 - p))`` differs in the last bits.  One draw from
    a Philox whose buffer holds a chosen uniform tells the two apart: at
    ``n = 20``, ``p = 0.3`` it lies between their thresholds of ``X = 10``,
    and ``log1p`` draws 9.
    """
    bitgen = np.random.Philox(0)
    state = bitgen.state
    state["buffer"] = np.array([8575196888842150 << 11, 0, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 0
    bitgen.state = state
    if np.random.Generator(bitgen).binomial(20, 0.3) == 9:
        return lambda p: math.log1p(-p)
    return lambda p: math.log(1.0 - p)


def _inversion_setup(n: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``q**n`` and ``bound`` of numpy's binomial inversion, per pair of ``n`` and ``p <= 0.5``.

    The libm calls and operation order of numpy's ``random_binomial_inversion``,
    one pair at a time: numpy's vector ``exp`` and ``log`` may round differently.
    """
    log_q = _log_q()
    qn, bound = [], []
    for n_g, p_g in zip(n.tolist(), p.tolist()):
        q = 1.0 - p_g
        mean = n_g * p_g
        limit = mean + 10.0 * math.sqrt(mean * q + 1)
        qn.append(math.exp(n_g * log_q(p_g)))
        bound.append(int(n_g if n_g < limit else limit))
    return np.array(qn), np.array(bound, dtype=np.int64)


def _inversion_walk(u: np.ndarray, pos: np.ndarray, px: np.ndarray, stride: int) -> np.ndarray:
    """numpy's inversion loop for every cell at once; returns where each cell stops in ``px``.

    Cell ``i`` starts at flat index ``pos[i]`` of ``px`` and, while ``u >
    px[pos]``, subtracts ``px[pos]`` from its ``u`` and moves ``stride`` on,
    as the scalar loop subtracts the point probability of ``X`` and moves to
    ``X + 1``.
    """
    u, pos = u.copy(), pos.copy()
    while True:
        step = px[pos]
        go = u > step
        if not go.any():
            return pos
        np.subtract(u, step, out=u, where=go)
        np.add(pos, stride, out=pos, where=go)


def _draw_kernel(k0, k1, n, p) -> np.ndarray:
    """Plus-counts of a block of cells: :func:`_draw_cells` without the per-cell calls.

    ``k0`` and ``k1`` hold every cell's key words, shape ``(..., n_reps)``;
    ``n`` and ``p`` the shots and plus probability of each run of
    replicates, shape ``(..., 1)``.  numpy's ``random_binomial`` draws ``n -
    X(1 - p)`` for ``p > 0.5`` and ``X(p)`` else.  ``X`` is its inversion
    sampler when ``min(p, 1 - p) n <= 30``, BTPE otherwise.  Inversion
    subtracts the point probabilities of ``X = 0, 1, ...``, from ``q**n``
    on, from a uniform until the remainder is at most the next one, and
    restarts with the next uniform when ``X`` passes ``bound``; at ``p = 0``
    the first point probability is 1, so ``X`` is 0.  Here the uniforms come
    from each cell's first Philox block and one walk serves the whole block.
    Cells in the BTPE regime, and those that would need a fifth uniform,
    fall back to :func:`_draw_cells`.  The counts are those of
    :func:`_draw_cells`, bit for bit.
    """
    n, p = n.ravel(), p.ravel()
    groups, reps = len(n), k0.shape[-1]
    flip = p > 0.5
    low = np.where(flip, 1.0 - p, p)
    btpe = low * n > 30.0
    low[btpe] = 0.0  # walked as p = 0, which stops at X = 0, then redrawn
    q, (qn, bound) = 1.0 - low, _inversion_setup(n, low)
    # px[X, g] is group g's point probability of X up to its bound, then inf,
    # where every walk stops
    px = np.empty((bound.max() + 2, groups))
    px[0] = qn
    for x in range(1, len(px) - 1):
        px[x] = (n - x + 1) * low * px[x - 1] / (x * q)
    px[bound + 1, np.arange(groups)] = np.inf
    px = px.ravel()
    group = np.repeat(np.arange(groups), reps)  # each cell's, and where its walk starts
    cell_bound = bound[group]
    words = [w.ravel() for w in _philox_block(k0, k1)]
    x = _inversion_walk(_next_double(words[0]), group, px, groups) // groups
    for word in words[1:]:  # restarts: walks that passed their bound
        if not (again := np.flatnonzero(x > cell_bound)).size:
            break
        x[again] = _inversion_walk(_next_double(word[again]), group[again], px, groups) // groups
    plus = np.where(flip[group], n[group] - x, x)
    if (redraw := btpe[group] | (x > cell_bound)).any():
        plus[redraw] = _draw_cells(k0.ravel()[redraw], k1.ravel()[redraw],
                                   n[group][redraw], p[group][redraw])
    return plus.reshape(k0.shape)


def _draw_table(master_seed: int, shots: np.ndarray, p_arm: np.ndarray) -> np.ndarray:
    """Plus-counts of a whole table, in blocks of whole budget rows.

    Tables below ``MIN_KERNEL_CELLS`` cells draw cell by cell; larger ones
    run :func:`_draw_kernel` on blocks of at most ``DRAW_BLOCK_CELLS`` cells
    (one row if a row is larger), so the kernel's temporaries stay a
    block's size.  Every run of replicates shares its shots, as
    :func:`sample_count_table` builds them, so each run's first is its ``n``.
    """
    draw = _draw_kernel if shots.size >= MIN_KERNEL_CELLS else _draw_cells
    plus = np.empty_like(shots)
    rows = max(1, DRAW_BLOCK_CELLS // shots[0].size)
    for b in range(0, len(shots), rows):
        block = slice(b, b + rows)
        k0, k1 = _budget_keys(master_seed, b, shots[block].shape)
        plus[block] = draw(k0, k1, shots[block, ..., :1], p_arm[block, ..., None])
    return plus


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
    would use, so tables match a cell-by-cell loop bit for bit.  The domain
    is checked and every cell's shots and arm probability derived first;
    :func:`_draw_table` then draws in this process, by the vectorized kernel
    on tables of at least ``MIN_KERNEL_CELLS`` cells.  The counts are
    plus-counts of +/-1 outcomes, so the model must be sampled, and so
    binary.
    """
    if not model.sampled:
        raise ModelError("model has no sampler")
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    budgets = [int(b) for b in budgets]
    eps_grids = grid_table(budgets, eps_grids)

    shots = np.zeros((*eps_grids.shape, len(rule.scales) + 1, replicates), dtype=np.int64)
    for b_idx, (budget, eps) in enumerate(zip(budgets, eps_grids.tolist())):
        level_shots = None  # a fixed split's, after the first eps's domain check
        for e_idx, e in enumerate(eps):
            check_scaled_eps(model, e, rule.scales)
            if rule.optimal or level_shots is None:
                level_shots = integerize_allocation(_resolve_alloc(model, rule, e), budget)
            shots[b_idx, e_idx, 1:] = level_shots[:, None]
        shots[b_idx, :, 0] = budget
    # arm 0 is the base strength, arm 1+j the scaled level j
    p_arm = model.plus_probability(eps_grids[..., None] * np.r_[1.0, rule.scales])
    plus = _draw_table(int(master_seed), shots, p_arm)
    return CountTable(
        budgets=tuple(budgets),
        eps_grids=eps_grids,
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
