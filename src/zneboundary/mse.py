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
unmitigated arm and slots 1..k+1 the scaled levels.  Its shots are the
rule's allocation, :func:`count_shots`, for the sampler, writer and reader
alike.  Every cell's random stream is derived from the master seed and the
cell index by a counter-based split, so cells can be generated in any order
with bit-identical results.

:func:`sample_count_table` draws a table in-process, a block of budget rows
at a time: a numpy kernel computes each cell's first Philox word and finds
its draw of numpy's binomial inversion sampler by a search on the running
sums of its point probabilities.  Every cell the search cannot settle from
that word, and every cell numpy samples by BTPE, is drawn from its own
stream, one at a time.  The counts are the same bytes as
``cell_stream(...).binomial(n, p)``.

:meth:`CountTable.read` takes the arguments a table was drawn with, as
:func:`sample_count_table` does, and builds the model and rule nowhere: the
JSON header on disk must be the one :meth:`CountTable.write` writes for
them, and the rows must run in (budget, eps, arm, replicate) order with the
allocation's shots.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import SCHEMA_VERSION, begin_table, open_table, read_block
from .errors import AllocationError, ConfigError, ModelError
from .models import NoiseObservableModel, check_scaled_eps
from .rules import RichardsonRule, optimal_allocation, optimal_split

__all__ = [
    "DeltaPoint",
    "CountTable",
    "count_shots",
    "exact_delta",
    "exact_delta_curve",
    "grid_table",
    "integerize_allocation",
    "cell_stream",
    "mc_delta",
    "sample_count_table",
    "deltas_from_counts",
]

# Count tables of fewer cells draw cell by cell: below this the vectorized
# kernel's fixed cost, about 0.35 ms, exceeds the per-cell loop's 1.5-2 us a
# cell.  Interleaved medians of whole-table draws on a 2-vCPU x86-64 host:
# 48 cells took 0.18 ms by the loop and 0.36 ms by the kernel, 144 cells 0.31
# against 0.38 ms, 288 cells 0.48 against 0.40 ms and 816 cells 1.23 against
# 0.50 ms; the two crossed between 192 and 288 cells.
MIN_KERNEL_CELLS = 250

# Cells per block of the vectorized draw, in whole budget rows (one row if a
# row is longer).  A block's temporaries are about 15 arrays of its cells, so
# they stay under 0.5 MB here, whatever the size of the table; the validation
# battery's peak memory grew by 2 MB with blocks of 16,384 cells.
DRAW_BLOCK_CELLS = 4096

# Grid points per block of the exact engine: a block's model evaluations and
# MSE terms are a few hundred kB, whatever the size of the sweep's table.
EXACT_BLOCK_POINTS = 4096

# Groups of one lattice search in the draw kernel: keys are offset by the
# group's place in its chunk times 2**53, and 1,023 groups keep every key
# below 2**63, inside int64.
SEARCH_GROUPS = 1023


@dataclass(frozen=True)
class DeltaPoint:
    """MSE difference at one (eps, budget) cell; ``std_err`` is None when exact."""

    delta: float
    std_err: float | None = None


def _first_outside(model, scales, eps: np.ndarray) -> float | None:
    """The first ``eps``, row-major, out of the domain at any of ``scales``, or None."""
    inside = model.inside_domain(eps)
    for lam in scales:
        inside &= model.inside_domain(lam * eps)
    return None if inside.all() else float(eps.flat[np.argmin(inside)])


def _check_domain(model, rule: RichardsonRule | None, eps: np.ndarray, budget) -> None:
    """Raise the error a row-major point-by-point loop over ``eps`` meets first."""
    if not (np.asarray(budget) > 0).all():
        raise ValueError(f"budget must be positive, got {np.min(budget)}")
    if (first := _first_outside(model, rule.scales if rule else (), eps)) is not None:
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
    return DeltaPoint(float(delta))


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


def _shot_budgets(budgets: Sequence[int]) -> tuple[int, ...]:
    """The budgets as ints; one that is not a whole number raises AllocationError."""
    for b in budgets:
        if not (isinstance(b, Real) and math.isfinite(b) and b == int(b)):
            raise AllocationError(f"budget {b!r} is not a whole number of shots")
    return tuple(int(b) for b in budgets)


def count_shots(model, rule: RichardsonRule, budgets: Sequence[int], eps_grids) -> np.ndarray:
    """Each replicate run's shots, shape ``(n_budgets, n_eps, n_arms)``: a count table's layout.

    Arm slot 0 gets the budget ``B`` and level ``j`` its ``n_j = pi_j B``
    shots by :func:`integerize_allocation`, per eps for a reallocating rule.
    The first eps of the whole table, row by row, with a level out of the
    domain raises :func:`models.check_scaled_eps`'s error first.
    """
    eps_grids = grid_table(budgets, eps_grids)
    if (first := _first_outside(model, rule.scales, eps_grids)) is not None:
        check_scaled_eps(model, first, rule.scales)
    # a fixed split is one row per budget, broadcast over its grid
    alloc = (optimal_allocation(rule, model, eps_grids) if rule.optimal
             else [[rule.alloc]] * len(budgets))
    shots = np.empty((*eps_grids.shape, len(rule.scales) + 1), dtype=np.int64)
    shots[..., 0] = np.reshape(budgets, (-1, 1))
    shots[..., 1:] = [[integerize_allocation(pi, b) for pi in row]
                      for b, row in zip(budgets, alloc)]
    return shots


_MASK64 = (1 << 64) - 1
# Philox4x64-10 constants (Salmon et al., SC'11), as uint64 scalars so that no
# numpy version promotes the uint64 arithmetic to another type.
_U64 = np.uint64
_LOW32, _HALF = _U64(0xFFFFFFFF), _U64(32)
# The multipliers are stored reversed, (M1, M0), to multiply the counter words
# (c2, c0); the key bumps broadcast against a stacked (k0, k1).
_PHILOX_M = np.array([[0xCA5A826395121157], [0xD2E7470EE14C6C93]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


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
    row budget ``first_budget``.  The same hash chain as :func:`cell_stream`:
    the (budget, eps, arm) indices are absorbed once per run of replicates,
    then the replicate index per cell; two uint64 arrays of that shape.
    """
    h = np.array(master_seed & _MASK64, dtype=np.uint64)
    for size, first in zip(shape, (first_budget, 0, 0, 0)):
        h = _absorb(h[..., None], np.arange(first, first + size, dtype=np.uint64))
    return h, _splitmix64(h)


@dataclass
class CountTable:
    """Raw plus-counts for a full experiment grid.

    ``plus`` has shape (n_budgets, n_eps, n_arms, n_reps), where arm slot 0
    is the unmitigated arm at the base strength and slot 1+j the level at
    ``scales[j] * eps``.  The table holds the model it was drawn from, which
    must be sampled, and the rule whose allocation gives the shots:
    :attr:`shots` is :func:`count_shots` of the two.
    """

    budgets: tuple[int, ...]
    eps_grids: np.ndarray  # (n_budgets, n_eps), one grid per budget; see grid_table
    plus: np.ndarray
    master_seed: int
    model: NoiseObservableModel
    rule: RichardsonRule

    def __post_init__(self):
        self.eps_grids = grid_table(self.budgets, self.eps_grids)
        if not self.model.sampled:
            raise ModelError("model has no sampler")
        expected = (*self.eps_grids.shape, len(self.rule.scales) + 1)
        if self.plus.ndim != 4 or self.plus.shape[:3] != expected:
            raise ValueError(f"plus counts have shape {self.plus.shape}, not {expected} + reps")
        if np.any(self.plus < 0) or np.any(self.plus > self.shots):
            raise ValueError("plus counts must lie in [0, shots]")

    @functools.cached_property
    def shots(self) -> np.ndarray:
        """Every cell's shots: :func:`count_shots`, read-only, broadcast over the replicates."""
        runs = count_shots(self.model, self.rule, self.budgets, self.eps_grids)
        return np.broadcast_to(runs[..., None], self.plus.shape)

    @property
    def n_replicates(self) -> int:
        return self.plus.shape[3]

    def header(self) -> dict:
        """The JSON header that :meth:`write` writes and :meth:`read` requires."""
        return {"schema_version": SCHEMA_VERSION, "model": self.model.spec(),
                "rule": self.rule.spec(), "budgets": [int(b) for b in self.budgets],
                "eps_grids": self.eps_grids.tolist(), "scales": list(self.rule.scales),
                "replicates": int(self.n_replicates), "master_seed": int(self.master_seed)}

    def write(self, csv_path, header_path) -> None:
        """Persist as a columnar CSV plus a JSON header.

        Rows run in (budget, eps, arm, replicate) order and end in ``\\r\\n``,
        the bytes ``csv.writer`` produces; one budget is formatted per write.
        Each run of replicates shares its row prefix and its shots, written
        into the block's template.
        """
        nb, ne, ns, nr = self.plus.shape
        rep = np.tile(np.arange(nr), ne * ns)
        runs = self.shots[..., 0]
        with open(csv_path, "w", newline="") as fh:
            begin_table(fh, _COUNT_COLUMNS)
            for b in range(nb):
                template = "".join(f"{b},{e},{s - 1},%d,{n},%d\r\n" * nr
                                   for (e, s), n in np.ndenumerate(runs[b]))
                fields = np.column_stack((rep, self.plus[b].ravel()))
                fh.write(template % tuple(fields.ravel().tolist()))
        Path(header_path).write_text(json.dumps(self.header(), indent=2, sort_keys=True))

    @classmethod
    def read(cls, csv_path, header_path, model, rule, budgets, eps_grids, replicates,
             master_seed) -> "CountTable":
        """Load the table :meth:`write` wrote for :func:`sample_count_table`'s arguments.

        The arguments give the table's layout, one budget block at a time
        filled in from the file.  The JSON header must be that table's
        :meth:`header`: the first field that differs (a grid by its budget)
        raises :class:`ConfigError`.  Rows come in the writer's (budget,
        eps, arm, replicate) order: a wrong column header, an out-of-range
        cell, one before the next cell in that order (a duplicate) or after
        it (the next one has no row), an extra row, or a row whose shots
        are not its :func:`count_shots` or whose plus count lies outside
        [0, shots] raises :class:`ConfigError` naming the file and the first
        such row.
        """
        table = _zero_table(model, rule, budgets, eps_grids, replicates, master_seed)
        head = f"count header {header_path}"
        try:
            header = json.loads(Path(header_path).read_text())
        except ValueError as err:
            raise ConfigError(f"{head}: {err}") from err
        _check_header(head, header, table.header())
        shape = table.plus.shape
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
                if problem := _bad_counts(table.shots[b].ravel(), rows[:, 4], rows[:, 5]):
                    i, text = problem
                    raise ConfigError(f"{where}: data row {n_before + i + 1} "
                                      f"{_describe_row(rows[i])}: {text}")
                table.plus[b] = rows[:, 5].reshape(shape[1:])
            for line in fh:
                if line.strip():
                    raise ConfigError(f"{where}: data row {table.plus.size + 1} "
                                      f"{line.strip()!r}: extra row beyond the table's "
                                      f"{table.plus.size} cells")
        return table


_COUNT_COLUMNS = ("budget_idx", "eps_idx", "scale_idx", "rep_idx", "shots", "plus_count")


def _check_header(head: str, header, expected: dict) -> None:
    """Refuse a header other than ``expected``, naming the first field or grid that differs."""
    if header == expected:
        return
    if not isinstance(header, dict):
        raise ConfigError(f"{head}: not a JSON object")
    for key, value in expected.items():
        if key not in header:
            raise ConfigError(f"{head}: no {key!r} field")
        if (found := header[key]) == value:
            continue
        if key == "eps_grids" and isinstance(found, list) and len(found) == len(value):
            b = next(b for b, grid in enumerate(value) if found[b] != grid)
            key, found, value = f"eps_grids of budget {expected['budgets'][b]}", found[b], value[b]
        raise ConfigError(f"{head}: {key} {found!r}, not the configuration's "
                          f"{value!r}; rerun `zneboundary sweep`")
    raise ConfigError(f"{head}: unknown field {min(header.keys() - expected.keys())!r}")


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


def _bad_counts(shots: np.ndarray, found: np.ndarray, plus: np.ndarray) -> tuple[int, str] | None:
    """The first row's index and problem: ``found`` shots not ``shots``, or ``plus`` outside."""
    if not (bad := (found != shots) | (plus < 0) | (plus > shots)).any():
        return None
    i = int(np.argmax(bad))
    if found[i] != shots[i]:
        return i, f"shots {found[i]}, not the {shots[i]} of the rule's allocation"
    return i, "plus count outside [0, shots]"


def _describe_row(row) -> str:
    return "(" + ", ".join(f"{col}={int(v)}" for col, v in zip(_COUNT_COLUMNS, row)) + ")"


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


def _mulhilo(m, x, hi, lo, t0, t1) -> None:
    """High and low words of the 128-bit products ``m * x``, into ``hi`` and ``lo``.

    ``m`` holds uint64 multipliers that broadcast against ``x``; ``t0`` and
    ``t1`` are scratch arrays of ``x``'s shape.
    """
    m_lo, m_hi = m & _LOW32, m >> _HALF
    np.bitwise_and(x, _LOW32, out=t0)  # x_lo
    np.right_shift(x, _HALF, out=t1)  # x_hi
    np.multiply(m_hi, t0, out=lo)  # hi_lo, until lo is written last
    np.multiply(m_lo, t0, out=t0)
    t0 >>= _HALF
    t0 += np.bitwise_and(lo, _LOW32, out=hi)
    t0 += np.multiply(m_lo, t1, out=hi)  # mid, < 2**64
    np.multiply(m_hi, t1, out=hi)
    lo >>= _HALF
    hi += lo
    t0 >>= _HALF
    hi += t0
    np.multiply(m, x, out=lo)


def _philox_block(k0, k1) -> np.ndarray:
    """The first word of each key's first Philox4x64-10 block, elementwise.

    numpy's Philox increments its counter before it computes a block, so a
    fresh generator's first word, ``random_raw(4)[0]``, comes from counter
    ``(1, 0, 0, 0)``; its first round maps that counter to ``(k0, 0, k1,
    M0)`` whatever the key, and nine rounds remain.  The counter's even
    words ``(c0, c2)`` and odd words ``(c1, c3)`` are each one ``(2,
    cells)`` array, and every round writes into buffers allocated once.
    """
    key = np.stack([k0.ravel(), k1.ravel()])
    even = key.copy()
    odd = np.zeros_like(key)
    odd[1] = _PHILOX_M[1]
    hi, lo, *scratch = np.empty((4, *key.shape), dtype=np.uint64)
    for _ in range(9):
        key += _PHILOX_BUMP
        # c0, c1 <- hi(M1 c2) ^ c1 ^ k0, lo(M1 c2);  c2, c3 <- hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)
        _mulhilo(_PHILOX_M, even[::-1], hi, lo, *scratch)
        hi ^= odd
        hi ^= key
        even, odd, hi, lo = hi, lo, even, odd
    return even[0].reshape(k0.shape)


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


def _search_table(px: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search keys of a ``(groups, rows)`` table of point probabilities, and where each is sure.

    numpy's uniform is ``m / 2**53`` for an integer ``m < 2**53``, and ``U <=
    c`` exactly when ``m <= floor(c 2**53)``.  So group ``g``'s key of ``X``
    is ``floor(cum[X] 2**53)``, at most ``2**53 - 1``, plus ``(g mod
    SEARCH_GROUPS) 2**53``, where ``cum`` is the running sum of ``px``, inf
    past the bound; each chunk of ``SEARCH_GROUPS`` groups is one ascending
    run, and the first key at or above a cell's ``m`` plus offset is its
    ``X`` by search.

    numpy instead subtracts the point probabilities from ``U`` one rounded
    step at a time.  Each of the ``X`` rounded steps of that loop and of
    ``cum`` is off by at most ``2**-53``, so numpy also stops at ``X`` when
    ``U`` lies more than ``(2X + 5) 2**-53`` above the running sum of ``X -
    1`` and as far below that of ``X``.  Past the bound numpy reads another
    uniform, so no offset is sure there.  Returns the keys and each key's
    window ``(above, below]`` of sure offset ``m``, all flat int64.
    """
    groups, rows = px.shape
    offset = ((np.arange(groups) % SEARCH_GROUPS) << 53)[:, None]
    keys = np.minimum(np.cumsum(px, axis=1) * 2.0**53, 2.0**53 - 1).astype(np.int64) + offset
    slack = 2 * np.arange(rows) + 5
    above = np.empty_like(keys)
    above[:, :1] = offset - 1  # X = 0 compares U with q**n itself, no rounding
    above[:, 1:] = keys[:, :-1] + slack[1:]
    below = np.where(px < np.inf, keys - slack, -1)
    return keys.ravel(), above.ravel(), below.ravel()


def _invert(word, group, px, keys, above, below) -> np.ndarray:
    """numpy's inversion ``X`` for each cell's uniform word where the search is sure, else -1.

    ``group`` (ascending) indexes each cell's row of ``px``, :func:`_draw_kernel`'s
    point probabilities, and the rest is their :func:`_search_table`.  One
    ``searchsorted`` per chunk of ``SEARCH_GROUPS`` groups finds each cell's
    key; a cell outside its key's sure window, one past its bound among
    them, gets -1.
    """
    rows = px.shape[1]
    query = (word >> _U64(11)).view(np.int64) + ((group % SEARCH_GROUPS) << 53)
    pos = np.empty_like(query)
    span = SEARCH_GROUPS * rows
    for first in range(0, len(keys), span):
        cells = slice(*np.searchsorted(group, [first // rows, first // rows + SEARCH_GROUPS]))
        pos[cells] = np.searchsorted(keys[first:first + span], query[cells]) + first
    return np.where((query > above[pos]) & (query <= below[pos]), pos - group * rows, -1)


def _draw_kernel(k0, k1, n, p) -> np.ndarray:
    """Plus-counts of a block of cells: :func:`_draw_cells` without the per-cell calls.

    ``k0`` and ``k1`` hold every cell's key words, shape ``(..., n_reps)``;
    ``n`` and ``p`` the shots and plus probability of each run of
    replicates, shape ``(..., 1)``.  numpy's ``random_binomial`` draws ``n -
    X(1 - p)`` for ``p > 0.5`` and ``X(p)`` else.  ``X`` is its inversion
    sampler when ``min(p, 1 - p) n <= 30``, BTPE otherwise.  Inversion
    subtracts the point probabilities of ``X = 0, 1, ...``, from ``q**n``
    on, from a uniform until the remainder is at most the next one; at ``p
    = 0`` the first point probability is 1, so ``X`` is 0.  Here the uniform
    is each cell's first Philox word, and :func:`_invert` finds each cell's
    ``X`` by a search on the running sums of the point probabilities.  The
    cells it leaves undecided and the BTPE cells are redrawn together by
    :func:`_draw_cells`, so the counts are its counts, bit for bit.
    """
    n, p = n.ravel(), p.ravel()
    groups, reps = len(n), k0.shape[-1]
    flip = p > 0.5
    low = np.where(flip, 1.0 - p, p)
    btpe = low * n > 30.0
    low[btpe] = 0.0  # inverted as p = 0, which stops at X = 0, then redrawn
    q, (qn, bound) = 1.0 - low, _inversion_setup(n, low)
    # px[g, X] is group g's point probability of X up to its bound, then inf;
    # the recursion runs on rows of X with numpy's factors (n - X + 1) p and X q
    rows = bound.max() + 2
    xs = np.arange(1, rows - 1)[:, None]
    num, den = (n - xs + 1) * low, xs * q
    px = np.empty((rows, groups))
    px[0] = qn
    for i in range(1, rows - 1):
        np.multiply(num[i - 1], px[i - 1], out=px[i])
        px[i] /= den[i - 1]
    px = np.ascontiguousarray(px.T)
    px[np.arange(rows) > bound[:, None]] = np.inf
    group = np.repeat(np.arange(groups), reps)
    x = _invert(_philox_block(k0, k1).ravel(), group, px, *_search_table(px))
    plus = np.where(flip[group], n[group] - x, x)
    if (redraw := btpe[group] | (x < 0)).any():
        plus[redraw] = _draw_cells(k0.ravel()[redraw], k1.ravel()[redraw],
                                   n[group][redraw], p[group][redraw])
    return plus.reshape(k0.shape)


def _draw_table(table: CountTable, p_arm: np.ndarray) -> None:
    """Draw a table's plus counts into ``table.plus``, in blocks of whole budget rows.

    Tables below ``MIN_KERNEL_CELLS`` cells draw cell by cell; larger ones
    run :func:`_draw_kernel` on blocks of at most ``DRAW_BLOCK_CELLS`` cells
    (one row if a row is larger), so the kernel's temporaries stay a
    block's size.  Each run of replicates' first shots are its ``n``.
    """
    shots, plus = table.shots, table.plus
    draw = _draw_kernel if plus.size >= MIN_KERNEL_CELLS else _draw_cells
    rows = max(1, DRAW_BLOCK_CELLS // plus[0].size)
    for b in range(0, len(plus), rows):
        block = slice(b, b + rows)
        k0, k1 = _budget_keys(table.master_seed, b, plus[block].shape)
        plus[block] = draw(k0, k1, shots[block, ..., :1], p_arm[block, ..., None])


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
    b, e, arm, rep)`` would return, with the shots of :func:`count_shots`
    and the probability ``sample_counts`` would use, so tables match a
    cell-by-cell loop bit for bit.  The table comes first, with zero counts
    (its shots check the domain); :func:`_draw_table` then fills them in.
    The counts are plus-counts of +/-1 outcomes, so the model must be
    sampled, and so binary.  A budget that is not a whole number raises
    :class:`AllocationError`; it is never truncated.
    """
    table = _zero_table(model, rule, budgets, eps_grids, replicates, master_seed)
    # arm 0 is the base strength, arm 1+j the scaled level j
    _draw_table(table, model.plus_probability(table.eps_grids[..., None]
                                              * np.r_[1.0, rule.scales]))
    return table


def _zero_table(model, rule, budgets, eps_grids, replicates, master_seed) -> CountTable:
    """The table of :func:`sample_count_table`'s arguments, its counts all zero."""
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    budgets = _shot_budgets(budgets)
    eps_grids = grid_table(budgets, eps_grids)
    shape = (*eps_grids.shape, len(rule.scales) + 1, replicates)
    return CountTable(budgets, eps_grids, np.zeros(shape, dtype=np.int64), int(master_seed),
                      model, rule)


def deltas_from_counts(table: CountTable) -> tuple[np.ndarray, np.ndarray]:
    """Replicate-averaged MSE differences from raw counts, by the table's own rule.

    Returns (delta, std_err), each of shape (n_budgets, n_eps).  Squared
    errors are measured against the model's exact ideal value ``mu(0)``, so
    the replicate mean is an unbiased estimate of the exact MSE difference.
    """
    diff = _squared_error_diffs(table.plus, table.shots, table.rule.coeffs, table.model.mean(0.0))
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
    delta, std_err = deltas_from_counts(table)
    return DeltaPoint(float(delta[0, 0]), float(std_err[0, 0])), table
