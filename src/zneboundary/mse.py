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
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AllocationError, ConfigError, ModelError
from .models import (
    BinaryObservableModel,
    MonomialBalanceModel,
    NoiseObservableModel,
    check_scaled_eps,
)
from .rules import RichardsonRule, optimal_allocation

__all__ = [
    "MseBreakdown",
    "DeltaPoint",
    "CountTable",
    "exact_mse",
    "exact_delta",
    "exact_delta_curve",
    "integerize_allocation",
    "cell_stream",
    "mc_delta",
    "sample_count_table",
    "deltas_from_counts",
]

COUNTS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MseBreakdown:
    """Bias/variance decomposition of one estimator's MSE."""

    bias: float
    bias_sq: float
    variance: float
    mse: float
    estimator_tag: str  # "noisy" or "zne"


@dataclass(frozen=True)
class DeltaPoint:
    """MSE difference at one (eps, budget) cell."""

    eps: float
    budget: float
    delta: float
    source: str  # "exact" or "monte_carlo"
    std_err: float | None = None


def _resolve_alloc(model, rule: RichardsonRule, eps, realloc: str) -> np.ndarray:
    if realloc == "fixed":
        return np.asarray(rule.alloc)
    if realloc == "optimal":
        return np.asarray(optimal_allocation(rule, model, eps))
    raise ValueError(f"realloc must be 'fixed' or 'optimal', got {realloc!r}")


def _mse_terms(model, rule: RichardsonRule | None, eps, budget: float, realloc: str):
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
    pi = _resolve_alloc(model, rule, eps, realloc)
    c = np.asarray(rule.coeffs)
    bias = (model.mean(strengths)[:, None, :] @ c)[:, 0] - mu0
    variance = (c**2 * model.variance(strengths) / pi).sum(axis=1) / budget
    return noisy, (bias, variance)


def exact_mse(
    model: NoiseObservableModel,
    rule: RichardsonRule | None,
    eps: float,
    budget: float,
    *,
    realloc: str = "fixed",
) -> MseBreakdown:
    """Exact MSE breakdown of the unmitigated (rule=None) or extrapolated estimator."""
    noisy, zne = _mse_terms(model, rule, [eps], budget, realloc)
    bias, variance = (float(term[0]) for term in (noisy if zne is None else zne))
    bias_sq = bias * bias
    return MseBreakdown(
        bias=bias, bias_sq=bias_sq, variance=variance, mse=bias_sq + variance,
        estimator_tag="noisy" if zne is None else "zne",
    )


def exact_delta(
    model,
    rule: RichardsonRule | None,
    eps: float,
    budget: float,
    *,
    realloc: str = "fixed",
) -> DeltaPoint:
    """Exact MSE difference at one point: element 0 of :func:`exact_delta_curve`."""
    delta = exact_delta_curve(model, rule, [eps], budget, realloc=realloc)[0]
    return DeltaPoint(eps=eps, budget=budget, delta=float(delta), source="exact")


def exact_delta_curve(
    model,
    rule: RichardsonRule | None,
    eps_grid: Sequence[float],
    budget: float,
    *,
    realloc: str = "fixed",
) -> np.ndarray:
    """Exact delta at every grid point, at one fixed budget, as an array.

    Monomial-balance models return their closed form.
    """
    if isinstance(model, MonomialBalanceModel):
        return np.array([model.delta_mse(float(e), budget) for e in eps_grid])
    if rule is None:  # the estimator compared against itself
        return np.zeros(len(eps_grid))
    (noisy_bias, noisy_var), (zne_bias, zne_var) = _mse_terms(
        model, rule, eps_grid, budget, realloc
    )
    return (noisy_bias * noisy_bias + noisy_var) - (zne_bias * zne_bias + zne_var)


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
            "schema_version": COUNTS_SCHEMA_VERSION,
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
        """
        nb, ne, ns, nr = self.shots.shape
        e, s, r = np.indices((ne, ns, nr)).reshape(3, -1)
        with open(csv_path, "w", newline="") as fh:
            fh.write(f"# zneboundary-schema={COUNTS_SCHEMA_VERSION}\n")
            fh.write(",".join(_COUNT_COLUMNS) + "\r\n")
            for b in range(nb):
                block = np.column_stack(
                    (np.full_like(e, b), e, s - 1, r,
                     self.shots[b].ravel(), self.plus[b].ravel())
                )
                fh.write((_COUNT_ROW * len(block)) % tuple(block.ravel().tolist()))
        Path(header_path).write_text(json.dumps(self.header(), indent=2, sort_keys=True))

    @classmethod
    def read(cls, csv_path, header_path) -> "CountTable":
        """Load a table written by :meth:`write`, one budget block at a time.

        Every cell must appear exactly once, in any order; a wrong column
        header, an out-of-range index, a duplicate, a missing or an extra row
        raises :class:`ConfigError` naming the file and the first such row.
        """
        header = json.loads(Path(header_path).read_text())
        budgets = tuple(int(b) for b in header["budgets"])
        eps_grids = tuple(tuple(float(x) for x in g) for g in header["eps_grids"])
        scales = tuple(float(s) for s in header["scales"])
        shape = (len(budgets), len(eps_grids[0]), len(scales) + 1, int(header["replicates"]))
        n_cells = int(np.prod(shape))
        block_rows = n_cells // shape[0]
        shots = np.zeros(n_cells, dtype=np.int64)
        plus = np.zeros(n_cells, dtype=np.int64)
        seen = np.zeros(n_cells, dtype=bool)
        with open(csv_path) as fh:
            line = fh.readline()
            while line.startswith("#"):
                line = fh.readline()
            if line.rstrip("\n").split(",") != list(_COUNT_COLUMNS):
                raise ConfigError(
                    f"count table {csv_path}: column header {line.strip()!r}, "
                    f"expected {','.join(_COUNT_COLUMNS)!r}"
                )
            n_read = 0
            while n_read < n_cells:
                rows = _read_count_block(fh, min(block_rows, n_cells - n_read), csv_path,
                                         n_read + 1)
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
                        f"count table {csv_path}: data row {n_read + i + 1} "
                        f"{_describe_row(rows[i])}: "
                        + ("index out of range" if bad[i] else "duplicate cell")
                    )
                seen[flat] = True
                shots[flat] = rows[:, 4]
                plus[flat] = rows[:, 5]
                n_read += len(rows)
            for line in fh:
                if line.strip():
                    raise ConfigError(
                        f"count table {csv_path}: data row {n_read + 1} {line.strip()!r}: "
                        f"extra row beyond the table's {n_cells} cells"
                    )
        if not seen.all():
            cell = np.unravel_index(int(np.argmin(seen)), shape)
            raise ConfigError(
                f"count table {csv_path}: no row for cell "
                f"{_describe_row(np.subtract(cell, (0, 0, 1, 0)))}"
            )
        return cls(
            budgets=budgets, eps_grids=eps_grids, scales=scales,
            shots=shots.reshape(shape), plus=plus.reshape(shape),
            master_seed=int(header["master_seed"]),
            model_spec=header.get("model", {}), rule_spec=header.get("rule", {}),
        )


_COUNT_COLUMNS = ("budget_idx", "eps_idx", "scale_idx", "rep_idx", "shots", "plus_count")
_COUNT_ROW = "%d,%d,%d,%d,%d,%d\r\n"


def _describe_row(row) -> str:
    return "(" + ", ".join(f"{col}={int(v)}" for col, v in zip(_COUNT_COLUMNS, row)) + ")"


def _read_count_block(fh, max_rows: int, csv_path, first_row: int) -> np.ndarray:
    """Up to ``max_rows`` integer rows from ``fh``, the first being data row ``first_row``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, comments=None,
                              max_rows=max_rows, ndmin=2)
    except ValueError as err:
        raise ConfigError(
            f"count table {csv_path}: {_bad_count_row(csv_path, first_row) or err}"
        ) from err
    if rows.size and rows.shape[1] != len(_COUNT_COLUMNS):
        raise ConfigError(
            f"count table {csv_path}: data row {first_row}: {rows.shape[1]} fields, "
            f"expected {len(_COUNT_COLUMNS)}"
        )
    return rows


def _bad_count_row(csv_path, first_row: int) -> str | None:
    """Name the first data row from ``first_row`` on that is not six integers."""
    with open(csv_path) as fh:
        lines = (line for line in fh if line.strip())
        line = next(lines, "")
        while line.startswith("#"):
            line = next(lines, "")
        # ``lines`` is past the column header
        for number, line in enumerate(itertools.islice(lines, first_row - 1, None), first_row):
            fields = line.strip().split(",")
            if len(fields) != len(_COUNT_COLUMNS):
                return (f"data row {number} {line.strip()!r}: {len(fields)} fields, "
                        f"expected {len(_COUNT_COLUMNS)}")
            bad = [col for col, text in zip(_COUNT_COLUMNS, fields) if not _is_int64(text)]
            if bad:
                return (f"data row {number} {line.strip()!r}: {', '.join(bad)} "
                        "not a 64-bit integer")
    return None


def _is_int64(text: str) -> bool:
    try:
        return -(2**63) <= int(text) < 2**63
    except ValueError:
        return False


def sample_count_table(
    model: BinaryObservableModel,
    rule: RichardsonRule,
    budgets: Sequence[int],
    eps_grids: Sequence[Sequence[float]],
    replicates: int,
    master_seed: int,
    *,
    realloc: str = "fixed",
) -> CountTable:
    """Draw the full raw-count table for an experiment grid.

    Cell (b, e, arm, rep) draws from the stream ``cell_stream(master_seed,
    b, e, arm, rep)`` would return, with the probability ``sample_counts``
    would use, so tables match a cell-by-cell loop bit for bit; the keys and
    the arm probabilities are derived one budget at a time.  The counts are
    plus-counts of +/-1 outcomes, so the model must be binary.
    """
    if not isinstance(model, BinaryObservableModel):
        raise ModelError("model has no sampler")
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    budgets = [int(b) for b in budgets]
    if len(eps_grids) != len(budgets):
        raise ValueError("need one eps grid per budget")
    n_eps = len(eps_grids[0])
    if any(len(g) != n_eps for g in eps_grids):
        raise ValueError("all per-budget eps grids must have equal length")

    n_arms = len(rule.scales) + 1
    shots = np.zeros((len(budgets), n_eps, n_arms, replicates), dtype=np.int64)
    plus = np.zeros_like(shots)
    # One Philox for the whole table, re-keyed per cell.  A fresh Philox
    # starts at counter 0 with its four-word output buffer empty, so every
    # reset restores the buffer fields as well: a stale ``buffer_pos`` would
    # hand the next cell the previous cell's leftover draws.
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
    for b_idx, budget in enumerate(budgets):
        eps = np.asarray(eps_grids[b_idx], dtype=float)
        for e_idx, e in enumerate(eps.tolist()):
            check_scaled_eps(model, e, rule.scales)
            shots[b_idx, e_idx, 0] = budget
            pi = _resolve_alloc(model, rule, e, realloc)
            shots[b_idx, e_idx, 1:] = integerize_allocation(pi, budget)[:, None]
        # arm 0 is the base strength, arm 1+j the scaled level j
        strengths = np.column_stack((eps, eps[:, None] * np.asarray(rule.scales)))
        p_cell = np.broadcast_to(model.plus_probability(strengths)[:, :, None],
                                 shots.shape[1:])
        k0, k1 = _budget_keys(master_seed, b_idx, shots.shape[1:])
        draws = []
        for key[0], key[1], n, p in zip(k0.ravel().tolist(), k1.ravel().tolist(),
                                        shots[b_idx].ravel().tolist(),
                                        p_cell.ravel().tolist()):
            bitgen.state = fresh  # re-keyed through ``key``
            draws.append(binomial(n, p))
        plus[b_idx] = np.reshape(draws, shots.shape[1:])
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
    model: BinaryObservableModel,
    rule: RichardsonRule,
    eps: float,
    budget: int,
    replicates: int,
    master_seed: int,
    *,
    realloc: str = "fixed",
) -> tuple[DeltaPoint, CountTable]:
    """Monte Carlo MSE difference at a single (eps, budget) cell.

    The drawn counts are returned alongside the estimate so the raw data can
    be persisted and later bootstrap-resampled.
    """
    table = sample_count_table(
        model, rule, [budget], [[eps]], replicates, master_seed, realloc=realloc
    )
    mu0 = model.mean(0.0)
    delta, std_err = deltas_from_counts(table, rule.coeffs, mu0)
    point = DeltaPoint(
        eps=float(eps), budget=float(budget), delta=float(delta[0, 0]),
        source="monte_carlo", std_err=float(std_err[0, 0]),
    )
    return point, table
