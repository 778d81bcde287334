"""Experiment configuration: loading, validation, overrides, and hashing.

A configuration is a flat-sectioned YAML (or JSON) file:

    model:     {type: deterministic_limit_binary, kappa: 1.0}
    rule:      {scales: [1, 3], alloc: uniform}        # or [w..] or optimal
    grid:      {mode: auto, span: [0.1, 10.0], points_per_decade: 40}
               # or {mode: explicit, eps: [...]}
    budgets:   {lo: 1.0e3, hi: 1.0e7, per_decade: 3}   # or {values: [...]}
    engine:    {kind: exact}                            # or monte_carlo + replicates
    windows:   {variance: [1.0e-4, 1.0e-3], bias: [1.0e-4, 1.0e-3]}
    bootstrap: {statistics: [s_obs, c_fit], n_replicates: 1000, level: 0.95, seed: 7}
    seed:      12345                                    # mandatory for monte_carlo
    output:    {dir: out, prefix: run}

Grids and regression windows are fixed here, before any estimate is
computed; reports echo them together with the configuration hash so a run
can be reproduced byte-for-byte.  Command-line ``--set section.key=value``
overrides are applied before validation and enter the hash.

``ExperimentConfig.grids`` is the run's grid table, one eps grid per budget,
on which every stage writes and reads.  An explicit grid needs 3 points or
more, as ``boundary`` does; ``output.prefix`` is a file name, not a path.
A grid takes only its own mode's keys, and ``budgets`` one of its two
mapping forms: a key that no stage would read is refused by name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from .boundary import DEFAULT_POINTS_PER_DECADE, DEFAULT_SPAN, auto_windows, check_crossing_grid
from .errors import ConfigError
from .models import model_from_spec
from .mse import grid_table
from .resample import check_bootstrap
from .rules import RichardsonRule, build_rule

__all__ = ["ExperimentConfig", "load_config", "parse_config", "config_hash"]

GRID_KEYS = {"auto": ("span", "points_per_decade"), "explicit": ("eps",)}  # besides mode
DEFAULT_REPLICATES = 100  # Monte Carlo replicates unless configured
DEFAULT_BOOTSTRAP = {"n_replicates": 1000, "level": 0.95}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: the values :func:`parse_config` parsed, which the stages use.

    ``model()`` and ``rule()`` are the objects built during validation (no rule
    for a rule-less sweep or an unsampled model).  ``grid`` holds its mode's keys
    only: an auto grid's ``span`` (a float pair) and ``points_per_decade`` (an int),
    or an explicit grid's ``eps`` (floats); each window is a float pair;
    ``engine["replicates"]``, the seeds and the bootstrap counts are ints;
    ``output`` holds strings.  ``raw`` is the mapping as loaded: the hash covers it.
    ``grids`` is the run's grid table, built and checked on first use.
    """

    _model: object
    _rule: RichardsonRule | None
    grid: dict
    budgets: tuple[float, ...]
    engine: dict
    windows: dict
    bootstrap: dict | None
    seed: int | None
    output: dict
    raw: dict = field(repr=False)

    def model(self):
        return self._model

    def rule(self) -> RichardsonRule | None:
        return self._rule

    @property
    def is_monte_carlo(self) -> bool:
        return self.engine["kind"] == "monte_carlo"

    @property
    def replicates(self) -> int:
        return self.engine.get("replicates", DEFAULT_REPLICATES)

    @cached_property
    def grids(self) -> np.ndarray:
        """The pre-registered :func:`mse.grid_table`: ``grid.eps`` for every budget, or
        :func:`boundary.auto_windows`.  Built on first use, by the stage that needs
        it, and checked as crossing grids: a failure is a ConfigError."""
        if self.grid["mode"] == "explicit":
            grids = grid_table(self.budgets, [self.grid["eps"]] * len(self.budgets))
        else:
            grids = auto_windows(self._model, self._rule, self.budgets, span=self.grid["span"],
                                 points_per_decade=self.grid["points_per_decade"])
        try:
            check_crossing_grid(grids)
        except ValueError as err:
            raise ConfigError(f"{self.grid['mode']} grid table: {err}") from err
        grids.flags.writeable = False  # one table, shared by every stage of the run
        return grids

    def hash(self) -> str:
        return config_hash(self.raw)

    def out_path(self, suffix: str) -> Path:
        return Path(self.output["dir"]) / f"{self.output['prefix']}_{suffix}"


def config_hash(raw: dict) -> str:
    """sha256 of the canonical JSON of ``raw``, dotless exponent numbers as floats.

    PyYAML reads YAML 1.1, where ``1e-4`` (no dot) is a string, which the
    section readers take as the float ``1.0e-4``; both spellings hash alike.
    A dotted number with an unsigned exponent (``1.0e3``) is a string too,
    and hashes as one: the benchmark's golden configurations spell their
    budgets so, and their hashes are in the golden artifacts.
    """
    canonical = json.dumps(_dotless_floats(raw), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_DOTLESS_FLOAT = re.compile(r"[-+]?[0-9]+[eE][-+]?[0-9]+")


def _dotless_floats(value):
    """``value`` with every string like ``1e-4`` replaced by its float."""
    if isinstance(value, dict):
        return {k: _dotless_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_dotless_floats(v) for v in value]
    if isinstance(value, str) and _DOTLESS_FLOAT.fullmatch(value):
        return float(value)
    return value


def _apply_override(raw: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override must look like section.key=value, got {assignment!r}")
    path, _, value = assignment.partition("=")
    keys = path.strip().split(".")
    target = raw
    for key in keys[:-1]:
        if target.get(key) is None:  # a null section is an absent one
            target[key] = {}
        target = target[key]
        if not isinstance(target, dict):
            raise ConfigError(f"cannot override through non-mapping key {key!r}")
    try:
        target[keys[-1]] = yaml.safe_load(value)
    except yaml.YAMLError as err:
        raise ConfigError(f"unparsable override value {value!r}: {err}") from err


def _number(key: str, value, integer: bool = False):
    """``value`` as a finite float (an int with ``integer``), or a ConfigError naming ``key``."""
    try:
        number = value if integer and isinstance(value, int) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number) or (integer and number != int(number)):
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return int(number) if integer else number


def _numbers(key: str, values) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return [_number(key, v) for v in values]


def _pair(key: str, value) -> tuple[float, float]:
    """A ``[lo, hi]`` pair with ``0 < lo < hi``; else a ConfigError naming ``key``."""
    pair = _numbers(key, value)
    if len(pair) != 2 or not 0 < pair[0] < pair[1]:
        raise ConfigError(f"{key} must be [lo, hi] with 0 < lo < hi, got {value!r}")
    return pair[0], pair[1]


def _positive_int(key: str, value) -> int:
    number = _number(key, value, integer=True)
    if number <= 0:
        raise ConfigError(f"{key} must be a positive integer, got {value!r}")
    return number


def _section(raw: dict, name: str, known: set[str]) -> dict:
    """``raw[name]`` as a mapping: absent or null is ``{}``; a non-mapping or an
    unknown key is a ConfigError naming the section."""
    section = raw.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a mapping, got {section!r}")
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}; "
                          f"known: {', '.join(sorted(known))}")
    return section


def _expand_budgets(raw: dict) -> tuple[float, ...]:
    spec = raw["budgets"]
    if not isinstance(spec, (list, tuple)):
        spec = _section(raw, "budgets", {"values", "lo", "hi", "per_decade"})
    if isinstance(spec, (list, tuple)) or "values" in spec:
        key, listed = (("budgets", spec) if isinstance(spec, (list, tuple))
                       else ("budgets.values", spec["values"]))
        if not (values := _numbers(key, listed)):
            raise ConfigError(f"{key} must list at least one budget, got []")
        if isinstance(spec, dict) and (ladder := sorted(set(spec) - {"values"})):
            raise ConfigError("budgets takes values or lo, hi, per_decade, not both; got "
                              + ", ".join(f"budgets.{k}" for k in ["values", *ladder]))
    elif {"lo", "hi", "per_decade"} <= set(spec):
        lo, hi = _number("budgets.lo", spec["lo"]), _number("budgets.hi", spec["hi"])
        if not 0 < lo < hi:
            raise ConfigError(f"budget ladder needs 0 < lo < hi, got {spec}")
        per_decade = _positive_int("budgets.per_decade", spec["per_decade"])
        n = int(round(np.log10(hi / lo) * per_decade)) + 1
        values = np.geomspace(lo, hi, max(n, 2)).tolist()
    else:
        raise ConfigError(
            f"budgets must be a list, {{values: [...]}}, or {{lo, hi, per_decade}}; got {spec!r}"
        )
    if any(b <= 0 for b in values):
        raise ConfigError("budgets must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("budgets must be strictly ascending, got "
                          + ", ".join(f"{b:g}" for b in values))
    return tuple(values)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig, parsing each value once.

    A YAML 1.1 string such as ``1e1`` is the number it spells; ``raw`` is kept as given.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration root must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {
        "model", "rule", "grid", "budgets", "engine", "windows", "bootstrap",
        "seed", "output",
    }
    if unknown:
        raise ConfigError(f"unknown configuration sections {sorted(unknown)}")
    for section in ("model", "budgets"):
        if raw.get(section) is None:
            raise ConfigError(f"missing configuration section {section!r}")

    model_spec = raw["model"]
    if isinstance(model_spec, dict):  # a YAML 1.1 string like 1e-1 is the number it spells
        model_spec = {k: _number(f"model.{k}", v) if k != "type" and isinstance(v, str) else v
                      for k, v in model_spec.items()}
    model = model_from_spec(model_spec)  # validates type and parameters

    rule_spec = _section(raw, "rule", {"scales", "alloc"})
    rule = None
    if model.sampled and rule_spec:  # the closed form needs no rule
        if "scales" not in rule_spec:
            raise ConfigError("rule section needs scales (or set rule to null for "
                              "a noisy-vs-itself sweep)")
        alloc = rule_spec.get("alloc", "uniform")
        rule = build_rule(_numbers("rule.scales", rule_spec["scales"]),
                          alloc if isinstance(alloc, str) else _numbers("rule.alloc", alloc))

    grid = {"mode": "auto", **_section(raw, "grid", {"mode", "span", "points_per_decade", "eps"})}
    mode = grid["mode"]
    if mode == "auto":
        grid["span"] = _pair("grid.span", grid.get("span", DEFAULT_SPAN))
        grid["points_per_decade"] = _positive_int(
            "grid.points_per_decade", grid.get("points_per_decade", DEFAULT_POINTS_PER_DECADE))
    elif mode == "explicit":
        eps = grid["eps"] = _numbers("grid.eps", grid.get("eps", []))
        if any(b <= a for a, b in zip([0.0, *eps], eps)):
            raise ConfigError("grid.eps must be positive and strictly ascending, got "
                              + ", ".join(f"{e:g}" for e in eps))
        if len(eps) < 3:
            raise ConfigError(f"grid.eps of an explicit grid must list at least 3 points, "
                              f"got {eps}")
    else:
        raise ConfigError(f"grid mode must be auto or explicit, got {mode!r}")
    if other := sorted(set(grid) - {"mode", *GRID_KEYS[mode]}):
        raise ConfigError(f"an {mode} grid takes {' and '.join(GRID_KEYS[mode])}, not "
                          + ", ".join(f"grid.{key}" for key in other))

    budgets = _expand_budgets(raw)

    engine = {"kind": "exact", **_section(raw, "engine", {"kind", "replicates"})}
    if engine["kind"] not in ("exact", "monte_carlo"):
        raise ConfigError(f"engine kind must be exact or monte_carlo, got {engine['kind']!r}")
    if "replicates" in engine:
        engine["replicates"] = _number("engine.replicates", engine["replicates"], integer=True)

    if rule is None and model.sampled:
        if engine["kind"] == "monte_carlo":
            raise ConfigError("the monte_carlo engine needs a rule section")
        if grid["mode"] != "explicit":
            raise ConfigError("a rule-less sweep needs an explicit grid "
                              "(the auto window is centered on the rule's boundary)")

    seed = None if raw.get("seed") is None else _number("seed", raw["seed"], integer=True)
    if engine["kind"] == "monte_carlo":
        if seed is None:
            raise ConfigError("a master seed is mandatory for the monte_carlo engine")
        if not model.sampled:
            raise ConfigError("monomial balance models have no sampler; use the exact engine")
        if any(b != int(b) for b in budgets):
            raise ConfigError("monte_carlo budgets must be integers")
        if engine.get("replicates", DEFAULT_REPLICATES) < 2:
            raise ConfigError("monte_carlo needs at least 2 replicates")

    windows = {name: _pair(f"windows.{name}", win)
               for name, win in _section(raw, "windows", {"variance", "bias"}).items()
               if win is not None}

    bootstrap = raw.get("bootstrap")
    if bootstrap is not None:
        bootstrap = {**DEFAULT_BOOTSTRAP,
                     **_section(raw, "bootstrap", {"statistics", "n_replicates", "level", "seed"})}
        if engine["kind"] != "monte_carlo":
            raise ConfigError("bootstrap requires the monte_carlo engine (raw counts)")
        if "statistics" not in bootstrap:
            raise ConfigError("bootstrap section needs a statistics list")
        if "seed" not in bootstrap:
            raise ConfigError("bootstrap section needs its own seed")
        if not isinstance(bootstrap["statistics"], list):
            raise ConfigError(f"bootstrap.statistics must be a list, "
                              f"got {bootstrap['statistics']!r}")
        for key in ("n_replicates", "seed"):
            bootstrap[key] = _number(f"bootstrap.{key}", bootstrap[key], integer=True)
        bootstrap["level"] = _number("bootstrap.level", bootstrap["level"])
        check_bootstrap(bootstrap["statistics"], bootstrap["n_replicates"], bootstrap["level"],
                        windows.get("variance"), windows.get("bias"))

    output = {"dir": ".", "prefix": "run", **_section(raw, "output", {"dir", "prefix"})}
    for key, value in output.items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"output.{key} must be a non-empty string, got {value!r}")
    if "/" in output["prefix"] or os.sep in output["prefix"]:
        raise ConfigError(f"output.prefix must be a file-name prefix, got {output['prefix']!r}; "
                          "directories belong in output.dir")

    return ExperimentConfig(
        _model=model, _rule=rule, grid=grid, budgets=budgets, engine=engine,
        windows=windows, bootstrap=bootstrap, seed=seed, output=output, raw=raw,
    )


def load_config(path, overrides: list[str] = ()) -> ExperimentConfig:
    """Load a YAML/JSON configuration file and apply --set overrides."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse configuration {path}: {err}") from err
    if raw is None:
        raise ConfigError(f"configuration {path} is empty")
    for assignment in overrides:
        _apply_override(raw, assignment)
    return parse_config(raw)
