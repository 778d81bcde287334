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
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .models import model_from_spec
from .resample import check_bootstrap
from .rules import RichardsonRule, build_rule

__all__ = ["ExperimentConfig", "load_config", "parse_config", "config_hash"]

DEFAULT_GRID = {"mode": "auto", "span": [0.1, 10.0], "points_per_decade": 40}
DEFAULT_REPLICATES = 100  # Monte Carlo replicates unless configured
DEFAULT_BOOTSTRAP = {"n_replicates": 1000, "level": 0.95}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical raw form."""

    model_spec: dict
    rule_spec: dict
    grid: dict
    budgets: tuple[float, ...]
    engine: dict
    windows: dict
    bootstrap: dict | None
    seed: int | None
    output: dict
    raw: dict = field(repr=False)

    def model(self):
        return model_from_spec(self.model_spec)

    def rule(self) -> RichardsonRule | None:
        """The rule, None for a rule-less sweep or a model that is not sampled."""
        return build_rule(**self.rule_spec) if self.rule_spec else None

    @property
    def is_monte_carlo(self) -> bool:
        return self.engine["kind"] == "monte_carlo"

    @property
    def replicates(self) -> int:
        return int(self.engine.get("replicates", DEFAULT_REPLICATES))

    def variance_window(self) -> tuple[float, float] | None:
        win = self.windows.get("variance")
        return (float(win[0]), float(win[1])) if win else None

    def bias_window(self) -> tuple[float, float] | None:
        win = self.windows.get("bias")
        return (float(win[0]), float(win[1])) if win else None

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
    if not math.isfinite(number) or (integer and number != int(number)):
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
    if isinstance(spec, (list, tuple)):
        values = _numbers("budgets", spec)
    elif "values" in spec:
        values = _numbers("budgets.values", spec["values"])
    elif {"lo", "hi", "per_decade"} <= set(spec):
        lo, hi = _number("budgets.lo", spec["lo"]), _number("budgets.hi", spec["hi"])
        if not 0 < lo < hi:
            raise ConfigError(f"budget ladder needs 0 < lo < hi, got {spec}")
        per_decade = _positive_int("budgets.per_decade", spec["per_decade"])
        n = int(round(np.log10(hi / lo) * per_decade)) + 1
        values = list(np.geomspace(lo, hi, max(n, 2)))
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
    """Validate a raw mapping into an ExperimentConfig."""
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
    model = model_from_spec(model_spec)  # validates type and parameters

    rule_spec = _section(raw, "rule", {"scales", "alloc"})
    if not model.sampled:  # the closed form needs no rule
        rule_spec = {}
    elif rule_spec:
        if "scales" not in rule_spec:
            raise ConfigError("rule section needs scales (or set rule to null for "
                              "a noisy-vs-itself sweep)")
        alloc = rule_spec.get("alloc", "uniform")
        build_rule(rule_spec["scales"], alloc)
        rule_spec = {"scales": list(rule_spec["scales"]), "alloc": alloc}

    grid = {**DEFAULT_GRID, **_section(raw, "grid", {"mode", "span", "points_per_decade", "eps"})}
    if grid["mode"] == "explicit":
        if not grid.get("eps"):
            raise ConfigError("explicit grid needs at least one eps value")
        eps = _numbers("grid.eps", grid["eps"])
        if any(b <= a for a, b in zip(eps, eps[1:])) or eps[0] <= 0:
            raise ConfigError("explicit grid must be positive and strictly ascending, got "
                              + ", ".join(f"{e:g}" for e in eps))
    elif grid["mode"] == "auto":
        _pair("grid.span", grid["span"])
        _positive_int("grid.points_per_decade", grid["points_per_decade"])
    else:
        raise ConfigError(f"grid mode must be auto or explicit, got {grid['mode']!r}")

    budgets = _expand_budgets(raw)

    engine = {"kind": "exact", **_section(raw, "engine", {"kind", "replicates"})}
    if engine["kind"] not in ("exact", "monte_carlo"):
        raise ConfigError(f"engine kind must be exact or monte_carlo, got {engine['kind']!r}")

    if not rule_spec and model.sampled:
        if engine["kind"] == "monte_carlo":
            raise ConfigError("the monte_carlo engine needs a rule section")
        if grid["mode"] != "explicit":
            raise ConfigError("a rule-less sweep needs an explicit grid "
                              "(the auto window is centered on the rule's boundary)")

    seed = raw.get("seed")
    if engine["kind"] == "monte_carlo":
        if seed is None:
            raise ConfigError("a master seed is mandatory for the monte_carlo engine")
        if not model.sampled:
            raise ConfigError("monomial balance models have no sampler; use the exact engine")
        if any(b != int(b) for b in budgets):
            raise ConfigError("monte_carlo budgets must be integers")
        replicates = engine.get("replicates", DEFAULT_REPLICATES)
        if _number("engine.replicates", replicates, integer=True) < 2:
            raise ConfigError("monte_carlo needs at least 2 replicates")

    windows = _section(raw, "windows", {"variance", "bias"})
    fit_windows = {name: _pair(f"windows.{name}", win) for name, win in windows.items()
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
                        fit_windows.get("variance"), fit_windows.get("bias"))

    return ExperimentConfig(
        model_spec=model_spec,
        rule_spec=rule_spec,
        grid=grid,
        budgets=budgets,
        engine=engine,
        windows=windows,
        bootstrap=bootstrap,
        seed=None if seed is None else _number("seed", seed, integer=True),
        output={"dir": ".", "prefix": "run", **_section(raw, "output", {"dir", "prefix"})},
        raw=raw,
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
