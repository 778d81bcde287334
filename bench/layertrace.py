"""Per-layer tracing of zneboundary, installed from outside the package.

The tracer wraps public functions on the module attributes their callers
look up (``pipeline.exact_delta``, ``cli.run_sweep``, ...), and methods on
the classes that define them, so a traced run follows whatever path the
program takes without a line of ``src/`` knowing about it.

Every wrapped call pushes a child-time accumulator on one stack.  On exit
its duration is added to its parent's accumulator, which gives each layer a
self time (own time minus the time of its traced children).  Stage-level calls also record
a span (id, parent span id, name, start, end); hot per-cell calls are only
aggregated, so memory stays bounded however many cells a workload draws.

The stack is not thread-safe: trace only with ``ZNEBOUNDARY_THREADS``
unset, as the benchmark does.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "zneboundary"

# (module, attribute, metric prefix, hot).  An attribute "Class.method"
# wraps the method on every class of the module that defines it.  Hot calls
# run once per grid cell or per model evaluation and get no spans.
TARGETS = [
    ("config", "load_config", "config.load_config", False),
    ("cli", "cmd_sweep", "cli.sweep", False),
    ("cli", "cmd_boundary", "cli.boundary", False),
    ("cli", "cmd_fit", "cli.fit", False),
    ("pipeline", "run_sweep", "pipeline.run_sweep", False),
    ("pipeline", "build_report", "pipeline.build_report", False),
    ("pipeline", "write_delta_csv", "pipeline.write_delta_csv", False),
    ("pipeline", "read_delta_csv", "pipeline.read_delta_csv", False),
    ("mse", "CountTable.write", "mse.counts_write", False),
    ("mse", "CountTable.read", "mse.counts_read", False),
    ("mse", "deltas_from_counts", "mse.deltas_from_counts", False),
    ("mse", "mc_delta", "mse.mc_delta", False),
    ("mse", "sample_count_table", "mse.sample_count_table", False),
    ("mse", "exact_delta", "mse.exact_delta", True),
    ("mse", "cell_stream", "mse.cell_stream", True),
    ("models", "*.mean", "models.mean", True),
    ("models", "*.sample_counts", "models.sample_counts", True),
    ("rules", "build_rule", "rules.build_rule", False),
    ("rules", "optimal_allocation", "rules.optimal_allocation", True),
    ("resample", "bootstrap_pipeline", "resample.bootstrap_pipeline", False),
    ("resample", "count_pipeline", "resample.count_pipeline", False),
    ("fits", "fit_loglog", "fits.fit_loglog", False),
    ("boundary", "auto_window", "boundary.auto_window", False),
    # find_crossing delegates to find_crossing_arrays, so wrapping the array
    # form counts every crossing exactly once, whichever entry point ran
    ("boundary", "find_crossing_arrays", "boundary.find_crossing", True),
]


@dataclass
class Tracer:
    """Collects spans, per-layer times and the counters of one traced run.

    ``layers`` maps a layer name to ``[calls, total_s, self_s]``; ``spans``
    holds ``[id, parent id, name, start, end]`` lists.
    """

    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _child_s: list = field(default_factory=list)   # one accumulator per open call
    _open_spans: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, func, name: str, hot: bool, after=None):
        child_s, open_spans, spans = self._child_s, self._open_spans, self.spans
        clock = time.perf_counter
        stats = self.layers.setdefault(name, [0, 0.0, 0.0])

        def close(start: float) -> float:
            end = clock()
            duration = end - start
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - child_s.pop()
            if child_s:
                child_s[-1] += duration
            return end

        if hot:
            def traced(*args, **kwargs):
                child_s.append(0.0)
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    close(start)
                if after is not None:
                    after(self, result, args)
                return result
        else:
            def traced(*args, **kwargs):
                span = [len(spans), open_spans[-1] if open_spans else None, name, 0.0, 0.0]
                spans.append(span)
                open_spans.append(span[0])
                child_s.append(0.0)
                span[3] = start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    span[4] = close(start)
                    open_spans.pop()
                if after is not None:
                    after(self, result, args)
                return result

        return functools.wraps(func)(traced)

    def install(self) -> None:
        """Wrap every target on each module attribute that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, name, hot in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            after = AFTER_HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                classes = ([getattr(home, cls_name)] if cls_name != "*" else
                           [c for c in vars(home).values()
                            if isinstance(c, type) and c.__module__ == home.__name__])
                for cls in classes:
                    raw = vars(cls).get(meth)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, hot, after))
                    else:
                        new = self._wrap(raw, name, hot, after)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, hot, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _after_sample_count_table(tracer, table, args):
    tracer.count("mse.cells", int(table.shots.size))


def _after_find_crossing(tracer, estimate, args):
    tracer.count("boundary.budgets", 1)
    tracer.count("boundary.crossed", int(estimate.crossed))


def _after_bootstrap(tracer, results, args):
    for res in results:
        tracer.count("resample.replicates", res.n_replicates)
        tracer.count("resample.useful", round((1.0 - res.missing_fraction) * res.n_replicates))


def _after_delta_csv(tracer, _, args):
    tracer.count("pipeline.write_delta_csv.bytes", os.path.getsize(args[0]))


def _after_counts_write(tracer, _, args):
    # args = (table, csv_path, header_path)
    tracer.count("mse.counts_write.bytes",
                 os.path.getsize(args[1]) + os.path.getsize(args[2]))


AFTER_HOOKS = {
    "mse.sample_count_table": _after_sample_count_table,
    "boundary.find_crossing": _after_find_crossing,
    "resample.bootstrap_pipeline": _after_bootstrap,
    "pipeline.write_delta_csv": _after_delta_csv,
    "mse.counts_write": _after_counts_write,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flat per-layer metrics: ``<layer>.calls``, ``.s``, ``.self_s`` and ratios."""
    out: dict[str, float] = {}
    for name, (calls, total, own) in tracer.layers.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = own
    c = tracer.counters
    out["mse.cells"] = c.get("mse.cells", 0)
    out["mse.counts_write.bytes"] = c.get("mse.counts_write.bytes", 0)
    out["pipeline.write_delta_csv.bytes"] = c.get("pipeline.write_delta_csv.bytes", 0)
    out["boundary.crossed_frac"] = (c["boundary.crossed"] / c["boundary.budgets"]
                                    if c.get("boundary.budgets") else 0.0)
    out["resample.useful_frac"] = (c["resample.useful"] / c["resample.replicates"]
                                   if c.get("resample.replicates") else 0.0)
    return out
