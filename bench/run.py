"""zneboundary benchmark.

    python3 bench/run.py --workload exact_ladder|mc_sweep|mc_battery \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``); with ``--trace 1`` it alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones plus the tracing overhead.  Every iteration's artifacts are
digested and compared with ``bench/golden.json`` (where the seed allows)
and with each other, and every operation's science check is applied;
``fail_frac`` counts the operations that failed any of these.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with provenance, per-iteration samples and digests, goes to
``bench/out/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
THREADS_ENV_VAR = "ZNEBOUNDARY_THREADS"

SETUP_RUNS = 3   # fresh interpreters per run; setup_s is their median
MIN_ITERATIONS = 2

# A fresh interpreter imports the CLI and parses the workload's config; it
# prints the monotonic clock (system-wide on Linux) when done.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import zneboundary.cli\n"
    "from zneboundary.config import load_config\n"
    "load_config(sys.argv[2])\n"
    "print(repr(time.monotonic()))\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(config: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return samples


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "zneboundary").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, inherited_threads: str | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "ZNEBOUNDARY_THREADS": os.environ.get(THREADS_ENV_VAR),
        "ZNEBOUNDARY_THREADS_inherited": inherited_threads,
        # without bytecode caching every fresh interpreter recompiles the package
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


class Judge:
    """Counts operations and failures; compares digests with a reference.

    The reference is the golden digest set when it applies to this seed,
    otherwise the first iteration's digests, so every iteration of a run,
    traced or not, must reproduce the same bytes.
    """

    def __init__(self, golden: dict | None):
        self.reference = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.science: dict = {}  # latest science-check values per operation

    def judge(self, ops, label: str) -> None:
        digests = {op.name: op.digests for op in ops}
        if self.reference is None:
            self.reference = digests
        for op in ops:
            self.attempted += 1
            self.science[op.name] = op.science
            problems = list(op.problems)
            want = self.reference.get(op.name)
            if want != op.digests:
                changed = sorted(k for k in set(want or {}) | set(op.digests)
                                 if (want or {}).get(k) != op.digests.get(k))
                problems.append(f"digest mismatch: {', '.join(changed)}")
            if problems:
                self.failures.append(f"{label} {op.name}: {'; '.join(problems)}")


def run_untraced(workload, judge, deadline: float) -> list[float]:
    walls: list[float] = []
    while True:
        wall, ops = workload.iterate()
        judge.judge(ops, f"iteration {len(walls)}")
        walls.append(wall)
        if len(walls) >= MIN_ITERATIONS and time.monotonic() + max(walls) > deadline:
            return walls


def run_traced(workload, judge, deadline: float):
    from layertrace import Tracer, layer_metrics

    walls, traced_walls, layers, spans = [], [], [], []
    while True:
        wall, ops = workload.iterate()
        judge.judge(ops, f"untraced iteration {len(walls)}")
        walls.append(wall)
        with Tracer() as tracer:
            wall, ops = workload.iterate()
        judge.judge(ops, f"traced iteration {len(traced_walls)}")
        traced_walls.append(wall)
        layers.append(layer_metrics(tracer))
        spans = tracer.spans
        if time.monotonic() + max(walls) + max(traced_walls) > deadline:
            return walls, traced_walls, layers, spans


def per_layer_metrics(names_units: list, walls, traced_walls, layers, judge) -> dict:
    """Median of each layer time over traced iterations.

    Counts, byte counts and the ratios made of them must repeat exactly
    between traced iterations; that is checked as one more operation.
    """
    out = {}
    unsteady = []
    for name, unit in names_units:
        values = [layer.get(name, 0) for layer in layers]
        if unit != "s" and len(set(values)) > 1:
            unsteady.append(f"{name} {values}")
        out[name] = statistics.median(values)
    judge.attempted += 1
    if unsteady:
        judge.failures.append(f"counts did not repeat: {'; '.join(unsteady)}")
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(walls)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zneboundary" / "__init__.py").is_file():
        fail(f"no zneboundary sources under {SRC}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not GOLDEN.is_file():
        fail("BENCHMARK.json or bench/golden.json is missing")
    spec = json.loads(spec_path.read_text())

    inherited_threads = os.environ.pop(THREADS_ENV_VAR, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import zneboundary.cli  # noqa: F401  (the import every CLI command pays)

    if Path(zneboundary.cli.__file__).resolve().parent != SRC / "zneboundary":
        fail(f"imported zneboundary from {zneboundary.cli.__file__}, not {SRC}")
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    golden_all = json.loads(GOLDEN.read_text())
    golden = None
    if not cls.seeded or args.seed == DEFAULT_SEED:
        golden = golden_all["workloads"].get(cls.name)

    start = time.monotonic()
    deadline = start + args.seconds
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    judge = Judge(golden)
    record: dict = {"workload": cls.name, "trace": args.trace,
                    "seconds": args.seconds,
                    "provenance": provenance(args.seed, inherited_threads)}
    try:
        os.chdir(workdir)
        workload = cls(workdir, args.seed)
        if args.trace == 0:
            setup = measure_setup(cls.setup_config)
            walls = run_untraced(workload, judge, deadline)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": rss_kb / 1024.0,
            }
            units = END_TO_END_UNITS
            record["samples"] = {"setup_s": setup, "wall_s": walls}
        else:
            walls, traced_walls, layers, spans = run_traced(workload, judge, deadline)
            names_units = [(m["name"], m["unit"]) for m in spec["per_layer"]
                           if not m["name"].startswith("trace.")]
            metrics = per_layer_metrics(names_units, walls, traced_walls, layers, judge)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            record["samples"] = {"wall_s": walls, "trace.wall_s": traced_walls,
                                 "layers": layers}
    except Exception as err:  # report what broke, then fail the run
        import traceback

        traceback.print_exc()
        fail(f"workload {cls.name} could not run: {err}")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = judge.attempted, len(judge.failures)
    fail_frac = failed / attempted if attempted else 1.0
    record.update({
        "elapsed_s": time.monotonic() - start,
        "attempted": attempted, "failed": failed, "fail_frac": fail_frac,
        "failures": judge.failures, "digests_reference": judge.reference,
        "science": judge.science,
        "metrics": metrics,
    })
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{cls.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace == 1:
        # spans of the last traced iteration: [id, parent id, name, start, end]
        spans_path = result_path.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(spans) + "\n")

    for failure in judge.failures:
        print(f"FAIL {failure}")
    n = {k: len(v) for k, v in record["samples"].items() if k != "layers"}
    print(f"{cls.name} seed={args.seed} trace={args.trace} samples={n} "
          f"result={result_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {fail_frac:14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
