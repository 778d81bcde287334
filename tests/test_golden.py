"""Byte guard: ``sweep -> boundary -> fit`` reproduces the benchmark's golden files.

The digests in ``bench/golden.json`` are the benchmark's reference outputs;
this test checks them without running the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from zneboundary.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())["workloads"]


@pytest.mark.parametrize(
    "workload,prefix,config",
    [
        ("exact_ladder", "a", "exact_a.yaml"),
        ("exact_ladder", "b", "exact_b.yaml"),
        ("mc_sweep", "mc", "mc_sweep.yaml"),
    ],
    ids=["exact_a", "exact_b", "mc_sweep"],
)
def test_cli_artifacts_match_golden_digests(workload, prefix, config, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the configs write to the working directory
    for stage in ("sweep", "boundary", "fit"):
        assert main([stage, "--config", str(BENCH / "configs" / config)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob(f"{prefix}_*"))
    }
    assert digests == GOLDEN[workload][prefix]
