"""The CI workflow's shell blocks parse: the suite is the only syntax check they get."""

import re
import subprocess
from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def run_blocks():
    """``(job/step, script)`` of every ``run:`` step, each ``${{ ... }}`` a placeholder."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [(f"{job}/{step.get('name', index)}", re.sub(r"\$\{\{.*?\}\}", "x", step["run"]))
            for job, spec in jobs.items()
            for index, step in enumerate(spec["steps"]) if "run" in step]


def test_every_run_block_parses():
    blocks = run_blocks()
    assert blocks
    for name, script in blocks:
        result = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
        assert result.returncode == 0, f"{name}: {result.stderr}"
