"""The CI workflow must parse and must name only files that exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def test_workflow_is_valid_yaml_with_jobs():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(workflow, dict)
    assert "tier1" in workflow["jobs"]


def test_every_named_test_and_benchmark_file_exists():
    named = set(re.findall(r"\b(?:tests|benchmarks)/[\w/.-]*?\.py\b", WORKFLOW.read_text()))
    assert named, "the workflow names no test or benchmark file"
    assert sorted(path for path in named if not (ROOT / path).is_file()) == []
