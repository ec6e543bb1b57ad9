"""The CI workflow must parse and must name only files that exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
NAMED_FILE = re.compile(r"\b(?:tests|benchmarks)/[\w/.-]*?\.(?:py|npz)\b")


def test_workflow_is_valid_yaml_with_jobs():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(workflow, dict)
    assert "tier1" in workflow["jobs"]


def test_reference_backend_job_runs_every_nn_suite():
    """Every ``nn`` suite runs under the forced reference backend, so the
    einsum and numpy-gate legs are exercised wherever ``rc_matmul`` is."""
    yaml = pytest.importorskip("yaml")
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["reference-backend"]
    assert job["env"]["REPRO_NN_BACKEND"] == "reference"
    commands = " ".join(step.get("run", "") for step in job["steps"])
    named = set(re.findall(r"\btests/test_nn_\w+\.py\b", commands))
    suites = {f"tests/{path.name}" for path in (ROOT / "tests").glob("test_nn_*.py")}
    assert sorted(suites - named) == []


def test_no_pytest_step_names_a_file_twice():
    """A file listed twice in one pytest step runs twice for nothing."""
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    repeated = []
    for job_name, job in jobs.items():
        for step in job["steps"]:
            command = step.get("run", "")
            if "pytest" not in command:
                continue
            named = NAMED_FILE.findall(command)
            repeated += [
                (job_name, step.get("name"), path)
                for path in sorted(set(named))
                if named.count(path) > 1
            ]
    assert repeated == []


def test_every_named_test_and_benchmark_file_exists():
    named = set(NAMED_FILE.findall(WORKFLOW.read_text()))
    assert named, "the workflow names no test or benchmark file"
    assert sorted(path for path in named if not (ROOT / path).is_file()) == []


def test_tier1_runs_every_example():
    """No pytest suite imports ``examples/``; one tier-1 step runs them all
    and stops at the first that exits nonzero."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    [command] = [run for run in runs if "examples/*.py" in run]
    assert "set -e" in command and "PYTHONPATH=src python" in command
    assert sorted((ROOT / "examples").glob("*.py"))


def test_tier1_collects_every_fidelity_bench():
    """No job runs ``benchmarks/bench_*.py``; one tier-1 step collects them,
    so a bench that no longer imports fails CI."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    assert "PYTHONPATH=src python -m pytest --collect-only -q benchmarks/bench_*.py" in runs
    assert sorted((ROOT / "benchmarks").glob("bench_*.py"))


def test_tier1_trains_and_serves_through_the_installed_package():
    """One tier-1 step trains a policy with the installed console script,
    away from the checkout, and serves the checkpoint it has just written."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    [command] = [run for run in runs if "repro-amoeba attack" in run]
    lines = [line.strip() for line in command.splitlines() if line.strip()]
    assert lines[0] == 'cd "$RUNNER_TEMP"'
    assert "PYTHONPATH" not in command
    attack = next(line for line in lines if line.startswith("repro-amoeba attack"))
    serve = next(line for line in lines if line.startswith("repro-amoeba serve"))
    checkpoint = re.search(r'--save-policy ("\$RUNNER_TEMP/[\w.]+\.npz")', attack).group(1)
    assert f"--policy {checkpoint}" in serve
    assert lines.index(attack) < lines.index(serve)
    install = [i for i, run in enumerate(runs) if "pip install ." in run]
    assert install and install[0] < runs.index(command)


def test_installed_kernel_step_fails_on_any_fallback_line():
    """The installed package's ``repro-amoeba backends`` report fails the
    step on any fallback: the GEMM, the hook summary or a single hook line."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    [command] = [step["run"] for step in steps if "repro-amoeba backends" in step.get("run", "")]
    assert 'if grep "fallback" backends.txt; then exit 1; fi' in command.splitlines()[-1]
