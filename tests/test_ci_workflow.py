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


def test_no_compiler_job_runs_every_nn_suite():
    """Every ``nn`` suite runs where no compiler builds the kernel pack, so
    the einsum and numpy-body fallback that ships then is exercised
    wherever ``rc_matmul`` and the hooks are."""
    yaml = pytest.importorskip("yaml")
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["no-compiler"]
    assert job["env"] == {"CC": "false"}
    [suites_step] = [step for step in job["steps"] if "python -m pytest" in step.get("run", "")]
    assert suites_step["env"] == {"REPRO_NN_KERNEL_CACHE": "${{ runner.temp }}/kernels"}
    commands = " ".join(step.get("run", "") for step in job["steps"])
    named = set(re.findall(r"\btests/test_nn_\w+\.py\b", commands))
    suites = {f"tests/{path.name}" for path in (ROOT / "tests").glob("test_nn_*.py")}
    assert sorted(suites - named) == []


def test_job_env_reads_only_contexts_available_there():
    """A job-level ``env:`` may read only the github, needs, strategy,
    matrix, vars, secrets and inputs contexts; any other (``runner``,
    ``env``, ``steps``, ``job``) makes GitHub reject the whole workflow."""
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    allowed = {"github", "needs", "strategy", "matrix", "vars", "secrets", "inputs"}
    read = {
        (job_name, context)
        for job_name, job in jobs.items()
        for value in (job.get("env") or {}).values()
        for expression in re.findall(r"\$\{\{(.*?)\}\}", str(value))
        for context in re.findall(r"\b([a-z_]+)\.", expression)
    }
    assert sorted((job, context) for job, context in read if context not in allowed) == []


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
    """No job runs ``benchmarks/bench_*.py`` as a set; one tier-1 step
    collects them, so a bench that no longer imports fails CI."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    assert "PYTHONPATH=src python -m pytest --collect-only -q benchmarks/bench_*.py" in runs
    assert sorted((ROOT / "benchmarks").glob("bench_*.py"))


def test_tier1_runs_the_bench_that_builds_the_engine():
    """``bench_deployment_latency.py`` passes and builds ``VectorFlowEnv``
    directly, so tier-1 runs it: collecting alone would not catch a wrong
    call into the engine."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    command = "PYTHONPATH=src python -m pytest benchmarks/bench_deployment_latency.py --benchmark-disable -q"
    assert command in runs
    [install] = [run for run in runs if run.startswith("python -m pip install numpy")]
    assert "pytest-benchmark" in install.split()
    assert runs.index(install) < runs.index(command)
    assert "VectorFlowEnv(" in (ROOT / "benchmarks" / "bench_deployment_latency.py").read_text()


def test_tier1_trains_and_serves_through_the_installed_package():
    """One tier-1 step trains a policy with the installed console script,
    away from the checkout, and serves the checkpoint it has just written:
    once plainly, and once with a deadline every decision misses, which
    demotes each session and embeds its payload into the profiles the
    attack saved."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    [command] = [run for run in runs if "repro-amoeba attack" in run]
    lines = [line.strip() for line in command.splitlines() if line.strip()]
    assert lines[0] == 'cd "$RUNNER_TEMP"'
    assert "PYTHONPATH" not in command
    attack = next(line for line in lines if line.startswith("repro-amoeba attack"))
    serves = [line for line in lines if line.startswith("repro-amoeba serve")]
    assert len(serves) == 2
    checkpoint = re.search(r'--save-policy ("\$RUNNER_TEMP/[\w.]+\.npz")', attack).group(1)
    profiles = re.search(r'--save-adversarial ("\$RUNNER_TEMP/[\w.]+\.jsonl")', attack).group(1)
    for serve in serves:
        assert f"--policy {checkpoint}" in serve
        assert lines.index(attack) < lines.index(serve)
    [fallback] = [serve for serve in serves if "--profiles" in serve]
    assert f"--profiles {profiles}" in fallback
    assert re.search(r"--deadline-ms 0(\s|$)", fallback)
    install = [i for i, run in enumerate(runs) if "pip install ." in run]
    assert install and install[0] < runs.index(command)


def test_installed_kernel_step_fails_on_any_fallback_line():
    """The installed package's ``repro-amoeba backends`` report fails the
    step on any fallback: the GEMM, the hook summary or a single hook line."""
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    [command] = [step["run"] for step in steps if "repro-amoeba backends" in step.get("run", "")]
    assert 'if grep "fallback" backends.txt; then exit 1; fi' in command.splitlines()[-1]
