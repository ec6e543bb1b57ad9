"""Attribution guard: the traced benchmark still sees the hot-path layers.

``benchmarks/perf`` attributes wall time to layers by wrapping their public
methods (``benchmarks/perf/layers.py::wrap_table``).  An optimisation that
routes the hot path *around* one of those methods does not remove the layer's
time, it silently moves it into a parent span and zeroes the layer's metric.
This test runs the real traced command at smoke scale and requires the
layers the serving and training decision ticks are made of to keep
attributing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
RUN = REPO_ROOT / "benchmarks" / "perf" / "run.py"
# The harness refuses to measure a non-default program (see bootstrap.py); CI
# jobs that set these for the suite still get the default one measured here.
GUARDED = ("REPRO_NN_", "REPRO_TRANSPORT", "REPRO_TELEMETRY")

# The PPO update is attributed through ``log_prob_and_entropy`` /
# ``Critic.__call__``, ``Tensor.backward``, ``Adam.step`` / ``clip_grad_norm``
# and ``PPOUpdater.update``: an update routed around them reads 0 here, not
# faster.
PPO_UPDATE = ["core.ppo.forward_ms", "nn.backward_ms", "nn.optim_ms", "core.ppo.update_ms"]

EXPECTED = {
    "serve-saturated": [
        "core.encoder.step_ms",
        "core.actor.act_ms",
        "serve.session.apply_ms",
        "serve.session.observe_ms",
        "serve.flush_ms",
    ],
    "train-neural": [
        "core.encoder.step_ms",
        "core.env.step_ms",
        "core.actor.act_ms",
        "core.critic.value_ms",
        "censors.predict_ms",
        "features.extract_ms",
        "core.collect_ms",
        "censors.fit_s",
        *PPO_UPDATE,
    ],
    # ``features.extract`` wraps ``StatisticalFeatureExtractor.extract_many``:
    # a scoring path that bypasses it would read 0 here, not faster.
    "train-tree": [
        "features.extract_ms",
        "ml.predict_ms",
        "core.encoder.step_ms",
        # ``VectorFlowEnv.step`` / ``step_subset``: the tick of collection
        # and of evaluation alike.
        "core.env.step_ms",
        "core.actor.act_ms",
        "core.critic.value_ms",
        "core.collect_ms",
        "censors.fit_s",
        *PPO_UPDATE,
    ],
    # ``distrib.collect`` wraps ``ShardedRolloutEngine.collect`` by name: a
    # collect routed around that method reads 0 here, not faster.
    "train-sharded": [
        "distrib.startup_ms",
        "distrib.broadcast_ms",
        "distrib.collect_ms",
    ],
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_run_attributes_the_decision_tick(workload, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith(GUARDED)}
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "4", "--seconds", "1",
         "--trace", "1", "--scale", "smoke", "--out", str(tmp_path)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    if done.returncode == 2:
        pytest.skip("benchmark refused to run here: " + done.stderr.strip()[-300:])
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    silent = [name for name in EXPECTED[workload] if not line["metrics"][name]["value"] > 0]
    assert not silent, f"layers the traced {workload} run no longer sees: {silent}"
