"""Which public methods the traced run wraps, and the per-layer metrics.

The span families are named after the repository's modules.  Calls the
harness makes itself (``prepare_experiment_data``, ``censor.fit``,
``Amoeba.train``, ``run_workload`` ...) are recorded with explicit
``recorder.span(...)`` blocks in ``workloads.py``; this table covers the
layers *below* those entry points.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Sequence

import numpy as np

from spans import FamilyTotals, Wrap

# (metric name, unit, better) of every per-layer metric, in report order.
# Times are self time per pass unless the name says busy; a layer a
# workload does not exercise reports 0.
PER_LAYER = [
    ("flows.synth_s", "s", "lower"),
    ("flows.workload_gen_s", "s", "lower"),
    ("censors.fit_s", "s", "lower"),
    ("core.agent.init_s", "s", "lower"),
    ("serve.checkpoint_load_s", "s", "lower"),
    ("nn.kernel_load_s", "s", "lower"),
    ("censors.predict_ms", "ms", "lower"),
    ("censors.flows_scored", "count", "lower"),
    ("features.extract_ms", "ms", "lower"),
    ("ml.predict_ms", "ms", "lower"),
    ("core.env.step_ms", "ms", "lower"),
    ("core.encoder.step_ms", "ms", "lower"),
    ("core.actor.act_ms", "ms", "lower"),
    ("core.critic.value_ms", "ms", "lower"),
    ("core.collect_ms", "ms", "lower"),
    ("core.collect_busy_ms", "ms", "lower"),
    ("core.rollout.gae_ms", "ms", "lower"),
    ("core.rollout.minibatch_ms", "ms", "lower"),
    ("core.ppo.update_ms", "ms", "lower"),
    ("core.ppo.forward_ms", "ms", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("nn.optim_ms", "ms", "lower"),
    ("nn.gemm_us.rollout", "us", "lower"),
    ("nn.gemm_us.minibatch", "us", "lower"),
    ("core.agent.iter_ms_p90", "ms", "lower"),
    ("core.agent.other_ms", "ms", "lower"),
    ("core.agent.attack_other_ms", "ms", "lower"),
    ("core.agent.attack_steps_per_s", "1/s", "higher"),
    ("distrib.startup_ms", "ms", "lower"),
    ("distrib.broadcast_ms", "ms", "lower"),
    ("distrib.broadcast_bytes", "count", "lower"),
    ("distrib.collect_ms", "ms", "lower"),
    ("distrib.close_ms", "ms", "lower"),
    ("distrib.overhead_share", "share", "lower"),
    ("distrib.frame_codec_us", "us", "lower"),
    ("distrib.worker_restarts", "count", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.poll_ms", "ms", "lower"),
    ("serve.scheduler_ms", "ms", "lower"),
    ("serve.flush_ms", "ms", "lower"),
    ("serve.flushes", "count", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.session.apply_ms", "ms", "lower"),
    ("serve.session.observe_ms", "ms", "lower"),
    ("serve.session.lifecycle_ms", "ms", "lower"),
    ("serve.decisions_per_packet", "ratio", "lower"),
    ("serve.latency_ms_p99", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p99", "ms", "lower"),
    ("serve.session_wait_ms_p50", "ms", "lower"),
    ("serve.over_limit_share", "share", "lower"),
    ("serve.busy_share", "share", "lower"),
    ("serve.gen_late_ms_p99", "ms", "lower"),
    ("serve.other_ms", "ms", "lower"),
    ("trace_overhead_share", "share", "lower"),
]

# Families recorded by explicit spans around set-up calls -> metric (seconds).
SETUP_FAMILIES = {
    "flows.synth": "flows.synth_s",
    "flows.workload_gen": "flows.workload_gen_s",
    "censors.fit": "censors.fit_s",
    "core.agent.init": "core.agent.init_s",
    "serve.checkpoint_load": "serve.checkpoint_load_s",
}

# Families whose self time per pass is reported as ``<family>_ms``.
PASS_FAMILIES = [
    "censors.predict",
    "features.extract",
    "ml.predict",
    "core.env.step",
    "core.encoder.step",
    "core.actor.act",
    "core.critic.value",
    "core.collect",
    "core.rollout.gae",
    "core.rollout.minibatch",
    "core.ppo.update",
    "core.ppo.forward",
    "nn.backward",
    "nn.optim",
    "distrib.startup",
    "distrib.broadcast",
    "distrib.collect",
    "distrib.close",
    "serve.submit",
    "serve.poll",
    "serve.scheduler",
    "serve.flush",
    "serve.session.apply",
    "serve.session.observe",
    "serve.session.lifecycle",
]

# Per-pass values the serve workloads compute themselves -> ``serve.<key>``.
SERVE_INFO = [
    "decisions_per_packet",
    "latency_ms_p99",
    "queue_wait_ms_p50",
    "queue_wait_ms_p99",
    "session_wait_ms_p50",
    "over_limit_share",
    "busy_share",
    "gen_late_ms_p99",
]

# Root spans the harness opens around each timed call -> residual metric.
ROOT_FAMILIES = {
    "core.agent.train": "core.agent.other_ms",
    "core.agent.attack": "core.agent.attack_other_ms",
    "serve.run": "serve.other_ms",
}


def wrap_table() -> List[Wrap]:
    """The class-level wrappers of a traced run (imports the program lazily)."""
    from repro import nn
    from repro.censors.base import CensorClassifier
    from repro.core.actor_critic import Critic, GaussianActor
    from repro.core.ppo import PPOUpdater
    from repro.core.rollout import RolloutBuffer
    from repro.core.state_encoder import StateEncoder
    from repro.core.vec_env import VectorFlowEnv
    from repro.distrib.shard import ShardRunner
    from repro.distrib.sharded import ShardedRolloutEngine
    from repro.features.representation import SequenceRepresentation
    from repro.features.statistical import StatisticalFeatureExtractor
    from repro.ml.decision_tree import DecisionTreeClassifier
    from repro.serve.scheduler import ContinuousBatchScheduler
    from repro.serve.server import PolicyServer
    from repro.serve.session import FlowSession

    return [
        Wrap(CensorClassifier, "predict_scores", "censors.predict", lambda a, k, scores: len(scores)),
        Wrap(StatisticalFeatureExtractor, "extract_many", "features.extract"),
        # transform_flat delegates to transform_many, so one wrapper sees both.
        Wrap(SequenceRepresentation, "transform_many", "features.extract"),
        Wrap(DecisionTreeClassifier, "predict_proba", "ml.predict"),
        Wrap(VectorFlowEnv, "step", "core.env.step"),
        Wrap(VectorFlowEnv, "step_subset", "core.env.step"),
        Wrap(StateEncoder, "step_pairs", "core.encoder.step"),
        Wrap(GaussianActor, "act_batch", "core.actor.act"),
        Wrap(Critic, "value_batch", "core.critic.value"),
        Wrap(ShardRunner, "collect", "core.collect"),
        Wrap(RolloutBuffer, "finalize", "core.rollout.gae"),
        Wrap(RolloutBuffer, "minibatches", "core.rollout.minibatch"),
        Wrap(PPOUpdater, "update", "core.ppo.update"),
        Wrap(GaussianActor, "log_prob_and_entropy", "core.ppo.forward"),
        # PPO calls ``critic(states)``; value_batch calls ``forward`` directly,
        # so wrapping ``__call__`` separates the training forward from it.
        Wrap(Critic, "__call__", "core.ppo.forward"),
        Wrap(nn.Tensor, "backward", "nn.backward"),
        Wrap(nn.Adam, "step", "nn.optim"),
        Wrap(nn, "clip_grad_norm", "nn.optim"),
        Wrap(ShardedRolloutEngine, "for_agent", "distrib.startup"),
        Wrap(
            ShardedRolloutEngine,
            "broadcast",
            "distrib.broadcast",
            lambda a, k, r: len(a[1]) * a[0].n_workers,
        ),
        Wrap(ShardedRolloutEngine, "collect", "distrib.collect"),
        Wrap(ShardedRolloutEngine, "close", "distrib.close", lambda a, k, r: a[0].restarts_performed),
        Wrap(PolicyServer, "submit", "serve.submit"),
        Wrap(PolicyServer, "poll", "serve.poll"),
        Wrap(ContinuousBatchScheduler, "submit", "serve.scheduler"),
        Wrap(ContinuousBatchScheduler, "ready", "serve.scheduler"),
        Wrap(ContinuousBatchScheduler, "take_batch", "serve.scheduler"),
        Wrap(PolicyServer, "flush", "serve.flush", lambda a, k, decisions: len(decisions)),
        Wrap(FlowSession, "apply_action", "serve.session.apply"),
        Wrap(FlowSession, "current_observation", "serve.session.observe"),
        Wrap(FlowSession, "state_vector", "serve.session.observe"),
        Wrap(PolicyServer, "open_session", "serve.session.lifecycle"),
        Wrap(PolicyServer, "close_session", "serve.session.lifecycle"),
    ]


def family_metrics(
    totals: Dict[str, Dict[str, FamilyTotals]], setup_groups: Sequence[str], pass_groups: Sequence[str]
) -> Dict[str, float]:
    """Per-layer metrics read off the recorder: medians over set-ups / passes."""

    def per_group(groups, family, field) -> List[float]:
        return [getattr(totals[g][family], field) if family in totals[g] else 0.0 for g in groups]

    def median(values: List[float]) -> float:
        return float(np.median(values))

    metrics: Dict[str, float] = {}
    for family, name in SETUP_FAMILIES.items():
        metrics[name] = median(per_group(setup_groups, family, "busy_ms")) / 1000.0
    for family in PASS_FAMILIES:
        metrics[family + "_ms"] = median(per_group(pass_groups, family, "self_ms"))
    for family, name in ROOT_FAMILIES.items():
        metrics[name] = median(per_group(pass_groups, family, "self_ms"))
    metrics["core.collect_busy_ms"] = median(per_group(pass_groups, "core.collect", "busy_ms"))
    metrics["censors.flows_scored"] = median(per_group(pass_groups, "censors.predict", "work"))
    metrics["distrib.broadcast_bytes"] = median(per_group(pass_groups, "distrib.broadcast", "work"))
    metrics["distrib.worker_restarts"] = float(
        sum(per_group(pass_groups, "distrib.close", "work"))
    )
    flushes = median(per_group(pass_groups, "serve.flush", "calls"))
    served = median(per_group(pass_groups, "serve.flush", "work"))
    metrics["serve.flushes"] = flushes
    metrics["serve.batch_size_mean"] = served / flushes if flushes else 0.0
    return metrics


def gemm_probe_us(rows: int, inner: int, cols: int, row_consistent: bool) -> float:
    """Median µs per ``nn.rc_matmul`` call on one shape, outside the passes."""
    from repro import nn

    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, inner))
    b = rng.standard_normal((inner, cols))
    calls = 2000

    def batch() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            nn.rc_matmul(a, b)
        return (time.perf_counter() - start) / calls * 1e6

    with nn.row_consistent_matmul() if row_consistent else contextlib.nullcontext():
        return float(np.median([batch() for _ in range(5)]))


def frame_codec_probe_us(message: tuple) -> float:
    """Median µs to encode + decode one real worker reply frame."""
    from repro.distrib.transport import decode_message, encode_message

    samples = []
    for _ in range(50):
        start = time.perf_counter()
        decode_message(encode_message(message))
        samples.append((time.perf_counter() - start) * 1e6)
    return float(np.median(samples))
