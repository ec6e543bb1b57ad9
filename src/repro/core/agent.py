"""The Amoeba agent: training facade tying together environment, encoder,
actor-critic and PPO (Figure 3 / Algorithm 1 of the paper).

Typical usage::

    censor = DeepFingerprintingClassifier(representation).fit(clf_train.flows)
    agent = Amoeba(censor, normalizer, AmoebaConfig.for_tor(), rng=0)
    agent.train(attack_train.censored_flows, total_timesteps=20_000)
    report = agent.evaluate(test.censored_flows)
    print(report.attack_success_rate, report.data_overhead, report.time_overhead)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..censors.base import CensorClassifier
from ..features.representation import FlowNormalizer
from ..flows.flow import Flow, FlowLabel
from ..nn.serialization import (
    save_state_dict,
    state_dict_to_bytes,
)
from ..utils.logging import TrainingLogger
from ..utils.rng import collection_seed_tree, ensure_rng, spawn_rngs
from .actor_critic import Critic, GaussianActor
from .config import AmoebaConfig
from .env import EpisodeSummary
from .ppo import PPOUpdater
from .rollout import RolloutBuffer
from .state_encoder import StateEncoder, pretrain_state_encoder
from .vec_env import BatchedEpisodeEncoder, VectorFlowEnv

__all__ = ["Amoeba", "AdversarialResult", "EvaluationReport"]


@dataclass(frozen=True)
class AdversarialResult:
    """Outcome of attacking one flow."""

    original_flow: Flow
    adversarial_flow: Flow
    success: bool
    final_score: float
    data_overhead: float
    time_overhead: float
    action_counts: Dict[str, int]
    n_steps: int

    @classmethod
    def from_summary(cls, summary: EpisodeSummary) -> "AdversarialResult":
        return cls(
            original_flow=summary.original_flow,
            adversarial_flow=summary.adversarial_flow,
            success=summary.success,
            final_score=summary.final_score,
            data_overhead=summary.data_overhead,
            time_overhead=summary.time_overhead,
            action_counts=summary.action_counts(),
            n_steps=summary.n_steps,
        )


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate attack metrics over a set of flows (Table 1 columns)."""

    attack_success_rate: float
    data_overhead: float
    time_overhead: float
    n_flows: int
    results: Tuple[AdversarialResult, ...] = field(repr=False, default=())

    def as_dict(self) -> Dict[str, float]:
        return {
            "asr": self.attack_success_rate,
            "data_overhead": self.data_overhead,
            "time_overhead": self.time_overhead,
            "n_flows": float(self.n_flows),
        }


class Amoeba:
    """Black-box adversarial reinforcement-learning agent.

    Parameters
    ----------
    censor:
        The trained censoring classifier being attacked (only its decisions
        are observed — the black-box threat model of Section 2).
    normalizer:
        Size/delay normalisation shared with the censor's representation.
    config:
        :class:`AmoebaConfig`; defaults to :meth:`AmoebaConfig.for_tor`.
    state_encoder:
        Optional pre-trained :class:`StateEncoder`; when omitted one is
        pre-trained on synthetic flows (Algorithm 2) at construction time.
    """

    def __init__(
        self,
        censor: CensorClassifier,
        normalizer: FlowNormalizer,
        config: Optional[AmoebaConfig] = None,
        rng=None,
        state_encoder: Optional[StateEncoder] = None,
        encoder_pretrain_kwargs: Optional[dict] = None,
    ) -> None:
        self.censor = censor
        self.normalizer = normalizer
        self.config = config or AmoebaConfig.for_tor()
        self._rng = ensure_rng(rng)

        if state_encoder is None:
            pretrain_kwargs = dict(
                hidden_size=self.config.encoder_hidden,
                num_layers=self.config.encoder_layers,
                n_flows=120,
                max_length=40,
                epochs=2,
                rng=self._rng,
            )
            pretrain_kwargs.update(encoder_pretrain_kwargs or {})
            state_encoder, _, _ = pretrain_state_encoder(**pretrain_kwargs)
        self.state_encoder = state_encoder
        if self.state_encoder.hidden_size != self.config.encoder_hidden:
            # Keep the configuration honest when a custom encoder is provided.
            self.config = self.config.with_overrides(encoder_hidden=self.state_encoder.hidden_size)

        # Evaluation owns stream 3 (its emulator draws, and each sampled
        # attack_many call's per-flow noise children) so `evaluate()` /
        # mid-training eval never advances the main RNG: training outcomes
        # are invariant to the evaluation cadence.
        actor_rng, critic_rng, ppo_rng, eval_rng = spawn_rngs(self._rng, 4)
        self._eval_rng = eval_rng
        self.actor = GaussianActor(
            state_dim=self.config.state_dim,
            hidden_dims=self.config.actor_hidden,
            initial_log_std=self.config.initial_log_std,
            initial_action_bias=self.config.initial_action_bias,
            rng=actor_rng,
        )
        self.critic = Critic(self.config.state_dim, hidden_dims=self.config.critic_hidden, rng=critic_rng)
        self.updater = PPOUpdater(self.actor, self.critic, self.config, rng=ppo_rng)

        self.training_log = TrainingLogger("amoeba")
        self._episode_successes: List[bool] = []
        self._timesteps_trained = 0

    # ------------------------------------------------------------------ #
    # Training (Algorithm 1)
    # ------------------------------------------------------------------ #
    def _filter_censored(self, flows: Sequence[Flow]) -> List[Flow]:
        censored = [flow for flow in flows if flow.label == FlowLabel.CENSORED]
        if not censored:
            raise ValueError("no censored flows provided to train the attack on")
        return censored

    def train(
        self,
        flows: Sequence[Flow],
        total_timesteps: int = 10_000,
        eval_flows: Optional[Sequence[Flow]] = None,
        eval_every: Optional[int] = None,
        eval_size: int = 20,
        callback: Optional[Callable[[Dict], None]] = None,
        workers: Optional[int] = None,
    ) -> TrainingLogger:
        """Train the policy against the censor on the given censored flows.

        ``eval_flows``/``eval_every`` enable periodic held-out evaluation so
        convergence curves (Figures 7 and 9) can be reproduced: every
        ``eval_every``-th iteration evaluates the first ``eval_size`` of
        ``eval_flows``.  Each record in the training log also stores the
        censor query count at that point.

        Collection is batched: all ``n_envs`` environments advance per tick
        with one actor/critic forward and one incremental encoder step, and
        the censor scores the rollout's prefixes once all its ticks are
        stepped, a block of flows per call (the transition never depends
        on the score, and GAE reads rewards only then).  Each distinct
        input is scored once — an episode's prefixes past the censor's
        ``packet_window``, and its finished flow, share one score — while
        every step still counts as a query.

        ``workers`` shards collection across that many worker processes
        (``n_envs`` must divide evenly): each worker hosts its contiguous
        slice of the environment slots plus a censor replica, is refreshed
        each iteration with the current actor/critic/encoder checkpoint,
        and returns its rollout segment for a deterministic merge; PPO
        updates stay in this process.  A crashed worker is restarted by
        command-log replay without corrupting the rollout.  Workers are
        forks of this process (see :mod:`repro.distrib.transport`).

        All collection modes build their environment and exploration-noise
        generators from the same per-slot seed tree
        (:func:`repro.utils.rng.collection_seed_tree`) and run policy /
        encoder inference on the row-consistent :mod:`repro.nn.backend` kernel, so
        their trajectories are bit-identical for censors whose scoring is
        batch-size invariant (trees, SVM) and match up to the thresholded
        censor score for neural censors, whose BLAS forwards may differ in
        the last ULP across batch shapes (per step, per tick, per rollout
        block, per shard: the same contract covers them all).
        """
        if total_timesteps < 1:
            raise ValueError("total_timesteps must be >= 1")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for in-process collection)")
        # Refused here, before the first collect spends a censor query.
        eval_sample: List[Flow] = []
        if eval_every is not None:
            if eval_every < 1:
                raise ValueError(f"eval_every must be >= 1 (or None), got {eval_every}")
            if eval_size < 1:
                raise ValueError(f"eval_size must be >= 1, got {eval_size}")
            eval_sample = list(eval_flows or ())[:eval_size]
            if not eval_sample:
                raise ValueError("eval_every is set but there are no eval_flows to evaluate")
        flows = self._filter_censored(flows)
        config = self.config
        buffer = RolloutBuffer(
            config.rollout_length, config.n_envs, config.state_dim, self.actor.action_dim
        )

        # One (env stream, noise stream) pair per environment slot, consumed
        # identically by every collection mode (see the seed-tree layout in
        # repro.utils.rng).
        seed_tree = collection_seed_tree(self._rng, config.n_envs)

        # Imported lazily: repro.distrib imports repro.core at module scope,
        # so top-level imports here would be circular.
        engine = None
        if workers is not None:
            from ..distrib.sharded import ShardedRolloutEngine

            engine = ShardedRolloutEngine.for_agent(self, flows, seed_tree, workers)
        else:
            # In-process collection is one inline shard hosting all slots —
            # the same collection kernel the workers run, so there is
            # exactly one tick implementation to keep correct.
            from ..distrib.shard import ShardRunner

            runner = ShardRunner(
                self.actor,
                self.critic,
                self.state_encoder,
                self.censor,
                self.normalizer,
                config,
                flows,
                seed_tree,
            )

        steps_done = 0
        iteration_steps = config.rollout_length * config.n_envs
        try:
            while steps_done < total_timesteps:
                if engine is None:
                    result = runner.collect(config.rollout_length)
                else:
                    engine.broadcast(state_dict_to_bytes(self._policy_state()))
                    result = engine.collect(config.rollout_length)
                    # Worker censor replicas counted these queries; fold
                    # them into this process's censor (the inline runner
                    # queries self.censor directly, so nothing to fold).
                    self.censor.record_external_queries(result.query_delta)
                buffer.load(
                    result.states,
                    result.actions,
                    result.log_probs,
                    result.rewards,
                    result.values,
                    result.dones,
                )
                for _tick, _env_index, summary in result.summaries:
                    self._episode_successes.append(summary.success)
                steps_done += iteration_steps
                # Bootstrap values computed shard-side with the
                # collection-time critic — identical to a driver-side
                # forward, since no update ran in between.
                buffer.finalize(result.final_values, config.gamma, config.gae_lambda)
                stats = self.updater.update(buffer)
                self._timesteps_trained += iteration_steps

                window = self._episode_successes[-50:]
                train_asr = float(np.mean(window)) if window else 0.0
                record = {
                    "timesteps": float(self._timesteps_trained),
                    "queries": float(self.censor.query_count),
                    "train_asr": train_asr,
                    "mean_reward": float(buffer.rewards.mean()),
                    "policy_loss": stats.policy_loss,
                    "value_loss": stats.value_loss,
                    "entropy": stats.entropy,
                }
                if eval_sample and (self._timesteps_trained // iteration_steps) % eval_every == 0:
                    record["test_asr"] = self.evaluate(eval_sample).attack_success_rate
                self.training_log.log(**record)
                if callback is not None:
                    callback(record)
        finally:
            if engine is not None:
                engine.close()

        return self.training_log

    # ------------------------------------------------------------------ #
    # Attack / evaluation
    # ------------------------------------------------------------------ #
    def attack(self, flow: Flow, deterministic: bool = True) -> AdversarialResult:
        """Generate the adversarial version of a single flow."""
        return self.attack_many([flow], deterministic=deterministic)[0]

    def attack_many(
        self, flows: Sequence[Flow], deterministic: bool = True
    ) -> List[AdversarialResult]:
        """Attack every flow in one lockstep batch through the vectorized engine.

        Episodes finish at different times; finished environments drop out of
        the batch while the survivors keep sharing one actor forward, one
        incremental encoder step and one emulator tick
        (:meth:`VectorFlowEnv.step_subset`).  The transition never depends on
        the censor, so every tick is stepped first and the censor is
        consulted once, after the last (:meth:`VectorFlowEnv.settle`), a
        block of finished flows per ``predict_scores`` call.  Each row is
        independent of the others: with the default deterministic policy a
        flow's adversarial flow is the one attacking it alone gives (for a
        neural censor the final score's last bits may vary with the scoring
        batch shape), and a sampled attack draws flow ``i``'s noise from
        child ``i`` of one :func:`spawn_rngs` call on the eval stream, so it
        depends on the stream's position and on ``i`` only.
        """
        flows = list(flows)
        if not flows:
            return []
        noise_rngs = None if deterministic else spawn_rngs(self._eval_rng, len(flows))
        # Evaluation masks every step (no query on intermediate prefixes; the
        # summary still scores the finished flow), and its step budget
        # delivers the whole payload whatever the training cap (constraint
        # (1)).  A flow of n packets takes at most n·(1+k) steps, so the
        # longest flow's budget ends no flow earlier than its own would.  The
        # flows are given and step_subset never restarts a slot, so no slot
        # draws from the eval stream: evaluating never moves training.
        config = self.config
        budget = max(flow.n_packets for flow in flows) * (1 + config.max_truncations_per_packet)
        eval_config = config.with_overrides(
            reward_mask_rate=1.0, max_episode_steps=max(config.max_episode_steps, budget)
        )
        vec_env = VectorFlowEnv(
            self.censor, self.normalizer, eval_config, flows, [self._eval_rng] * len(flows)
        )
        tracker = BatchedEpisodeEncoder(self.state_encoder, len(flows))
        tracker.reset_all(vec_env.reset(flows))

        action_dim = self.actor.action_dim
        ticks = []
        active = list(range(len(flows)))
        while active:
            states = tracker.states(active)
            noise = None
            if noise_rngs is not None:
                noise = np.stack([noise_rngs[index].normal(size=action_dim) for index in active])
            actions, _ = self.actor.act_batch(states, noise=noise)
            tick = vec_env.step_subset(active, actions)
            ticks.append(tick)
            tracker.step(tick.pairs, tick.dones, indices=active)
            active = [index for index, done in zip(active, tick.dones.tolist()) if not done]
        _, finished = vec_env.settle(ticks)
        results: List[Optional[AdversarialResult]] = [None] * len(flows)
        for at, row, summary in finished:
            results[ticks[at].rows[row]] = AdversarialResult.from_summary(summary)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def evaluate(self, flows: Sequence[Flow], deterministic: bool = True) -> EvaluationReport:
        """Attack every flow and aggregate ASR / data overhead / time overhead."""
        flows = list(flows)
        if not flows:
            raise ValueError("cannot evaluate on an empty flow list")
        results = self.attack_many(flows, deterministic=deterministic)
        return EvaluationReport(
            attack_success_rate=float(np.mean([r.success for r in results])),
            data_overhead=float(np.mean([r.data_overhead for r in results])),
            time_overhead=float(np.mean([r.time_overhead for r in results])),
            n_flows=len(results),
            results=tuple(results),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def _policy_state(self) -> Dict[str, np.ndarray]:
        """Combined actor/critic/encoder state dict with name prefixes.

        This is both the on-disk checkpoint layout (:meth:`save_policy`) and
        the broadcast payload refreshing sharded rollout workers each
        iteration (after :func:`repro.nn.state_dict_to_bytes`).
        """
        state = {}
        for prefix, module in (
            ("actor", self.actor),
            ("critic", self.critic),
            ("encoder", self.state_encoder),
        ):
            for name, value in module.state_dict().items():
                state[f"{prefix}.{name}"] = value
        return state

    def save_policy(self, path) -> None:
        """Persist actor, critic and state-encoder parameters.

        The metadata records the shaping bounds the policy was trained
        under; ``PolicyServer.from_checkpoint`` refuses to serve it under
        different ones.
        """
        metadata = {
            "timesteps_trained": self._timesteps_trained,
            "size_scale": self.normalizer.size_scale,
            "min_packet_bytes": self.config.min_packet_bytes,
            "max_delay_ms": self.config.max_delay_ms,
            "max_truncations_per_packet": self.config.max_truncations_per_packet,
        }
        save_state_dict(self._policy_state(), path, metadata=metadata)