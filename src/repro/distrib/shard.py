"""Per-process rollout collection kernel.

A :class:`ShardRunner` owns one shard of the global environment batch: one
:class:`~repro.core.vec_env.VectorFlowEnv` over the shard's slots (each
with its own seed stream), the per-slot exploration-noise streams, the
incremental state tracker, and local replicas of the actor / critic /
state-encoder whose weights are refreshed from broadcast checkpoints.  A
:meth:`ShardRunner.collect` draws every slot's exploration noise for the
whole segment up front (one ``(n_ticks, action_dim)`` draw per noise
stream — the same numbers per-tick draws give), then each tick runs one
actor forward, one vectorized emulator advance
(:meth:`~repro.core.vec_env.VectorFlowEnv.step`, one tick record) and one
incremental encoder step on the record's slab of next observations and
emitted actions.  After the last tick the critic values
the whole rollout's states in one forward, and only then is the censor
consulted: the rollout's distinct pending inputs are scored once each, in
a few large batches, and its rewards computed as arrays
(:meth:`~repro.core.vec_env.VectorFlowEnv.settle`).  The result is the
rollout per-tick scoring would have produced: bit for bit with a censor whose
scores do not depend on the batch they arrive in (trees, SVM), up to the
thresholded score with a neural one.

The runner is process-agnostic and is the *only* collection kernel:
``Amoeba.train`` hosts one inline shard for in-process vectorized
collection and the sharded engine hosts one per worker process.  Batched
evaluation (``Amoeba.attack_many``) ticks the same engine, with
``step_subset``, and settles once too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..censors.base import CensorClassifier
from ..core.env import EpisodeSummary
from ..core.vec_env import BatchedEpisodeEncoder, VectorFlowEnv
from ..nn.serialization import load_prefixed_state, state_dict_from_bytes

__all__ = ["ShardRunner", "ShardResult"]


@dataclass
class ShardResult:
    """One shard's contribution to a rollout: ``(ticks, n_shard, ...)`` arrays.

    ``summaries`` lists finished episodes as ``(tick, local_env, summary)``
    in the order the single-process engine would have observed them;
    ``query_delta`` is the number of queries this shard's censor replica
    counted during the collect — one per step's flow, scored or answered
    from an identical input (the one-query-per-flow accounting of
    Figures 7–9, invariant to sharding).  The sharded engine hands back the
    same type for the merged rollout, with global environment indices.
    """

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    final_values: np.ndarray
    summaries: List[Tuple[int, int, EpisodeSummary]]
    query_delta: int

    @property
    def n_envs(self) -> int:
        return self.states.shape[1]


class ShardRunner:
    """Collection kernel for one contiguous shard of environment slots.

    Parameters
    ----------
    actor, critic, encoder:
        Local replicas (in a worker process these are the fork-inherited
        copies); their weights are overwritten by :meth:`load_weights`
        before every collect, so only broadcast checkpoints matter.
    censor:
        The shard's censor replica, the one censor of the shard's engine.
    seed_pairs:
        One ``(env stream, noise stream)`` :class:`~numpy.random.SeedSequence`
        pair per slot, cut from :func:`repro.utils.rng.collection_seed_tree`.
        Slot ``i`` of this shard behaves bit-identically to global slot
        ``offset + i`` of a single-process engine built from the same tree.
    """

    def __init__(
        self,
        actor,
        critic,
        encoder,
        censor: CensorClassifier,
        normalizer,
        config,
        flows: Sequence,
        seed_pairs: Sequence[Tuple[np.random.SeedSequence, np.random.SeedSequence]],
    ) -> None:
        if not seed_pairs:
            raise ValueError("a shard needs at least one environment slot")
        self.actor = actor
        self.critic = critic
        self.encoder = encoder
        self.censor = censor
        self._vec_env = VectorFlowEnv(
            censor, normalizer, config, flows, [env_seq for env_seq, _ in seed_pairs]
        )
        self._noise_rngs = [
            np.random.default_rng(noise_seq) for _, noise_seq in seed_pairs
        ]
        self._tracker = BatchedEpisodeEncoder(encoder, len(seed_pairs))
        self._states: np.ndarray = np.zeros(0)
        self._started = False

    # ------------------------------------------------------------------ #
    @property
    def n_envs(self) -> int:
        return self._vec_env.n_envs

    def load_weights(self, payload: bytes) -> None:
        """Refresh actor / critic / encoder replicas from a broadcast checkpoint.

        ``payload`` is a :func:`repro.nn.state_dict_to_bytes` archive whose
        keys carry ``actor.`` / ``critic.`` / ``encoder.`` prefixes (the
        same layout ``Amoeba.save_policy`` writes to disk).
        """
        load_prefixed_state(
            state_dict_from_bytes(payload),
            (("actor", self.actor), ("critic", self.critic), ("encoder", self.encoder)),
        )

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Picklable copy of the runner's mutable *collection* state.

        Covers the engine's slots (episodes and seed streams), the
        exploration-noise streams, tracked encoder states, the cached
        ``s_t`` batch and the censor replica's query counter — everything a fresh fork needs to
        resume from this exact point, so the sharded engine can truncate
        its replay log after every collect.  Replica *weights* are not
        included: the driver already holds the authoritative checkpoint (it
        broadcast it) and re-applies it on restore, which keeps the
        per-iteration snapshot round off the weight-serialization path.
        """
        # Everything is copied (the engine's snapshot deep-copies) so the
        # snapshot stays frozen while the runner keeps advancing; a pipe
        # would copy implicitly via pickling, but in-process users of the
        # runner (``Amoeba.train``'s inline shard, tests) share no such boundary.
        return {
            "envs": self._vec_env.snapshot(),
            "noise_rng_states": [rng.bit_generator.state for rng in self._noise_rngs],
            "tracker": self._tracker.snapshot(),
            "states": np.asarray(self._states).copy(),
            "started": self._started,
            "query_count": self.censor.query_count,
        }

    def restore(self, snapshot: dict) -> None:
        """Inverse of :meth:`snapshot` (applied to a freshly built runner)."""
        self._vec_env.restore(snapshot["envs"])
        for rng, rng_state in zip(self._noise_rngs, snapshot["noise_rng_states"]):
            rng.bit_generator.state = rng_state
        self._tracker.restore(snapshot["tracker"])
        self._states = np.asarray(snapshot["states"]).copy()
        self._started = bool(snapshot["started"])
        self.censor.reset_query_count()
        self.censor.record_external_queries(snapshot["query_count"])

    # ------------------------------------------------------------------ #
    def collect(self, n_ticks: int) -> ShardResult:
        """Advance the shard ``n_ticks`` ticks and return its rollout segment.

        The first collect starts fresh episodes; later collects continue the
        in-flight episodes, exactly like the single-process engine carrying
        environments across PPO iterations.  All censor queries of the
        segment happen after its last tick; an exception from the censor
        propagates unchanged — never a result with rewards missing — and,
        as any exception mid-collect always did, leaves the emulators
        advanced: :meth:`restore` a snapshot before collecting again.
        """
        if n_ticks < 1:
            raise ValueError("n_ticks must be >= 1")
        if not self._started:
            self._states = self._tracker.reset_all(self._vec_env.reset())
            self._started = True

        n = self.n_envs
        state_dim = self._states.shape[1]
        action_dim = self.actor.action_dim
        states = np.zeros((n_ticks, n, state_dim))
        actions = np.zeros((n_ticks, n, action_dim))
        log_probs = np.zeros((n_ticks, n))
        dones = np.zeros((n_ticks, n), dtype=bool)

        queries_before = self.censor.query_count
        # Each slot's noise for the whole segment in one draw per stream:
        # the same numbers, in the same order, as one ``normal(size=d)`` per
        # tick (pinned by ``test_bulk_normal_equals_per_tick_draws``).
        noise = np.stack(
            [rng.normal(size=(n_ticks, action_dim)) for rng in self._noise_rngs], axis=1
        )
        ticks = []
        for tick in range(n_ticks):
            tick_actions, tick_log_probs = self.actor.act_batch(self._states, noise=noise[tick])
            record = self._vec_env.step(tick_actions)
            ticks.append(record)

            states[tick] = self._states
            actions[tick] = tick_actions
            log_probs[tick] = tick_log_probs
            dones[tick] = record.dones
            self._states = self._tracker.step(record.pairs, record.dones)

        # The critic never feeds back into the tick, and its row-consistent
        # forward makes each row independent of the batch, so one call over
        # the whole rollout gives the per-tick values bit for bit.
        values = self.critic.value_batch(states.reshape(-1, state_dim)).reshape(n_ticks, n)

        # The transition never depends on the censor and PPO reads rewards
        # only once the rollout is complete, so the whole rollout is scored
        # here, in a few large censor batches instead of one small one per tick.
        # Steps sharing an input share its score, so the censor scores at
        # most as many flows as the queries the rollout counts.
        rewards, summaries = self._vec_env.settle(ticks)
        queries = self.censor.query_count - queries_before

        # Bootstrap values for GAE, computed with the collection-time critic
        # that produced the rollout's per-step values (bit-identical to a
        # driver-side forward: the driver has not updated in between).
        final_values = self.critic.value_batch(self._states)

        return ShardResult(
            states=states,
            actions=actions,
            log_probs=log_probs,
            values=values,
            rewards=rewards.reshape(n_ticks, n),
            dones=dones,
            final_values=np.asarray(final_values, dtype=np.float64),
            summaries=summaries,
            query_delta=queries,
        )
