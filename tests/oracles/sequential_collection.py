"""Equivalence oracle: the seed per-environment collection loop, verbatim.

This is ``Amoeba._collect_tick_sequential`` / ``_draw_noise`` and the
``vectorized=False`` arm of ``Amoeba.train`` as they stood before they left
``src``: O(n_envs) single-state actor/critic forwards per tick, one censor
query per unmasked step, and a full O(T) re-encode of both histories after
every step.  It is kept only as the reference the bitwise tests in
``tests/test_core_vec_env.py`` compare :class:`repro.distrib.ShardRunner`
against -- do not optimise or "fix" the tick body.  The only edits give it
``ShardRunner``'s constructor and ``collect(n_ticks) -> ShardResult``
contract, so a test can swap it in for the collection kernel ``Amoeba.train``
imports: the tick writes into ``(n_ticks, n_envs, ...)`` arrays instead of a
``RolloutBuffer``, episode summaries come back as ``(tick, env, summary)``
for ``train`` to fold instead of being appended to the agent directly, and
the noise streams are always present (the old ``noise_rngs=None`` default
had no caller).

The single-step APIs it was written against have since left ``src`` too, so
the oracle spells them out, each the body the removed wrapper had:

* ``AdversarialFlowEnv.step`` is :meth:`SequentialCollector._env_step` --
  ``_propose``, one ``predict_scores`` call on the prefix (unless masked)
  and the finished flow (when done), then the per-step reward and summary
  body ``AdversarialFlowEnv._settle`` had (:meth:`SequentialCollector._settle`:
  Python float arithmetic, one step at a time, where ``VectorFlowEnv.settle``
  now computes a rollout's rewards as arrays);
* ``observation_history()`` / ``action_history()`` are per-slot lists kept
  here, fed from the reset observation and the next-observation and
  recorded-action pairs ``_propose`` returns;
* ``Amoeba.encode_state`` is :meth:`SequentialCollector.encode_histories`;
* ``GaussianActor.act`` / ``Critic.value`` are one-row ``act_batch`` /
  ``value_batch`` calls.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.env import AdversarialFlowEnv, EpisodeSummary
from repro.core.vec_env import build_envs_from_seed_tree
from repro.distrib.shard import ShardResult

__all__ = ["SequentialCollector"]


class SequentialCollector:
    """Per-environment collector with ``ShardRunner``'s surface."""

    def __init__(
        self,
        actor,
        critic,
        encoder,
        censor,
        normalizer,
        config,
        flows: Sequence,
        seed_pairs: Sequence[Tuple[np.random.SeedSequence, np.random.SeedSequence]],
    ) -> None:
        self.actor = actor
        self.critic = critic
        self.encoder = encoder
        self.censor = censor
        self._noise_rngs = [np.random.default_rng(noise_seq) for _, noise_seq in seed_pairs]
        self._envs = build_envs_from_seed_tree(censor, normalizer, config, flows, seed_pairs)
        self._histories = [self._reset(env) for env in self._envs]
        self._states = np.stack([self.encode_histories(history) for history in self._histories])

    @staticmethod
    def _reset(env: AdversarialFlowEnv) -> Tuple[List, List]:
        """Start an episode; its (observation, action) histories."""
        return [tuple(env.reset().tolist())], []

    def encode_histories(self, history: Tuple[List, List]) -> np.ndarray:
        observations, actions = history
        observation_code = self.encoder.encode_pairs(
            np.array(observations, dtype=np.float64).reshape(-1, 2)
        )
        action_code = self.encoder.encode_pairs(np.array(actions, dtype=np.float64).reshape(-1, 2))
        return np.concatenate([observation_code, action_code])

    def _env_step(self, env: AdversarialFlowEnv, action: np.ndarray, history: Tuple[List, List]):
        """One immediately scored step: ``(reward, done, summary)``."""
        episode, prefix_length, _, masked, done, data_penalty, time_penalty, next_observation, recorded_action = (
            env._propose(*action.tolist())
        )
        flow = episode.flow()
        flows = [] if masked else [flow.prefix_views([prefix_length])[0]]
        if done:
            flows.append(flow)
        scores = self.censor.predict_scores(flows).tolist()
        reward, summary = self._settle(
            env,
            episode,
            data_penalty,
            time_penalty,
            None if masked else scores[0],
            scores[-1] if done else None,
        )
        observations, actions = history
        actions.append(recorded_action)
        if not done:
            observations.append(next_observation)
        return reward, done, summary

    @staticmethod
    def _settle(env, episode, data_penalty, time_penalty, prefix_score, final_score):
        """Fold one step's censor scores into its reward and the episode's:
        the prefix's score (``None`` when masked) and the finished flow's
        (``None`` unless the step ended the episode)."""
        config = env.config
        if prefix_score is None:
            adversarial_reward = config.masked_reward_value
        else:
            adversarial_reward = 1.0 if prefix_score >= 0.5 else 0.0
        reward = (
            adversarial_reward
            - config.lambda_data * data_penalty
            - config.lambda_time * time_penalty
        )
        episode.reward += reward
        if final_score is None:
            return reward, None
        return reward, episode.summary(final_score)

    def _draw_noise(self) -> np.ndarray:
        """Per-slot exploration noise from the collection seed tree."""
        return np.stack([rng.normal(size=self.actor.action_dim) for rng in self._noise_rngs])

    def collect(self, n_ticks: int) -> ShardResult:
        envs = self._envs
        n_envs = len(envs)
        action_dim = self.actor.action_dim
        rollout_states = np.zeros((n_ticks, n_envs, self._states.shape[1]))
        rollout_actions = np.zeros((n_ticks, n_envs, action_dim))
        rollout_log_probs = np.zeros((n_ticks, n_envs))
        rollout_values = np.zeros((n_ticks, n_envs))
        rollout_rewards = np.zeros((n_ticks, n_envs))
        rollout_dones = np.zeros((n_ticks, n_envs), dtype=bool)
        summaries: List[Tuple[int, int, EpisodeSummary]] = []
        queries_before = self.censor.query_count

        for tick in range(n_ticks):
            states = self._states
            actions = np.zeros((n_envs, action_dim))
            log_probs = np.zeros(n_envs)
            values = np.zeros(n_envs)
            rewards = np.zeros(n_envs)
            dones = np.zeros(n_envs, dtype=bool)
            next_states = np.zeros_like(states)
            noise = self._draw_noise()

            for index, env in enumerate(envs):
                state = states[index : index + 1]
                action, log_prob = self.actor.act_batch(state, noise=noise[index : index + 1])
                value = self.critic.value_batch(state)[0]
                reward, done, summary = self._env_step(env, action[0], self._histories[index])
                actions[index] = action[0]
                log_probs[index] = log_prob[0]
                values[index] = value
                rewards[index] = reward
                dones[index] = done
                if done:
                    summaries.append((tick, index, summary))
                    self._histories[index] = self._reset(env)
                next_states[index] = self.encode_histories(self._histories[index])

            rollout_states[tick] = states
            rollout_actions[tick] = actions
            rollout_log_probs[tick] = log_probs
            rollout_rewards[tick] = rewards
            rollout_values[tick] = values
            rollout_dones[tick] = dones
            self._states = next_states

        return ShardResult(
            states=rollout_states,
            actions=rollout_actions,
            log_probs=rollout_log_probs,
            values=rollout_values,
            rewards=rollout_rewards,
            dones=rollout_dones,
            final_values=self.critic.value_batch(self._states),
            summaries=summaries,
            query_delta=self.censor.query_count - queries_before,
        )
