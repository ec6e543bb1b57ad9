"""Reference: every tick settled as soon as it is stepped.

``VectorFlowEnv.step`` / ``step_subset`` return a tick record and score
nothing; training and evaluation settle all their ticks once
(``VectorFlowEnv.settle``).  Settling each tick on its own is the protocol
both used before, and the one the unit tests step a single environment
with:

* :func:`settled_step` steps one tick and settles it at once;
* :func:`attack_many_per_tick` is ``Amoeba.attack_many`` as it stood when
  it settled every tick, one ``predict_scores`` batch per tick that
  finished a flow.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.agent import AdversarialResult
from repro.core.vec_env import BatchedEpisodeEncoder, VectorFlowEnv
from repro.utils.rng import spawn_rngs


def settled_step(
    vec_env: VectorFlowEnv, actions, indices: Optional[Sequence[int]] = None
) -> Tuple[object, np.ndarray, Dict[int, object]]:
    """One tick of ``vec_env``, stepped (``step``, or ``step_subset`` when
    ``indices`` are given) and settled: ``(tick, rewards, summaries)``, the
    last mapping each record row that ended its episode to the summary."""
    actions = np.asarray(actions, dtype=np.float64)
    tick = vec_env.step(actions) if indices is None else vec_env.step_subset(indices, actions)
    rewards, finished = vec_env.settle([tick])
    return tick, rewards, {row: summary for _, row, summary in finished}


def attack_many_per_tick(agent, flows, deterministic: bool = True) -> List[AdversarialResult]:
    """``agent.attack_many(flows)`` with the censor consulted after every tick."""
    flows = list(flows)
    noise_rngs = None if deterministic else spawn_rngs(agent._eval_rng, len(flows))
    config = agent.config
    budget = max(flow.n_packets for flow in flows) * (1 + config.max_truncations_per_packet)
    eval_config = config.with_overrides(
        reward_mask_rate=1.0, max_episode_steps=max(config.max_episode_steps, budget)
    )
    vec_env = VectorFlowEnv(
        agent.censor, agent.normalizer, eval_config, flows, [agent._eval_rng] * len(flows)
    )
    tracker = BatchedEpisodeEncoder(agent.state_encoder, len(flows))
    tracker.reset_all(vec_env.reset(flows))

    action_dim = agent.actor.action_dim
    results: List[Optional[AdversarialResult]] = [None] * len(flows)
    active = list(range(len(flows)))
    while active:
        noise = None
        if noise_rngs is not None:
            noise = np.stack([noise_rngs[index].normal(size=action_dim) for index in active])
        actions, _ = agent.actor.act_batch(tracker.states(active), noise=noise)
        tick, _, summaries = settled_step(vec_env, actions, active)
        for row, summary in summaries.items():
            results[active[row]] = AdversarialResult.from_summary(summary)
        tracker.step(tick.pairs, tick.dones, indices=active)
        active = [index for index, done in zip(active, tick.dones.tolist()) if not done]
    return results
