"""Section 5.6.1 — single-step inference latency for online deployment.

The paper measures 0.370 +/- 0.001 ms per action on an NVIDIA K80 and
compares it against the inter-packet delay distribution (Figure 11) to argue
for the offline profile mode.  This benchmark measures the same quantity for
the CPU implementation — both the bare policy forward pass and the full
per-packet pipeline (incremental state encoding + policy inference +
emulator step, as ``Amoeba.attack_many`` and the serving tier run it),
which is what an inline transport-layer integration would actually pay.
"""

from __future__ import annotations

import numpy as np

from repro.core import BatchedEpisodeEncoder, VectorFlowEnv


def test_deployment_policy_inference_latency(benchmark, tor_suite):
    agent = tor_suite.agents["DF"]
    state = np.zeros((1, agent.config.state_dim))
    benchmark(lambda: agent.actor.act_batch(state))
    # The action must be immediately usable by the transport layer.
    actions, log_probs = agent.actor.act_batch(state)
    assert actions.shape == (1, 2)
    assert np.isfinite(log_probs[0])


def test_deployment_full_step_latency(benchmark, tor_suite):
    """Incremental state encoding + inference + emulator step for one packet."""
    agent = tor_suite.agents["DF"]
    data = tor_suite.data
    config = agent.config.with_overrides(reward_mask_rate=1.0, max_episode_steps=10_000)
    flow = data.splits.test.censored_flows[0]
    vec_env = VectorFlowEnv(agent.censor, data.normalizer, config, [flow], [0])
    tracker = BatchedEpisodeEncoder(agent.state_encoder, 1)
    tracker.reset_all(vec_env.reset())

    def per_packet_step():
        # A finished flow restarts in place (VectorFlowEnv.step resets it);
        # the tick is settled at once, so the timed step includes scoring.
        actions, _ = agent.actor.act_batch(tracker.states())
        tick = vec_env.step(actions)
        vec_env.settle([tick])
        tracker.step(tick.pairs, tick.dones)

    benchmark(per_packet_step)
