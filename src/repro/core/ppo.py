"""Proximal Policy Optimization update (Algorithm 1, Appendix A.1).

The trainer consumes a full :class:`~repro.core.rollout.RolloutBuffer` and
performs ``update_epochs`` passes of clipped-surrogate policy updates plus
mean-squared-error value updates over ``n_minibatches`` minibatches:

    L_actor  = −E[ min( I_t(θ) Â_t , clip(I_t(θ), 1±ε) Â_t ) ] − c_H · H(π_θ)
    L_critic =  E[ ( V_c(s_t) − R_t )² ]

One minibatch's graph is three autograd nodes, each with a closed-form
backward: the policy loss ``L_actor`` whole (``F.ppo_policy_loss``, which
folds in the actor's log-probabilities and entropy, so its backward runs
surrogate → Gaussian log-density → MLP in one closure), the critic's values
(its MLP and reshape) and the MSE.  Their elementwise work, the gradient
norm and the Adam step run on the active :mod:`repro.nn.backend`'s training
hooks (compiled where the kernel pack loaded); the BLAS products and the reductions
stay numpy calls.  The update still goes through ``log_prob_and_entropy`` /
``Critic.__call__`` / ``Tensor.backward`` / ``nn.clip_grad_norm`` /
``Adam.step`` — there is no tape, recorded-graph replay or cache — and is
bit-identical to the composed ``Tensor``-op formulation (~55 nodes) kept in
``tests/oracles/composed_ppo.py``.  A non-finite gradient norm raises
``FloatingPointError`` before the optimizer step instead of poisoning the
weights, and a rollout that was loaded but not finalized raises
``RuntimeError`` before the minibatch shuffle draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn import functional as F
from ..utils.rng import ensure_rng
from .actor_critic import Critic, GaussianActor
from .config import AmoebaConfig
from .rollout import RolloutBuffer

__all__ = ["PPOUpdater", "PPOUpdateStats"]


@dataclass(frozen=True)
class PPOUpdateStats:
    """Diagnostics of one PPO update phase."""

    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float


def _require_finite(grad_norm: float, loss_name: str) -> None:
    """Refuse to step on a non-finite gradient: ``clip_grad_norm`` cannot
    scale a NaN norm down, and Adam would write it into every weight."""
    if not math.isfinite(grad_norm):
        raise FloatingPointError(
            f"non-finite gradient norm ({grad_norm}) in the {loss_name} loss; optimizer step refused"
        )


class PPOUpdater:
    """Optimises the actor and critic from collected rollouts."""

    def __init__(
        self,
        actor: GaussianActor,
        critic: Critic,
        config: AmoebaConfig,
        rng=None,
    ) -> None:
        self.actor = actor
        self.critic = critic
        self.config = config
        self._rng = ensure_rng(rng)
        self.actor_optimizer = nn.Adam(actor.parameters(), lr=config.learning_rate)
        self.critic_optimizer = nn.Adam(critic.parameters(), lr=config.learning_rate)

    def update(self, buffer: RolloutBuffer) -> PPOUpdateStats:
        """Run the clipped-surrogate update over the buffer's minibatches."""
        config = self.config
        policy_losses = []
        value_losses = []
        entropies = []
        kls = []
        clip_fractions = []
        for _ in range(config.update_epochs):
            for batch in buffer.minibatches(config.n_minibatches, rng=self._rng):
                states = nn.Tensor(batch.states)

                # ---------------- actor ----------------
                log_probs, entropy = self.actor.log_prob_and_entropy(states, batch.actions)
                policy_loss, ratio = F.ppo_policy_loss(
                    log_probs,
                    entropy,
                    batch.log_probs,
                    batch.advantages,
                    config.clip_epsilon,
                    config.entropy_coef,
                )

                self.actor_optimizer.zero_grad()
                policy_loss.backward()
                norm = nn.clip_grad_norm(self.actor_optimizer.parameters, config.max_grad_norm)
                _require_finite(norm, "policy")
                self.actor_optimizer.step()

                # ---------------- critic ----------------
                values = self.critic(states)
                value_loss = F.mse_loss(values, batch.returns)
                self.critic_optimizer.zero_grad()
                value_loss.backward()
                norm = nn.clip_grad_norm(self.critic_optimizer.parameters, config.max_grad_norm)
                _require_finite(norm, "value")
                self.critic_optimizer.step()

                approx_kl = float(np.mean(batch.log_probs - log_probs.data))
                clip_fraction = float(np.mean(np.abs(ratio - 1.0) > config.clip_epsilon))
                policy_losses.append(policy_loss.item())
                value_losses.append(value_loss.item())
                entropies.append(entropy.item())
                kls.append(approx_kl)
                clip_fractions.append(clip_fraction)

        return PPOUpdateStats(
            policy_loss=float(np.mean(policy_losses)),
            value_loss=float(np.mean(value_losses)),
            entropy=float(np.mean(entropies)),
            approx_kl=float(np.mean(kls)),
            clip_fraction=float(np.mean(clip_fractions)),
        )
