"""Amoeba configuration.

Default values follow the paper's hyperparameter selection (Appendix A.4,
Table 3), with network widths scaled down so the CPU-only reproduction trains
in seconds-to-minutes; the paper's exact widths can be restored by passing
``AmoebaConfig.paper_scale()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Tuple

from ..utils.validation import (
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = ["AmoebaConfig"]


@dataclass(frozen=True)
class AmoebaConfig:
    """Hyperparameters of the Amoeba agent and its PPO optimisation.

    Frozen: every bound is checked once, at construction, so a changed
    value is a new config (:meth:`with_overrides`), checked like the first.

    Attributes mirror Table 3 of the paper:

    * ``learning_rate`` — Adam step size (paper: 5e-4).
    * ``lambda_split`` — packet-truncation overhead coefficient (paper: 0.05).
    * ``lambda_time`` — time-delay coefficient (paper: 0.2).
    * ``lambda_data`` — data-overhead coefficient (paper: 0.2 Tor, 2.0 V2Ray).
    * ``actor_hidden`` / ``critic_hidden`` — MLP widths (paper: 256, 64, 32).
    * ``encoder_hidden`` / ``encoder_layers`` — StateEncoder GRU (paper: 512, 2).
    * ``gamma`` / ``gae_lambda`` — discounting and GAE (paper: 0.99 / 0.95).
    * ``clip_epsilon`` — PPO ratio clipping.
    * ``entropy_coef`` — exploration bonus weight.
    * ``n_envs`` / ``rollout_length`` / ``n_minibatches`` / ``update_epochs``
      — parallel-rollout shape (Algorithm 1).
    * ``max_delay_ms`` — discretisation bound of the delay action.
    * ``reward_mask_rate`` — probability of masking the adversarial reward
      (Section 5.5.3); masked rewards are replaced by ``masked_reward_value``.
    """

    # Reward shaping
    lambda_split: float = 0.05
    lambda_data: float = 0.2
    lambda_time: float = 0.2
    reward_mask_rate: float = 0.0
    masked_reward_value: float = 0.5

    # Action space
    max_delay_ms: float = 100.0
    min_packet_bytes: int = 64
    max_truncations_per_packet: int = 8

    # Networks
    actor_hidden: Tuple[int, ...] = (64, 32)
    critic_hidden: Tuple[int, ...] = (64, 32)
    encoder_hidden: int = 32
    encoder_layers: int = 2
    initial_log_std: float = -0.5
    # Initial mean of the (size, extra-delay) policy outputs.  Starting the
    # delay head below zero (clipped to zero delay by the environment) biases
    # early exploration towards delay-free shaping, which is where the
    # converged paper policy ends up (Figure 14: delay is the least-used
    # action and time overhead stays below ~10%).
    initial_action_bias: Tuple[float, float] = (0.0, -1.0)

    # PPO optimisation
    learning_rate: float = 5e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    n_envs: int = 4
    rollout_length: int = 64
    n_minibatches: int = 4
    update_epochs: int = 4

    # Episode shaping
    max_episode_steps: int = 120

    def __post_init__(self) -> None:
        # Every float is finite and every count or width a positive integer,
        # so misuse raises here, before a censor query is spent.
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                check_integer(value, field.name, minimum=1)
            elif field.type == "Tuple[int, ...]":
                for width in value:
                    check_integer(width, field.name, minimum=1)
            elif field.type in ("float", "Tuple[float, float]"):
                entries = (value,) if field.type == "float" else value
                if not all(math.isfinite(entry) for entry in entries):
                    raise ValueError(f"{field.name} must be finite, got {value!r}")
        check_positive(self.learning_rate, "learning_rate")
        check_non_negative(self.lambda_split, "lambda_split")
        check_non_negative(self.lambda_data, "lambda_data")
        check_non_negative(self.lambda_time, "lambda_time")
        check_probability(self.reward_mask_rate, "reward_mask_rate")
        check_positive(self.max_delay_ms, "max_delay_ms")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be within (0, 1], got {self.gamma}")
        check_probability(self.gae_lambda, "gae_lambda")
        check_positive(self.clip_epsilon, "clip_epsilon")
        check_non_negative(self.entropy_coef, "entropy_coef")
        check_non_negative(self.value_coef, "value_coef")
        check_positive(self.max_grad_norm, "max_grad_norm")

    # ------------------------------------------------------------------ #
    @property
    def state_dim(self) -> int:
        """Dimension of s_t = E(x_1:t) || E(a_1:t)."""
        return 2 * self.encoder_hidden

    def with_overrides(self, **kwargs) -> "AmoebaConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def for_tor(cls, **kwargs) -> "AmoebaConfig":
        """Defaults used for the Tor (TCP-layer) dataset: lambda_data = 0.2."""
        return cls(lambda_data=0.2, **kwargs)

    @classmethod
    def for_v2ray(cls, **kwargs) -> "AmoebaConfig":
        """Defaults used for the V2Ray (TLS-record) dataset: lambda_data = 2.0."""
        return cls(lambda_data=2.0, **kwargs)

    @classmethod
    def paper_scale(cls, **kwargs) -> "AmoebaConfig":
        """The exact widths reported in Table 3 (much slower on CPU)."""
        defaults = dict(
            actor_hidden=(256, 64, 32),
            critic_hidden=(256, 64, 32),
            encoder_hidden=512,
            encoder_layers=2,
            n_envs=8,
            rollout_length=128,
        )
        defaults.update(kwargs)
        return cls(**defaults)
