"""Gaussian-policy actor and value critic (Section 4.3).

Both networks are MLPs over the fixed-size state produced by the
StateEncoder.  The actor outputs the mean of a diagonal Gaussian over the two
action components (normalised packet size and extra delay); the log standard
deviation is a learned, state-independent parameter vector, which is the
standard PPO continuous-control parameterisation and implements the paper's
reparameterisation trick ``a = mean + eps * sigma``.

The inference paths (``act_batch`` / ``value_batch``, the only ones: a
single state is a one-row batch) evaluate the MLP on plain arrays
(:func:`mlp_forward`): no autograd graph is built for a forward nobody
differentiates, every product runs on the active :mod:`repro.nn.backend`'s
row-consistent kernel, and the weights are read from the parameters at call
time.  Each output row is therefore
bit-independent of the batch composition — the property the collection and
serving tiers' bit-equivalence tests rely on — and bit-identical to the
``Tensor`` forward under ``no_grad()`` and ``row_consistent_matmul()``, which
``tests/oracles/tensor_inference.py`` keeps as the reference.

The training forwards (``forward`` / ``log_prob_and_entropy``) record the
same MLP as **one** autograd node, :func:`repro.nn.functional.tanh_mlp`,
whose forward is :func:`~repro.nn.functional.tanh_mlp_forward` (parametrised
by the matmul) — the composition :func:`mlp_forward` runs under the
``reference`` backend and the compiled ``blocked`` kernel is checked against.
The ``nn.Sequential`` built by :func:`build_mlp` is the parameter container
— state-dict keys and checkpoints do not change — and its composed
``Linear`` / ``Tanh`` forward is the bitwise reference in
``tests/oracles/composed_ppo.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..utils.rng import ensure_rng

__all__ = ["GaussianActor", "Critic", "build_mlp", "mlp_forward"]

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def build_mlp(input_dim: int, hidden_dims: Sequence[int], output_dim: int, rng=None) -> nn.Sequential:
    """Tanh MLP used for both the actor body and the critic."""
    rng = ensure_rng(rng)
    layers: List[nn.Module] = []
    previous = input_dim
    for width in hidden_dims:
        layers.append(nn.Linear(previous, width, rng=rng))
        layers.append(nn.Tanh())
        previous = width
    layers.append(nn.Linear(previous, output_dim, rng=rng))
    return nn.Sequential(*layers)


def _linear_parameters(body: nn.Sequential) -> List[Tuple[nn.Parameter, nn.Parameter]]:
    """The ``(weight, bias)`` pairs of a :func:`build_mlp` body, read now."""
    return [(layer.weight, layer.bias) for layer in body if isinstance(layer, nn.Linear)]


def mlp_forward(body: nn.Sequential, states: np.ndarray) -> np.ndarray:
    """``body(states)`` for inference: a :func:`build_mlp` forward on arrays.

    ``states`` is coerced to float64 and must be ``(n, in_features)``; the
    result is a fresh ``(n, output_dim)`` array.  This is the active
    backend's :meth:`~repro.nn.backend.ExecutionBackend.tanh_mlp`:
    :func:`repro.nn.functional.tanh_mlp_forward` — the forward the training
    node :func:`~repro.nn.functional.tanh_mlp` runs — on the row-consistent
    kernel (one compiled call under ``blocked``), on ``param.data`` as it is
    now, so a ``load_state_dict`` or an optimizer step needs no invalidation.
    """
    states = np.asarray(states, dtype=np.float64)
    width = body[0].in_features
    if states.ndim != 2 or states.shape[1] != width:
        raise ValueError(f"states must be (n, {width}), got {states.shape}")
    layers = [
        (layer.weight.data, layer.bias.data) for layer in body if isinstance(layer, nn.Linear)
    ]
    return nn.active_backend().tanh_mlp(states, layers)


class GaussianActor(nn.Module):
    """Diagonal-Gaussian policy over the (size, delay) action space."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int = 2,
        hidden_dims: Sequence[int] = (64, 32),
        initial_log_std: float = -0.5,
        initial_action_bias: Optional[Sequence[float]] = None,
        rng=None,
    ) -> None:
        super().__init__()
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.body = build_mlp(state_dim, hidden_dims, action_dim, rng=rng)
        if initial_action_bias is not None:
            bias = np.asarray(initial_action_bias, dtype=np.float64)
            if bias.shape != (action_dim,):
                raise ValueError(f"initial_action_bias must have shape ({action_dim},)")
            # The last Linear in the body holds the output bias.
            output_layer = self.body[len(self.body) - 1]
            output_layer.bias.data = bias.copy()
        self.log_std = nn.Parameter(np.full(action_dim, float(initial_log_std)), name="log_std")

    # ------------------------------------------------------------------ #
    def forward(self, states: nn.Tensor) -> Tuple[nn.Tensor, nn.Tensor]:
        """Return (mean, log_std) for a batch of states.

        The body runs as one :func:`~repro.nn.functional.tanh_mlp` node;
        ``self.body`` stays the parameter container (state-dict keys).
        """
        return F.tanh_mlp(states, _linear_parameters(self.body)), self.log_std

    def act_batch(
        self, states: np.ndarray, noise: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Actions for a batch of states in one forward pass.

        ``states`` has shape ``(n, state_dim)``; returns ``(actions,
        log_probs)`` of shapes ``(n, action_dim)`` and ``(n,)``.  The forward
        is the row-consistent :func:`mlp_forward`, so each row is
        bit-identical to a one-row call on that state.  There is no
        single-state entry point: one state is ``act_batch(state[None])``.

        Without ``noise`` the action is the mean itself, whose log-density is
        the same constant on every row and is computed once, not per row.
        ``noise`` (one standard-normal ``(n, action_dim)`` row per state)
        samples ``mean + noise * std`` instead.  The actor owns no random
        stream: collection draws the noise from each environment slot's
        stream and sampled evaluation from each flow's, which keeps a row's
        action independent of how rows are batched.
        """
        mean = mlp_forward(self.body, states)
        std = np.exp(self.log_std.data)
        if noise is None:
            log_density_at_mean = np.sum(-np.log(std) - _HALF_LOG_2PI)
            return mean, np.full(len(mean), log_density_at_mean)
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (len(mean), self.action_dim):
            raise ValueError(
                f"noise must have shape {(len(mean), self.action_dim)}, got {noise.shape}"
            )
        actions = mean + noise * std
        log_probs = np.sum(
            -0.5 * ((actions - mean) / std) ** 2 - np.log(std) - _HALF_LOG_2PI, axis=1
        )
        return actions, log_probs

    def log_prob_and_entropy(self, states: nn.Tensor, actions: np.ndarray) -> Tuple[nn.Tensor, nn.Tensor]:
        """Differentiable log-probabilities of ``actions`` and policy entropy.

        Three autograd nodes: the MLP, the log-density, the entropy.
        """
        mean, log_std = self.forward(states)
        log_probs = F.gaussian_log_prob(actions, mean, log_std)
        entropy = F.gaussian_entropy(log_std)
        return log_probs, entropy


class Critic(nn.Module):
    """State-value function approximator."""

    def __init__(self, state_dim: int, hidden_dims: Sequence[int] = (64, 32), rng=None) -> None:
        super().__init__()
        self.body = build_mlp(state_dim, hidden_dims, 1, rng=ensure_rng(rng))

    def forward(self, states: nn.Tensor) -> nn.Tensor:
        """Differentiable ``(n,)`` values: one ``tanh_mlp`` node and a reshape."""
        return F.tanh_mlp(states, _linear_parameters(self.body)).reshape(-1)

    def value_batch(self, states: np.ndarray) -> np.ndarray:
        """Value estimates for a ``(n, state_dim)`` batch in one forward pass.

        The row-consistent :func:`mlp_forward`, so each row matches a
        one-row call on that state bit-for-bit.
        """
        return mlp_forward(self.body, states).reshape(-1)
