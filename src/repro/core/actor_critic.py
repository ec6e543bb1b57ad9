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

The training forwards (``log_prob_and_entropy``, ``Critic.forward``) run
the same :func:`~repro.nn.functional.tanh_mlp_forward` on ``rc_matmul`` and
keep its activations for :func:`~repro.nn.functional.tanh_mlp_backward`: the
critic's values are one node (its reshape folded in), and the actor's
log-probabilities and entropy are two that
:func:`~repro.nn.functional.ppo_policy_loss` folds into the policy loss.
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
# A diagonal Gaussian's entropy per action dimension, less its log_std.
_ENTROPY_OFFSET = 0.5 * (nn.backend._LOG_2PI + 1.0)


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


def _check_states(body: nn.Sequential, states: np.ndarray) -> None:
    width = body[0].in_features
    if states.ndim != 2 or states.shape[1] != width:
        raise ValueError(f"states must be (n, {width}), got {states.shape}")


def _training_forward(body: nn.Sequential, states: nn.Tensor):
    """A training node's parents, ``(weight, bias)`` pairs and activations."""
    _check_states(body, states.data)
    layers = _linear_parameters(body)
    arrays = [(weight.data, bias.data) for weight, bias in layers]
    activations = F.tanh_mlp_forward(states.data, arrays, nn.rc_matmul)
    return (states,) + tuple(p for layer in layers for p in layer), layers, activations


def mlp_forward(body: nn.Sequential, states: np.ndarray) -> np.ndarray:
    """``body(states)`` for inference: a :func:`build_mlp` forward on arrays.

    ``states`` is coerced to float64 and must be ``(n, in_features)``; the
    result is a fresh ``(n, output_dim)`` array.  This is the active
    backend's :meth:`~repro.nn.backend.ExecutionBackend.tanh_mlp`:
    :func:`repro.nn.functional.tanh_mlp_forward` — the forward the training
    nodes run — on the row-consistent kernel (one compiled call), on
    ``param.data`` as it is now, so a ``load_state_dict``
    or an optimizer step needs no invalidation.
    """
    states = np.asarray(states, dtype=np.float64)
    _check_states(body, states)
    layers = [(weight.data, bias.data) for weight, bias in _linear_parameters(body)]
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

        The MLP and the Gaussian log-density run on arrays, and their caches
        stay in the two nodes' backwards, which
        :func:`~repro.nn.functional.ppo_policy_loss` folds into its own node.
        ``actions`` must be ``(n, action_dim)``: nothing broadcasts.
        """
        states = nn.as_tensor(states)
        parents, layers, activations = _training_forward(self.body, states)
        mean, log_std = activations[-1], self.log_std
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != mean.shape:
            raise ValueError(f"actions must be (n, {self.action_dim}), got {actions.shape}")
        backend = nn.active_backend()
        per_dim, diff, scaled, variance = backend.gaussian_log_density(actions, mean, log_std.data)

        def log_prob_backward(grad: np.ndarray) -> None:
            # ``log_std`` collects two terms here, the ``- log_std`` one first,
            # after the entropy's: a three-way sum whose bits depend on the order.
            d_per_dim, d_variance_terms, d_mean = backend.gaussian_log_density_backward(
                grad, diff, scaled, variance
            )
            if log_std.requires_grad:
                log_std._accumulate_fresh(-d_per_dim.sum(axis=0))
                log_std._accumulate_fresh(d_variance_terms.sum(axis=0) * variance * 2.0)
            F.tanh_mlp_backward(d_mean, states, layers, activations)

        def entropy_backward(grad: np.ndarray) -> None:
            log_std._accumulate_fresh(np.full(log_std.data.shape, grad))

        log_probs = nn.Tensor._make(per_dim.sum(axis=-1), parents + (log_std,), log_prob_backward)
        entropy = nn.Tensor._make(
            (log_std.data + _ENTROPY_OFFSET).sum(axis=-1), (log_std,), entropy_backward
        )
        return log_probs, entropy


class Critic(nn.Module):
    """State-value function approximator."""

    def __init__(self, state_dim: int, hidden_dims: Sequence[int] = (64, 32), rng=None) -> None:
        super().__init__()
        self.body = build_mlp(state_dim, hidden_dims, 1, rng=ensure_rng(rng))

    def forward(self, states: nn.Tensor) -> nn.Tensor:
        """Differentiable ``(n,)`` values as one node: the MLP with its
        ``(n, 1) → (n,)`` reshape folded in."""
        states = nn.as_tensor(states)
        parents, layers, activations = _training_forward(self.body, states)
        out = activations[-1]

        def backward(grad: np.ndarray) -> None:
            F.tanh_mlp_backward(grad.reshape(out.shape), states, layers, activations)

        return nn.Tensor._make(out.reshape(-1), parents, backward)

    def value_batch(self, states: np.ndarray) -> np.ndarray:
        """Value estimates for a ``(n, state_dim)`` batch in one forward pass.

        The row-consistent :func:`mlp_forward`, so each row matches a
        one-row call on that state bit-for-bit.
        """
        return mlp_forward(self.body, states).reshape(-1)
