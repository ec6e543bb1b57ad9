"""Equivalence oracle: the PPO policy / value step on composed Tensor ops, verbatim.

These are the bodies the PPO update ran on before its graph became a handful
of closed-form nodes: the ``Sequential`` actor / critic forwards,
``F.gaussian_log_prob`` (14 nodes), ``F.gaussian_entropy`` (4),
``F.mse_loss`` (5), the clipped-surrogate block of ``PPOUpdater.update``
(9) and its ``surrogate - c_H * entropy`` line (3), the per-parameter
``Adam.step`` and the recursive graph walk of ``Tensor.backward`` -- about
55 ``Tensor`` nodes per 128-row minibatch.  They
are kept only as the reference the bitwise tests in
``tests/test_nn_ppo_nodes.py``, ``tests/test_nn_tensor.py`` and
``tests/test_properties.py`` compare production against -- do not optimise or
"fix" them.  The only edits turn methods into functions taking the module
first (so a test can ``monkeypatch.setattr`` them over the production names),
lift the surrogate block out of the update loop into a function, and it
with the entropy line into one with the production ``F.ppo_policy_loss``
node's signature, return the walk's order from
``recursive_topological_order`` so it can be compared as well as run, and
drop the Adam step's weight-decay branch with the production option.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor, as_tensor

__all__ = [
    "composed_actor_forward",
    "composed_critic_forward",
    "composed_log_prob_and_entropy",
    "composed_gaussian_log_prob",
    "composed_gaussian_entropy",
    "composed_mse_loss",
    "composed_clipped_surrogate_loss",
    "composed_ppo_policy_loss",
    "per_parameter_adam_step",
    "recursive_topological_order",
    "recursive_backward",
]

_LOG_2PI = math.log(2.0 * math.pi)


def composed_actor_forward(self, states: Tensor) -> Tuple[Tensor, Tensor]:
    mean = self.body(states)
    return mean, self.log_std


def composed_critic_forward(self, states: Tensor) -> Tensor:
    return self.body(states).reshape(-1)


def composed_gaussian_log_prob(actions: Tensor, mean: Tensor, log_std: Tensor) -> Tensor:
    actions = as_tensor(actions).detach()
    mean, log_std = as_tensor(mean), as_tensor(log_std)
    variance = (log_std * 2.0).exp()
    per_dim = (
        -0.5 * ((actions - mean) ** 2) / variance
        - log_std
        - 0.5 * _LOG_2PI
    )
    return per_dim.sum(axis=-1)


def composed_gaussian_entropy(log_std: Tensor) -> Tensor:
    log_std = as_tensor(log_std)
    per_dim = log_std + 0.5 * (_LOG_2PI + 1.0)
    return per_dim.sum(axis=-1).mean()


def composed_log_prob_and_entropy(self, states: Tensor, actions: np.ndarray) -> Tuple[Tensor, Tensor]:
    mean, log_std = composed_actor_forward(self, states)
    log_probs = composed_gaussian_log_prob(nn.Tensor(actions), mean, log_std)
    entropy = composed_gaussian_entropy(log_std)
    return log_probs, entropy


def composed_mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def composed_clipped_surrogate_loss(
    log_probs: Tensor, old_log_probs: np.ndarray, advantages: np.ndarray, clip_epsilon: float
) -> Tuple[Tensor, np.ndarray]:
    advantages = nn.Tensor(advantages)
    old_log_probs = nn.Tensor(old_log_probs)
    ratio = (log_probs - old_log_probs).exp()
    clipped_ratio = ratio.clip(1.0 - clip_epsilon, 1.0 + clip_epsilon)
    surrogate_raw = ratio * advantages
    surrogate_clipped = clipped_ratio * advantages
    surrogate = nn.Tensor.where(
        surrogate_raw.data <= surrogate_clipped.data,
        surrogate_raw,
        surrogate_clipped,
    )
    return -surrogate.mean(), ratio.data


def composed_ppo_policy_loss(
    log_probs: Tensor,
    entropy: Tensor,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
    entropy_coef: float,
) -> Tuple[Tensor, np.ndarray]:
    surrogate_loss, ratio = composed_clipped_surrogate_loss(
        log_probs, old_log_probs, advantages, clip_epsilon
    )
    policy_loss = surrogate_loss - entropy_coef * entropy
    return policy_loss, ratio


def per_parameter_adam_step(self) -> None:
    self._step += 1
    bias1 = 1.0 - self.beta1 ** self._step
    bias2 = 1.0 - self.beta2 ** self._step
    for param, m, v, s_a, s_b in zip(
        self.parameters, self._m, self._v, self._scratch_a, self._scratch_b
    ):
        if param.grad is None:
            continue
        grad = param.grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s_b)
        m += s_b
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s_b)
        s_b *= grad
        v += s_b
        np.divide(v, bias2, out=s_a)
        np.sqrt(s_a, out=s_a)
        s_a += self.eps
        np.divide(m, bias1, out=s_b)
        s_b *= self.lr
        s_b /= s_a
        param.data -= s_b


def recursive_topological_order(root: Tensor) -> List[Tensor]:
    topo: List[Tensor] = []
    visited = set()

    def build(node: Tensor) -> None:
        if id(node) in visited:
            return
        visited.add(id(node))
        for parent in node._parents:
            build(parent)
        topo.append(node)

    build(root)
    return topo


def recursive_backward(self, grad=None) -> None:
    if not self.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if grad is None:
        if self.data.size != 1:
            raise RuntimeError("grad must be provided for non-scalar tensors")
        grad = np.ones_like(self.data)
    grad = np.asarray(grad, dtype=np.float64)

    topo = recursive_topological_order(self)
    self._accumulate(grad)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
