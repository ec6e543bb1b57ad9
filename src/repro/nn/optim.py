"""First-order optimizers: SGD (with momentum), Adam and RMSProp.

The paper's hyperparameter search (Table 3) covers exactly these three; Adam
with learning rate 5e-4 is the selected configuration for Amoeba.

Allocation discipline
---------------------
The PPO update phase sits on the pipeline's critical path (BENCH_pipeline),
and an optimizer step runs once per minibatch per epoch.  Each optimizer
therefore preallocates two scratch buffers per parameter at construction and
performs the entire update with in-place ufuncs — zero allocations per step,
and ``param.data`` is mutated in place rather than rebound to a fresh array.
The in-place step applies *exactly* the same sequence of rounded floating
point operations as the textbook allocating formulation, which lives in
``tests/oracles/optim_reference.py`` and is asserted bitwise against these
classes in ``tests/test_nn_backend.py``.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "RMSProp", "clip_grad_norm"]


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, which callers may log for diagnostics.
    The scaling genuinely is in place (``p.grad *= scale``): gradients are
    private accumulation buffers owned by the autodiff engine, so no copy is
    needed and none is made.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list and two float64 scratch
    buffers per parameter for the in-place step."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self._scratch_a = [np.empty_like(p.data) for p in self.parameters]
        self._scratch_b = [np.empty_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity, scratch in zip(self.parameters, self._velocity, self._scratch_a):
            if param.grad is None:
                continue
            if self.momentum > 0:
                velocity *= self.momentum
                np.multiply(param.grad, self.lr, out=scratch)
                velocity -= scratch
                param.data += velocity
            else:
                np.multiply(param.grad, self.lr, out=scratch)
                param.data -= scratch


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2014)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        # Operation-for-operation the textbook allocating step, with every
        # intermediate written into one of the two scratch buffers:
        #   s_b = (1-b1)*g        ; m = m*b1 + s_b
        #   s_b = ((1-b2)*g)*g    ; v = v*b2 + s_b
        #   s_a = sqrt(v/bias2) + eps
        #   s_b = (lr*(m/bias1)) / s_a ; p -= s_b
        # identical rounding at every step, hence identical trajectories.
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for param, m, v, s_a, s_b in zip(
            self.parameters, self._m, self._v, self._scratch_a, self._scratch_b
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=s_a)
                s_a += grad
                grad = s_a
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


class RMSProp(Optimizer):
    """RMSProp optimizer."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps
        self._sq = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, sq, s_a, s_b in zip(
            self.parameters, self._sq, self._scratch_a, self._scratch_b
        ):
            if param.grad is None:
                continue
            sq *= self.alpha
            np.multiply(param.grad, 1.0 - self.alpha, out=s_b)
            s_b *= param.grad
            sq += s_b
            np.sqrt(sq, out=s_a)
            s_a += self.eps
            np.multiply(param.grad, self.lr, out=s_b)
            s_b /= s_a
            param.data -= s_b
