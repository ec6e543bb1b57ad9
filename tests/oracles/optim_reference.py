"""Equivalence oracle: the textbook allocating optimizer steps, verbatim.

These are the ``_step_allocating`` bodies of ``SGD`` / ``Adam`` / ``RMSProp``
from ``src/repro/nn/optim.py`` as they stood before the ``preallocate=``
switch was removed: every intermediate is a fresh array and ``param.data`` is
rebound, not mutated.  They are kept only as the reference the bitwise tests
in ``tests/test_nn_backend.py`` compare the production in-place steps
against -- do not optimise or "fix" them.  Each class inherits the production
constructor (same hyperparameters, same state buffers) and replaces ``step``;
the only edit is Adam's step counter moving from the removed dispatcher into
the body.
"""

from __future__ import annotations

import numpy as np

from repro import nn

__all__ = ["AllocatingSGD", "AllocatingAdam", "AllocatingRMSProp"]


class AllocatingSGD(nn.SGD):
    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum > 0:
                velocity *= self.momentum
                velocity -= self.lr * param.grad
                param.data = param.data + velocity
            else:
                param.data = param.data - self.lr * param.grad


class AllocatingAdam(nn.Adam):
    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AllocatingRMSProp(nn.RMSProp):
    def step(self) -> None:
        for param, sq in zip(self.parameters, self._sq):
            if param.grad is None:
                continue
            sq *= self.alpha
            sq += (1.0 - self.alpha) * param.grad * param.grad
            param.data = param.data - self.lr * param.grad / (np.sqrt(sq) + self.eps)
