"""Equivalence oracle: the textbook allocating Adam step, verbatim.

This is the ``_step_allocating`` body of ``Adam`` from
``src/repro/nn/optim.py`` as it stood before the ``preallocate=`` switch was
removed: every intermediate is a fresh array and ``param.data`` is rebound,
not mutated.  It is kept only as the reference the bitwise tests in
``tests/test_nn_backend.py`` compare the production in-place step against --
do not optimise or "fix" it.  The class inherits the production constructor
(same hyperparameters, same state buffers) and replaces ``step``; the only
edits are the step counter moving from the removed dispatcher into the body
and the weight-decay branch leaving with the production option.
"""

from __future__ import annotations

import numpy as np

from repro import nn

__all__ = ["AllocatingAdam"]


class AllocatingAdam(nn.Adam):
    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
