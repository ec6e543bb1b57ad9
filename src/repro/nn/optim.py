"""Adam, the one optimizer training uses, and global-norm gradient clipping.

The paper's hyperparameter search (Table 3) selects Adam with learning rate
5e-4 for Amoeba; the censors and the state encoder train with Adam too.

Allocation discipline
---------------------
The PPO update phase sits on every training iteration's critical path, and
an optimizer step runs once per minibatch per epoch.  ``Adam`` therefore
preallocates its state and scratch at construction — one flat float64
buffer per kind (:func:`_flat_buffers`), with one view per parameter shaped
like it — and performs the entire update with in-place ufuncs: zero
allocations per step, and ``param.data`` is mutated in place rather than
rebound to a fresh array.  The in-place step applies *exactly* the same
sequence of rounded floating point operations as the textbook allocating
formulation, which lives in ``tests/oracles/optim_reference.py`` and is
asserted bitwise against this class in ``tests/test_nn_backend.py``.

The step is flat: the models trained here have a handful of parameters,
most of them bias-sized, so a per-parameter step is fourteen ufunc
dispatches per parameter on a few dozen elements each.  When every
parameter has a gradient (PPO, encoder pre-training, censor ``fit``) Adam
gathers the gradients into its flat buffer and runs the update once over
all elements; elementwise arithmetic does not depend on where an element
sits, so the result is bit-identical to the per-parameter step
(``tests/oracles/composed_ppo.py``).  A parameter without a gradient must
keep its moments untouched, so then the same update runs per parameter on
the views.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..utils.validation import check_positive
from .layers import Parameter

__all__ = ["Adam", "clip_grad_norm"]


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


def _flat_buffers(
    parameters: Sequence[Parameter], count: int
) -> Tuple[np.ndarray, List[List[np.ndarray]]]:
    """``count`` zeroed flat float64 buffers, each as long as all parameters
    together, plus per buffer one view per parameter, shaped like it."""
    bounds = np.cumsum([0] + [p.data.size for p in parameters])
    flat = np.zeros((count, bounds[-1]))
    views = [
        [row[start:end].reshape(p.data.shape) for p, start, end in zip(parameters, bounds, bounds[1:])]
        for row in flat
    ]
    return flat, views


class Adam:
    """Adam (Kingma & Ba, 2014) with the usual ``β₁ = 0.9``, ``β₂ = 0.999``
    and ``ε = 1e-8``.

    The moment and scratch views alias flat buffers, which ``pickle`` /
    ``deepcopy`` do not preserve: build a fresh optimizer in the process
    that steps it (every caller here does), do not ship one.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = check_positive(lr, "learning rate")
        self._step = 0
        self._flat_state, (self._m, self._v, self._grads) = _flat_buffers(self.parameters, 3)
        self._flat_scratch, (self._scratch_a, self._scratch_b) = _flat_buffers(self.parameters, 2)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        if any(p.grad is None for p in self.parameters):
            for param, m, v, s_a, s_b in zip(
                self.parameters, self._m, self._v, self._scratch_a, self._scratch_b
            ):
                if param.grad is None:
                    continue
                self._decrement(param.grad, m, v, s_a, s_b, bias1, bias2)
                param.data -= s_b
            return
        for param, grad in zip(self.parameters, self._grads):
            grad[...] = param.grad
        m, v, grad = self._flat_state
        s_a, s_b = self._flat_scratch
        self._decrement(grad, m, v, s_a, s_b, bias1, bias2)
        for param, s_b in zip(self.parameters, self._scratch_b):
            param.data -= s_b

    def _decrement(self, grad, m, v, s_a, s_b, bias1: float, bias2: float) -> None:
        """Advance the moments ``m`` / ``v`` by ``grad`` and leave the amount
        to subtract from the parameters in ``s_b``."""
        # Operation-for-operation the textbook allocating step, with every
        # intermediate written into one of the two scratch buffers:
        #   s_b = (1-b1)*g        ; m = m*b1 + s_b
        #   s_b = ((1-b2)*g)*g    ; v = v*b2 + s_b
        #   s_a = sqrt(v/bias2) + eps
        #   s_b = (lr*(m/bias1)) / s_a ; p -= s_b
        # identical rounding at every step, hence identical trajectories.
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
