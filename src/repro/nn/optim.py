"""Adam, the one optimizer training uses, and global-norm gradient clipping.

The paper's hyperparameter search (Table 3) selects Adam with learning rate
5e-4 for Amoeba; the censors and the state encoder train with Adam too.

Allocation discipline
---------------------
The PPO update phase sits on every training iteration's critical path, and
an optimizer step runs once per minibatch per epoch.  ``Adam`` therefore
preallocates its state and scratch at construction — one flat float64
buffer per kind (:func:`_flat_buffers`), with one view per parameter shaped
like it — and mutates ``param.data`` in place rather than rebinding it.

The step is flat and is one execution-backend hook,
:meth:`~repro.nn.backend.ExecutionBackend.adam_step`: when every parameter
has a gradient (PPO, encoder pre-training, censor ``fit``) the gradients are
gathered into the flat buffer, the update runs once over all elements and
each parameter subtracts its segment.  Compiled, that is one pass; the
numpy expression it is checked against
(``backend._np_adam_decrement``: in-place ufuncs, zero allocations) applies
*exactly* the same sequence of rounded operations as the textbook
allocating formulation in ``tests/oracles/optim_reference.py`` and the
per-parameter step in ``tests/oracles/composed_ppo.py``, and elementwise
arithmetic does not depend on where an element sits, so all of them are
bit-identical (``tests/test_nn_backend.py``, ``tests/test_nn_ppo_nodes.py``).
A parameter without a gradient must keep its moments untouched, so then the
numpy update runs per parameter on the views.

``clip_grad_norm``'s norm is the backend's ``grad_norm`` hook, and both
bounds are refused unless finite and positive before anything is touched: a
negative ``max_norm`` would flip every gradient, a NaN one skip clipping,
and an infinite learning rate write inf / NaN into every weight.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..utils.validation import check_positive
from . import backend as _backend
from .layers import Parameter

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, which callers may log for diagnostics.
    The scaling genuinely is in place (``p.grad *= scale``): gradients are
    private accumulation buffers owned by the autodiff engine, so no copy is
    needed and none is made.
    """
    max_norm = check_positive(max_norm, "max_norm", finite=True)
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = _backend.active_backend().grad_norm([p.grad for p in params])
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
        self.lr = check_positive(lr, "learning rate", finite=True)
        self._step = 0
        self._flat_state, (self._m, self._v, _) = _flat_buffers(self.parameters, 3)
        self._flat_scratch, (self._scratch_a, self._scratch_b) = _flat_buffers(self.parameters, 2)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step += 1
        hyper = (
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            1.0 - self.beta1 ** self._step,
            1.0 - self.beta2 ** self._step,
        )
        grads = [param.grad for param in self.parameters]
        if any(grad is None for grad in grads):
            for param, grad, m, v, s_a, s_b in zip(
                self.parameters, grads, self._m, self._v, self._scratch_a, self._scratch_b
            ):
                if grad is None:
                    continue
                _backend._np_adam_decrement(grad, m, v, s_a, s_b, *hyper)
                param.data -= s_b
            return
        _backend.active_backend().adam_step(
            [param.data for param in self.parameters],
            grads,
            self._flat_state,
            self._flat_scratch,
            hyper,
        )
