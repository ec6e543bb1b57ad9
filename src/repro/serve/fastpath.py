"""Float32 end-to-end serving path.

``ServeConfig(backend="float32")`` used to change only the matmul dtype: every
flush still round-tripped through the float64 Tensor machinery — encoder
states stored as f64, operands cast f64→f32→f64 per matmul, autograd-node
bookkeeping on every forward.  :class:`Float32ServingPath` removes the
round-trip: it snapshots float32 copies of the encoder GRU cells and the
actor MLP at server construction and runs the per-flush forwards as plain
float32 numpy, with the per-session
:class:`~repro.core.state_encoder.EncoderState` kept in float32 *between*
flushes.  Nothing widens back to float64 until the chosen action leaves the
policy for the (float64) shaping emulator.

Accuracy contract (documented, tested in ``tests/test_serve.py``): the gate
math is the same functional form as the float64 oracle
(:func:`repro.nn.backend._np_gru_gates` is dtype-generic), evaluated in
float32, so served decisions track the float64 path to float32 rounding —
emitted packet sizes and delays agree within a small relative tolerance,
decision counts match, and deadline/fallback behaviour is identical under
identical latency conditions.  Bit-equivalence to ``Amoeba.attack`` is
deliberately given up; never use this path for training or equivalence
testing.

Weight snapshots are taken once at construction: a server whose actor or
encoder parameters are mutated afterwards must build a new
:class:`Float32ServingPath` (the :class:`~repro.serve.server.PolicyServer`
constructs one per server, and servers are built per checkpoint).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.actor_critic import GaussianActor
from ..core.state_encoder import StateEncoder, split_states, stack_states
from ..nn.backend import _np_gru_gates
from ..nn.layers import Linear, ReLU, Tanh

__all__ = ["Float32ServingPath"]


class Float32ServingPath:
    """Float32 snapshots of the serving policy.

    The two entry points mirror what a :class:`PolicyServer` flush needs
    (sessions get their float32 zero state from
    ``StateEncoder.initial_state(dtype=np.float32)``):

    * :meth:`step_pairs` — the batched incremental GRU step
      (float32 twin of :meth:`StateEncoder.step_pairs`, same slab boundary),
    * :meth:`act` — the deterministic actor forward on one float32 batch.
    """

    def __init__(self, actor: GaussianActor, encoder: StateEncoder) -> None:
        self.hidden_size = int(encoder.hidden_size)
        self.num_layers = int(encoder.num_layers)

        # Packed GRU cell weights, one (w_x, w_h, b) triple per layer.
        self._cells: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (
                np.ascontiguousarray(cell.w_x.data, dtype=np.float32),
                np.ascontiguousarray(cell.w_h.data, dtype=np.float32),
                np.ascontiguousarray(cell.b.data, dtype=np.float32),
            )
            for cell in encoder.gru._cells
        ]

        # The actor body as a flat op list; anything beyond Linear/Tanh/ReLU
        # has no float32 twin here and must fail at construction, not
        # mid-flush.
        self._mlp: List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]] = []
        for module in actor.body._ordered:
            if isinstance(module, Linear):
                self._mlp.append(
                    (
                        "linear",
                        np.ascontiguousarray(module.weight.data, dtype=np.float32),
                        None
                        if module.bias is None
                        else np.ascontiguousarray(module.bias.data, dtype=np.float32),
                    )
                )
            elif isinstance(module, Tanh):
                self._mlp.append(("tanh", None, None))
            elif isinstance(module, ReLU):
                self._mlp.append(("relu", None, None))
            else:
                raise TypeError(
                    f"float32 serving path cannot mirror actor module "
                    f"{type(module).__name__}; supported: Linear, Tanh, ReLU"
                )
        first_linear = next(w for kind, w, _ in self._mlp if kind == "linear")
        if first_linear.shape[0] != 2 * self.hidden_size:
            raise ValueError(
                f"actor expects state_dim={first_linear.shape[0]}, encoder "
                f"produces {2 * self.hidden_size}"
            )

    def step_pairs(self, pairs: np.ndarray, states):
        """Fold one (size, delay) pair per session, entirely in float32.

        Same boundary as :meth:`StateEncoder.step_pairs` — a float32
        ``(num_layers, n, hidden_size)`` slab in and out, or a sequence of
        :class:`EncoderState` stacked and split around it; the gate math is
        the dtype-generic oracle evaluated on float32 operands, so the only
        difference from the float64 path is rounding.
        """
        if not isinstance(states, np.ndarray):
            return split_states(self.step_pairs(pairs, stack_states(states)))
        x = np.ascontiguousarray(pairs, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != 2:
            raise ValueError(f"expected (n, 2) pairs, got shape {x.shape}")
        if states.shape != (self.num_layers, x.shape[0], self.hidden_size):
            raise ValueError(f"one state per row of pairs is required, got a {states.shape} slab")
        new_states = np.empty(states.shape, dtype=np.float32)
        for layer, (w_x, w_h, b) in enumerate(self._cells):
            hidden = states[layer]
            x = _np_gru_gates(x @ w_x, hidden @ w_h, b, hidden)[0]
            new_states[layer] = x
        return new_states

    def act(self, states: np.ndarray) -> np.ndarray:
        """Deterministic actor forward (the Gaussian mean) in float32.

        Returns float64 actions — the shaping emulator downstream is the
        same float64 code the training environment runs.
        """
        x = np.asarray(states, dtype=np.float32)
        for kind, weight, bias in self._mlp:
            if kind == "linear":
                x = x @ weight
                if bias is not None:
                    x = x + bias
            elif kind == "tanh":
                x = np.tanh(x)
            else:  # relu
                x = np.maximum(x, np.float32(0.0))
        return x.astype(np.float64)
