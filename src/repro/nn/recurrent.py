"""Recurrent layers: GRU and LSTM cells and multi-layer sequence wrappers.

The Amoeba StateEncoder is a two-layer GRU (paper Appendix A.2) and one of
the censoring classifiers is a multi-layer LSTM (Rimmer et al.).  Both are
implemented here on top of the autodiff :class:`~repro.nn.Tensor`.

Parameter layout (cuDNN-style packing)
--------------------------------------
Each cell stores three packed parameters instead of one weight/bias triple
per gate:

* ``w_x`` — ``(input_size, n_gates * hidden_size)``: all input projections
  side by side (GRU gate order ``[r | z | n]``, LSTM ``[i | f | g | o]``).
* ``w_h`` — ``(hidden_size, n_gates * hidden_size)``: all hidden projections.
* ``b``  — ``(n_gates * hidden_size,)``: all biases.

One step is therefore two GEMMs (``x @ w_x`` and ``h @ w_h``) plus the gate
elementwise math, executed by the fused autograd primitives in
:mod:`repro.nn.functional` (``gru_cell`` / ``lstm_cell`` for single steps,
``gru_sequence`` / ``lstm_sequence`` for whole layer × time blocks with the
input projections hoisted into a single GEMM).  Initialisation draws the
per-gate blocks in the same order and with the same shapes as the legacy
per-gate layout, so seeded runs produce identical weights; legacy per-gate
checkpoints are folded into the packed layout on load by
:func:`repro.nn.serialization.pack_legacy_recurrent`.  The legacy per-gate
names (``w_xr``, ``b_f``, …) remain readable on the cells as views into the
packed arrays.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import backend as _backend
from . import init
from . import functional as F
from .layers import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["GRUCell", "GRU", "LSTMCell", "LSTM"]


class _PackedRecurrentCell(Module):
    """Shared packed-parameter plumbing for GRU/LSTM cells.

    Subclasses define ``GATES`` (the per-gate suffix order of the packed
    columns) and ``_bias_for_gate``.  The constructor draws each gate's
    blocks in the legacy order — input weight, hidden weight, bias — so the
    random stream matches the historical per-gate layout exactly.
    """

    GATES: Tuple[str, ...] = ()

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = rng or np.random.default_rng()
        w_x_blocks, w_h_blocks, b_blocks = [], [], []
        for gate in self.GATES:
            w_x_blocks.append(init.xavier_uniform((input_size, hidden_size), rng=rng))
            w_h_blocks.append(init.orthogonal((hidden_size, hidden_size), rng=rng))
            b_blocks.append(self._bias_for_gate(gate))
        self.w_x = Parameter(np.concatenate(w_x_blocks, axis=1), name="w_x")
        self.w_h = Parameter(np.concatenate(w_h_blocks, axis=1), name="w_h")
        self.b = Parameter(np.concatenate(b_blocks), name="b")

    def _bias_for_gate(self, gate: str) -> np.ndarray:
        return init.zeros((self.hidden_size,))

    def __getattr__(self, name: str):
        # Legacy per-gate views (w_xr, w_hz, b_f, ...) as slices of the
        # packed parameters, kept for introspection and tests.
        params = self.__dict__.get("_parameters", {})
        for prefix, packed_name in (("w_x", "w_x"), ("w_h", "w_h"), ("b_", "b")):
            gate = name[len(prefix):]
            if name.startswith(prefix) and gate in type(self).GATES and packed_name in params:
                index = type(self).GATES.index(gate)
                size = self.__dict__["hidden_size"]
                return Tensor(params[packed_name].data[..., index * size : (index + 1) * size])
        raise AttributeError(f"{type(self).__name__!s} object has no attribute {name!r}")


class GRUCell(_PackedRecurrentCell):
    """Single gated-recurrent-unit cell.

    Follows the standard formulation::

        r = sigmoid(x W_xr + h W_hr + b_r)
        z = sigmoid(x W_xz + h W_hz + b_z)
        n = tanh(x W_xn + r * (h W_hn) + b_n)
        h' = (1 - z) * n + z * h

    with the three gates packed into single ``w_x`` / ``w_h`` / ``b``
    parameters and evaluated by the fused :func:`repro.nn.functional.gru_cell`
    primitive (one autograd node per step).
    """

    GATES = ("r", "z", "n")

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        return F.gru_cell(as_tensor(x), as_tensor(hidden), self.w_x, self.w_h, self.b)

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class GRU(Module):
    """Multi-layer GRU applied over a (batch, time, features) sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self._cells: List[GRUCell] = []
        for layer in range(num_layers):
            cell = GRUCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            self.register_module(f"cell{layer}", cell)
            self._cells.append(cell)

    def initial_state(self, batch_size: int) -> List[Tensor]:
        """Zero per-layer hidden states for a batch of the given size."""
        return [cell.initial_state(batch_size) for cell in self._cells]

    def step(self, x_t: Tensor, hidden: Optional[List[Tensor]] = None) -> List[Tensor]:
        """Advance the stack by one timestep.

        Parameters
        ----------
        x_t:
            Tensor of shape ``(batch, input_size)`` — the newest input only.
        hidden:
            Optional list of per-layer hidden states, each ``(batch,
            hidden_size)``; zeros when omitted.

        Returns
        -------
        The new per-layer hidden state list; the top layer (``[-1]``) is the
        sequence representation after folding in ``x_t``.  Under
        :func:`repro.nn.row_consistent_matmul` incrementally stepping a
        sequence one element at a time produces exactly the same states as
        :meth:`forward` over the whole sequence — this is what lets the
        rollout engine encode histories in O(1) work per tick instead of
        re-encoding from scratch.
        """
        x_t = as_tensor(x_t)
        if hidden is None:
            hidden = self.initial_state(x_t.shape[0])
        new_hidden: List[Tensor] = []
        step_input = x_t
        for layer, cell in enumerate(self._cells):
            state = cell(step_input, hidden[layer])
            new_hidden.append(state)
            step_input = state
        return new_hidden

    def step_arrays(self, x_t: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """:meth:`step` for inference, on float64 arrays and off the graph.

        ``hidden`` is a ``(num_layers, batch, hidden_size)`` slab and so is
        the result, which is freshly allocated.  The matmuls always run on
        the active backend's row-consistent kernel, and the weights are read
        from the parameters at call time, so the result is bit-identical to
        :meth:`step` under ``no_grad()`` and ``row_consistent_matmul()``
        whatever replaced or updated ``param.data`` since the last call.
        """
        matmul = _backend.active_backend().matmul2d
        new_hidden = np.empty(hidden.shape)
        step_input = x_t
        for layer, cell in enumerate(self._cells):
            step_input = F.gru_cell_forward(
                step_input, hidden[layer], cell.w_x.data, cell.w_h.data, cell.b.data, matmul
            )[0]
            new_hidden[layer] = step_input
        return new_hidden

    def forward(
        self, x: Tensor, hidden: Optional[List[Tensor]] = None
    ) -> Tuple[Tensor, List[Tensor]]:
        """Run the GRU over a sequence.

        Parameters
        ----------
        x:
            Tensor of shape ``(batch, time, input_size)``.
        hidden:
            Optional list of per-layer hidden states, each ``(batch, hidden_size)``.

        Returns
        -------
        outputs, hidden:
            ``outputs`` has shape ``(batch, time, hidden_size)`` (top layer);
            ``hidden`` is the final per-layer hidden state list.

        Each layer runs as one fused :func:`repro.nn.functional.gru_sequence`
        call — a single autograd node covering the whole layer × time block,
        with all input projections hoisted into one GEMM.
        """
        x = as_tensor(x)
        batch = x.shape[0]
        if hidden is None:
            hidden = self.initial_state(batch)
        else:
            hidden = list(hidden)

        sequence = x
        new_hidden: List[Tensor] = []
        for layer, cell in enumerate(self._cells):
            sequence = F.gru_sequence(sequence, cell.w_x, cell.w_h, cell.b, hidden[layer])
            new_hidden.append(sequence[:, -1, :])
        return sequence, new_hidden


class LSTMCell(_PackedRecurrentCell):
    """Single long short-term memory cell with forget-gate bias of 1.

    The four gates (``i``, ``f``, ``g``, ``o``) are packed into single
    ``w_x`` / ``w_h`` / ``b`` parameters and evaluated by the fused
    :func:`repro.nn.functional.lstm_cell` primitive.
    """

    GATES = ("i", "f", "g", "o")

    def _bias_for_gate(self, gate: str) -> np.ndarray:
        return np.ones(self.hidden_size) if gate == "f" else np.zeros(self.hidden_size)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        hidden, cell = state
        return F.lstm_cell(
            as_tensor(x), (as_tensor(hidden), as_tensor(cell)), self.w_x, self.w_h, self.b
        )

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class LSTM(Module):
    """Multi-layer LSTM over (batch, time, features) sequences."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self._cells: List[LSTMCell] = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            self.register_module(f"cell{layer}", cell)
            self._cells.append(cell)

    def initial_state(self, batch_size: int) -> List[Tuple[Tensor, Tensor]]:
        """Zero per-layer (hidden, cell) states for a batch of the given size."""
        return [cell.initial_state(batch_size) for cell in self._cells]

    def step(
        self, x_t: Tensor, state: Optional[List[Tuple[Tensor, Tensor]]] = None
    ) -> List[Tuple[Tensor, Tensor]]:
        """Advance the stack by one timestep on a ``(batch, input_size)`` input."""
        x_t = as_tensor(x_t)
        if state is None:
            state = self.initial_state(x_t.shape[0])
        new_state: List[Tuple[Tensor, Tensor]] = []
        step_input = x_t
        for layer, cell in enumerate(self._cells):
            layer_state = cell(step_input, state[layer])
            new_state.append(layer_state)
            step_input = layer_state[0]
        return new_state

    def forward(
        self,
        x: Tensor,
        state: Optional[List[Tuple[Tensor, Tensor]]] = None,
    ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        """Run the LSTM over a ``(batch, time, input_size)`` sequence.

        Each layer is one fused :func:`repro.nn.functional.lstm_sequence`
        call; the per-layer final hidden state is the last output slice and
        the final cell state is the fused primitive's second output.
        """
        x = as_tensor(x)
        batch = x.shape[0]
        if state is None:
            state = self.initial_state(batch)
        else:
            state = list(state)

        sequence = x
        new_state: List[Tuple[Tensor, Tensor]] = []
        for layer, cell in enumerate(self._cells):
            h0, c0 = state[layer]
            sequence, final_cell = F.lstm_sequence(
                sequence, cell.w_x, cell.w_h, cell.b, as_tensor(h0), as_tensor(c0)
            )
            new_state.append((sequence[:, -1, :], final_cell))
        return sequence, new_state
