"""Recurrent layers: GRU and LSTM over (batch, time, features) sequences.

The Amoeba StateEncoder is a two-layer GRU (paper Appendix A.2) and one of
the censoring classifiers is a multi-layer LSTM (Rimmer et al.).  Both are
implemented here on top of the autodiff :class:`~repro.nn.Tensor`.

Parameter layout (cuDNN-style packing)
--------------------------------------
Each layer's cell stores three packed parameters instead of one weight/bias
triple per gate:

* ``w_x`` — ``(input_size, n_gates * hidden_size)``: all input projections
  side by side (GRU gate order ``[r | z | n]``, LSTM ``[i | f | g | o]``).
* ``w_h`` — ``(hidden_size, n_gates * hidden_size)``: all hidden projections.
* ``b``  — ``(n_gates * hidden_size,)``: all biases.

The cells are parameter holders (they give checkpoints their ``cellN.w_x``
keys); the compute lives in :mod:`repro.nn.functional`.  Training runs each
layer × time block as one fused node (``gru_sequence`` / ``lstm_sequence``,
input projections hoisted into a single GEMM); the GRU's inference step,
:meth:`GRU.step_arrays`, runs the active backend's ``gru_step`` (the
composition of ``gru_cell_forward`` per layer, or one compiled call) on
plain arrays.
Initialisation draws the per-gate blocks in the same order and with the same
shapes as the legacy per-gate layout, so seeded runs produce identical
weights; legacy per-gate checkpoints are folded into the packed layout on
load by :func:`repro.nn.serialization.pack_legacy_recurrent`.
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


class GRUCell(_PackedRecurrentCell):
    """Packed parameters of one gated-recurrent-unit layer.

    Follows the standard formulation::

        r = sigmoid(x W_xr + h W_hr + b_r)
        z = sigmoid(x W_xz + h W_hz + b_z)
        n = tanh(x W_xn + r * (h W_hn) + b_n)
        h' = (1 - z) * n + z * h

    with the three gates packed into single ``w_x`` / ``w_h`` / ``b``
    parameters.
    """

    GATES = ("r", "z", "n")

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

    def step_arrays(self, x_t: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """Advance the stack by one timestep, on float64 arrays and off the graph.

        ``x_t`` is the ``(batch, input_size)`` newest input and ``hidden`` a
        ``(num_layers, batch, hidden_size)`` slab; so is the result, which is
        freshly allocated and whose top layer (``[-1]``) is the sequence
        representation after folding in ``x_t``.  The step is the active
        backend's :meth:`~repro.nn.backend.ExecutionBackend.gru_step` — one
        compiled call under ``blocked``, ``gru_cell_forward`` per layer on the
        row-consistent kernel under ``reference`` — and the weights are read
        from the parameters at call time, so stepping a sequence one element
        at a time gives bit for bit the states :meth:`forward` computes over
        the whole sequence under ``row_consistent_matmul()`` — whatever
        replaced or updated ``param.data`` since the last call.  This is what
        lets the rollout engine encode histories in O(1) work per tick.
        """
        cells = [(cell.w_x.data, cell.w_h.data, cell.b.data) for cell in self._cells]
        return _backend.active_backend().gru_step(x_t, hidden, cells)

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
    """Packed parameters of one long short-term memory layer, with a
    forget-gate bias of 1.

    The four gates (``i``, ``f``, ``g``, ``o``) are packed into single
    ``w_x`` / ``w_h`` / ``b`` parameters.
    """

    GATES = ("i", "f", "g", "o")

    def _bias_for_gate(self, gate: str) -> np.ndarray:
        return np.ones(self.hidden_size) if gate == "f" else np.zeros(self.hidden_size)

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
