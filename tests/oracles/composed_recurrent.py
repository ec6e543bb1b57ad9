"""Equivalence oracle: the composed-graph recurrent cells, verbatim.

This is ``src/repro/nn/_composed.py`` as it stood before it left ``src``: the
pre-fusion per-gate formulation, one weight matrix and bias per gate, every
gate evaluated through individual :class:`~repro.nn.Tensor` operations, so a
single step records ~15 autograd nodes.  The library runs on the fused
packed-gate kernels in :mod:`repro.nn.recurrent`; these classes are kept only
as the ground truth ``tests/test_nn_fused_recurrent.py`` checks the fused
forward/backward against -- do not optimise or "fix" them; the only edits are
the absolute ``repro`` imports.  Their per-gate parameter names (``w_xr``,
``b_f``, …) are also the legacy checkpoint layout that
:func:`repro.nn.serialization.pack_legacy_recurrent` folds into the packed
format.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["ComposedGRUCell", "ComposedGRU", "ComposedLSTMCell", "ComposedLSTM"]


class ComposedGRUCell(Module):
    """Per-gate GRU cell built from composed Tensor operations."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = rng or np.random.default_rng()
        for gate in ("r", "z", "n"):
            setattr(self, f"w_x{gate}", Parameter(init.xavier_uniform((input_size, hidden_size), rng=rng)))
            setattr(self, f"w_h{gate}", Parameter(init.orthogonal((hidden_size, hidden_size), rng=rng)))
            setattr(self, f"b_{gate}", Parameter(init.zeros((hidden_size,))))

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        x, hidden = as_tensor(x), as_tensor(hidden)
        reset = (x @ self.w_xr + hidden @ self.w_hr + self.b_r).sigmoid()
        update = (x @ self.w_xz + hidden @ self.w_hz + self.b_z).sigmoid()
        candidate = (x @ self.w_xn + reset * (hidden @ self.w_hn) + self.b_n).tanh()
        return (1.0 - update) * candidate + update * hidden

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class ComposedGRU(Module):
    """Multi-layer composed-graph GRU (step-by-step sequence forward)."""

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
        self._cells: List[ComposedGRUCell] = []
        for layer in range(num_layers):
            cell = ComposedGRUCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            self.register_module(f"cell{layer}", cell)
            self._cells.append(cell)

    def initial_state(self, batch_size: int) -> List[Tensor]:
        return [cell.initial_state(batch_size) for cell in self._cells]

    def step(self, x_t: Tensor, hidden: Optional[List[Tensor]] = None) -> List[Tensor]:
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

    def forward(
        self, x: Tensor, hidden: Optional[List[Tensor]] = None
    ) -> Tuple[Tensor, List[Tensor]]:
        x = as_tensor(x)
        batch, steps, _ = x.shape
        if hidden is None:
            hidden = self.initial_state(batch)
        else:
            hidden = list(hidden)
        outputs: List[Tensor] = []
        for t in range(steps):
            hidden = self.step(x[:, t, :], hidden)
            outputs.append(hidden[-1])
        return Tensor.stack(outputs, axis=1), hidden


class ComposedLSTMCell(Module):
    """Per-gate LSTM cell built from composed Tensor operations."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = rng or np.random.default_rng()
        for gate in ("i", "f", "g", "o"):
            setattr(self, f"w_x{gate}", Parameter(init.xavier_uniform((input_size, hidden_size), rng=rng)))
            setattr(self, f"w_h{gate}", Parameter(init.orthogonal((hidden_size, hidden_size), rng=rng)))
            bias = np.ones(hidden_size) if gate == "f" else np.zeros(hidden_size)
            setattr(self, f"b_{gate}", Parameter(bias))

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        hidden, cell = state
        x, hidden, cell = as_tensor(x), as_tensor(hidden), as_tensor(cell)
        input_gate = (x @ self.w_xi + hidden @ self.w_hi + self.b_i).sigmoid()
        forget_gate = (x @ self.w_xf + hidden @ self.w_hf + self.b_f).sigmoid()
        candidate = (x @ self.w_xg + hidden @ self.w_hg + self.b_g).tanh()
        output_gate = (x @ self.w_xo + hidden @ self.w_ho + self.b_o).sigmoid()
        new_cell = forget_gate * cell + input_gate * candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class ComposedLSTM(Module):
    """Multi-layer composed-graph LSTM (step-by-step sequence forward)."""

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
        self._cells: List[ComposedLSTMCell] = []
        for layer in range(num_layers):
            cell = ComposedLSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            self.register_module(f"cell{layer}", cell)
            self._cells.append(cell)

    def initial_state(self, batch_size: int) -> List[Tuple[Tensor, Tensor]]:
        return [cell.initial_state(batch_size) for cell in self._cells]

    def step(
        self, x_t: Tensor, state: Optional[List[Tuple[Tensor, Tensor]]] = None
    ) -> List[Tuple[Tensor, Tensor]]:
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
        x = as_tensor(x)
        batch, steps, _ = x.shape
        if state is None:
            state = self.initial_state(batch)
        else:
            state = list(state)
        outputs: List[Tensor] = []
        for t in range(steps):
            state = self.step(x[:, t, :], state)
            outputs.append(state[-1][0])
        return Tensor.stack(outputs, axis=1), state
