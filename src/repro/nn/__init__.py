"""Minimal neural-network substrate (numpy autodiff): what training calls.

Public surface:

* :class:`Tensor`, :func:`no_grad` — reverse-mode autodiff core.
* :mod:`repro.nn.functional` — activations, the training losses, the
  Gaussian policy helpers and the fused MLP / recurrent kernels.
* Layers — :class:`Linear`, :class:`Sequential`, :class:`Conv1d` (DF's
  fused conv–ReLU–pool block), :class:`GRU`, :class:`LSTM`.
* Optimizer — :class:`Adam`, plus :func:`clip_grad_norm`.
"""

from . import backend, functional
from .backend import ExecutionBackend, active_backend
from .conv import Conv1d
from .init import kaiming_uniform, orthogonal, xavier_uniform
from .layers import Linear, Module, Parameter, ReLU, Sequential, Tanh
from .optim import Adam, clip_grad_norm
from .recurrent import GRU, GRUCell, LSTM, LSTMCell
from .serialization import (
    load_state_dict,
    metadata_from_bytes,
    pack_legacy_recurrent,
    save_state_dict,
    split_prefixed_state,
    state_dict_from_bytes,
    state_dict_to_bytes,
)
from .tensor import (
    Tensor,
    as_tensor,
    is_grad_enabled,
    no_grad,
    rc_matmul,
    row_consistent_matmul,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "row_consistent_matmul",
    "rc_matmul",
    "backend",
    "ExecutionBackend",
    "active_backend",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Sequential",
    "ReLU",
    "Tanh",
    "Conv1d",
    "GRUCell",
    "GRU",
    "LSTMCell",
    "LSTM",
    "Adam",
    "clip_grad_norm",
    "xavier_uniform",
    "kaiming_uniform",
    "orthogonal",
    "save_state_dict",
    "state_dict_to_bytes",
    "state_dict_from_bytes",
    "metadata_from_bytes",
    "load_state_dict",
    "split_prefixed_state",
    "pack_legacy_recurrent",
]
