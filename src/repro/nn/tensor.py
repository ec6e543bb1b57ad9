"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
implementation relies on PyTorch; this environment has no PyTorch, so we
provide a small but complete autodiff engine with the operator coverage the
rest of the library needs (dense layers, recurrent cells, 1-D convolutions,
Gaussian policies and the usual losses).

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (always ``float64``) together
  with an optional gradient and a closure that propagates gradients to its
  parents.  Calling :meth:`Tensor.backward` orders the recorded graph with
  an iterative post-order walk (:func:`_topological_order` — an explicit
  stack, so a graph may be deeper than the interpreter's recursion limit)
  and runs the closures from the root down, accumulating gradients.  The
  order is part of the numerical contract: a tensor fed by several nodes
  sums their gradients in that order, and floating-point addition does not
  commute across three terms.
* Hot training paths record few, fat nodes with closed-form backwards
  (:mod:`repro.nn.functional`: the recurrent sequences, the tanh MLP, the
  Gaussian log-density, the PPO losses) rather than one node per ufunc.
* Broadcasting is supported for elementwise operations; gradients of
  broadcast operands are reduced back to the original shape with
  :func:`_unbroadcast`.
* ``.grad`` is a private buffer (``clip_grad_norm`` scales it in place): a
  first gradient that is borrowed — the upstream gradient passed through,
  a view of it, a cache — is copied, while one the node has just allocated
  (a product, a reduction, an elementwise result) is handed over as is
  (:meth:`Tensor._accumulate_fresh`).
* Graph recording can be disabled globally with :func:`no_grad`, which is
  used for inference-only passes (e.g. the censor classifying a flow, or the
  actor generating rollouts).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import backend as _backend

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "row_consistent_matmul",
    "rc_matmul",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return ``True`` when operations record the autodiff graph."""
    return _GRAD_ENABLED


_ROW_CONSISTENT_MATMUL = False


@contextlib.contextmanager
def row_consistent_matmul():
    """Context manager forcing batch-size-invariant 2-D matmul forwards.

    BLAS picks different kernels (GEMV vs. GEMM, different micro-tilings)
    depending on the number of rows of the left operand, so the ``i``-th row
    of ``X @ W`` is generally *not* bit-identical to ``X[i:i+1] @ W``.  Inside
    this context, 2-D matmul forwards are executed by the active
    :mod:`repro.nn.backend` kernel — the ``blocked`` default and the
    ``reference`` einsum oracle both accumulate each output element over the
    reduction axis in a fixed order, making each output row independent of
    how the batch is chunked.

    The vectorized rollout engine runs policy/encoder inference under this
    context so that stepping ``N`` environments as one ``(N, d)`` forward is
    bit-equivalent to ``N`` separate ``(1, d)`` forwards — the property the
    batched-vs-sequential equivalence tests rely on.  Gradients are
    unaffected (training consumes identical inputs either way); large censor
    forwards stay on the fast BLAS path by simply not entering the context.
    """
    global _ROW_CONSISTENT_MATMUL
    previous = _ROW_CONSISTENT_MATMUL
    _ROW_CONSISTENT_MATMUL = True
    try:
        yield
    finally:
        _ROW_CONSISTENT_MATMUL = previous


def rc_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw-array 2-D matmul honouring :func:`row_consistent_matmul`.

    This is the single choke point for every matmul forward in the library:
    :meth:`Tensor.matmul` and all fused recurrent gate projections in
    :mod:`repro.nn.functional` route through it.  Inside a
    :func:`row_consistent_matmul` context the multiplication is delegated to
    the active :class:`repro.nn.backend.ExecutionBackend` kernel, which owns
    the accumulation-order, dtype and scratch-allocation policy; outside the
    context the fast BLAS path is used unconditionally.  Routing everything
    through one kernel is what makes backend swaps safe: no caller can hold
    a stale private copy of the einsum branch whose bits could de-synchronise
    from the rest of the library.
    """
    if _ROW_CONSISTENT_MATMUL and a.ndim == 2 and b.ndim == 2:
        return _backend.active_backend().matmul2d(a, b)
    return a @ b


def _topological_order(root: "Tensor") -> List["Tensor"]:
    """Post-order of the graph under ``root``: parents left to right, a node
    after all of its parents — the order the recursive walk produced."""
    topo: List[Tensor] = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if id(parent) in visited:
                continue
            visited.add(id(parent))
            if parent._parents:
                stack.append((parent, iter(parent._parents)))
                break
            topo.append(parent)
        else:
            topo.append(node)
            stack.pop()
    return topo


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` to this tensor's gradient.  A first gradient is
        copied: ``grad`` may be borrowed (the upstream gradient passed
        through, a view of it, a forward cache), and ``.grad`` is a private
        buffer that ``clip_grad_norm`` scales in place."""
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _accumulate_fresh(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for an array its caller has just allocated
        and keeps no reference to (a product, a reduction, an elementwise
        result): a first gradient adopts it rather than copying it, if it
        is a writable C-contiguous float64 array — the buffer a copy would
        have made."""
        if (
            self.grad is None
            and type(grad) is np.ndarray
            and grad.dtype == np.float64
            and grad.flags.c_contiguous
            and grad.flags.writeable
        ):
            self.grad = grad
        else:
            self._accumulate(grad)

    def _accumulate_reduced(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` reduced to this tensor's shape: a reduction is
        fresh and handed over, ``grad`` itself (equal shapes) is borrowed."""
        reduced = _unbroadcast(grad, self.data.shape)
        if reduced is grad:
            self._accumulate(grad)
        else:
            self._accumulate_fresh(reduced)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo = _topological_order(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_reduced(grad)
            if other.requires_grad:
                other._accumulate_reduced(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate_fresh(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate_fresh(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient flows only where the input was inside range."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ------------------------------------------------------------------ #
    # Linear algebra / shape manipulation
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        # The forward routes through rc_matmul — the shared backend choke
        # point — rather than re-implementing the row-consistent branch here.
        out_data = rc_matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate_fresh(np.outer(grad, other.data).reshape(self.data.shape))
                else:
                    self._accumulate_fresh(
                        _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.data.shape)
                    )
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate_fresh(np.outer(self.data, grad).reshape(other.data.shape))
                else:
                    other._accumulate_fresh(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.data.shape)
                    )

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        out_data = np.transpose(self.data, axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(self.data.shape[0], -1) if self.data.ndim > 1 else self

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate_fresh(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Combination ops
    # ------------------------------------------------------------------ #
    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slices = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, slices):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> "Tensor":
        a, b = as_tensor(a), as_tensor(b)
        condition = np.asarray(condition, dtype=bool)
        out_data = np.where(condition, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate_fresh(_unbroadcast(grad * condition, a.data.shape))
            if b.requires_grad:
                b._accumulate_fresh(_unbroadcast(grad * (~condition), b.data.shape))

        return Tensor._make(out_data, (a, b), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already a Tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
