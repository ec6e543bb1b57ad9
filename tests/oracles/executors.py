"""Equivalence oracle: the executor of ``repro.nn.backend`` without a kernel.

``repro.nn`` runs one executor, the compiled kernel pack, each hook of which
runs its numpy body wherever its kernel did not pass the load-time
self-check.  ``ExecutionBackend(compiled=False)`` is the same class with no
kernel at all: the einsum GEMM and every numpy body, which is exactly what
runs where no C toolchain can build the pack.  Every bitwise comparison of
the compiled paths pairs them with it.

``EXECUTORS`` names the two for parametrised tests; ``executor(name)`` is
one of them, and ``executing(name)`` runs a block with
:func:`repro.nn.active_backend` answering it, so every hook and
row-consistent matmul the library calls inside runs there.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.nn import backend as nnb

__all__ = ["EXECUTORS", "NUMPY", "executor", "executing"]

NUMPY = nnb.ExecutionBackend(compiled=False)
EXECUTORS = ("blocked", "numpy")


def executor(name: str) -> nnb.ExecutionBackend:
    """``"blocked"``: the executor the library runs; ``"numpy"``: the oracle."""
    return {"blocked": nnb._EXECUTOR, "numpy": NUMPY}[name]


@contextlib.contextmanager
def executing(name: str) -> Iterator[nnb.ExecutionBackend]:
    """Run the block with ``active_backend()`` returning ``executor(name)``."""
    shipped = nnb._EXECUTOR
    nnb._EXECUTOR = executor(name)
    try:
        yield nnb._EXECUTOR
    finally:
        nnb._EXECUTOR = shipped
