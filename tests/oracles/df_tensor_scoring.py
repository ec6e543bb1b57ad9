"""Equivalence oracle: Deep Fingerprinting scoring on the autograd graph, verbatim.

This is the body of ``DeepFingerprintingClassifier._score_flows`` as it stood
before scoring moved onto plain arrays: the channel-first input of
``_to_batch`` wrapped in a ``Tensor`` and walked through ``Module.__call__``
(the network's conv blocks and ``Linear`` forwards) under ``no_grad()``.
It is kept only as the reference the bitwise tests in
``tests/test_censors.py`` compare the array scoring against -- do not
optimise or "fix" it.  The only edit turns the method into a function
taking the censor first.  Because it calls the network's ``forward``,
patching :func:`tests.oracles.conv_reference.composed_relu_pool` over
``nn.Conv1d.relu_pool`` runs it on the composed Conv1d → ReLU → MaxPool1d
graph.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import nn
from repro.nn import functional as F

__all__ = ["tensor_score_flows"]


def tensor_score_flows(censor, flows: Sequence) -> np.ndarray:
    batch = censor._to_batch(flows)
    with nn.no_grad():
        logits = censor.network(nn.Tensor(batch))
    return F.stable_sigmoid(logits.data.reshape(-1))
