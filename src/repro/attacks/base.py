"""Shared infrastructure for the white-box baseline attacks (Section 5.2).

CW, NIDSGAN and BAP are *white-box* attacks: they require gradient access to
the censoring classifier and therefore only apply to the neural censors (DF,
SDAE, LSTM); Table 1 reports "N/A" for DT/RF/CUMUL.  They also operate on the
classifier's *input representation* (the feature/sequence space), not on
transmissible packet sequences — this is exactly the practicality gap the
paper highlights and that Amoeba closes.

All three attacks here work on any censor exposing ``prepare_input`` and
``forward_tensor``.  The attack result reports:

* **ASR** — fraction of perturbed inputs classified as benign;
* **estimated data overhead** — mean absolute perturbation of the size
  dimensions relative to the original payload (the paper notes these values
  "represent the maximal perturbation allowed" for the baselines);
* **estimated time overhead** — same for the delay dimensions;
* **queries** — number of classifier forward evaluations consumed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..censors.base import CensorClassifier
from ..flows.flow import Flow

__all__ = ["WhiteBoxAttack", "AttackReport", "split_size_delay"]


@dataclass(frozen=True)
class AttackReport:
    """Aggregate result of a white-box attack over a set of flows."""

    name: str
    attack_success_rate: float
    data_overhead: float
    time_overhead: float
    queries: int
    n_flows: int

    def as_dict(self) -> dict:
        return {
            "attack": self.name,
            "asr": self.attack_success_rate,
            "data_overhead": self.data_overhead,
            "time_overhead": self.time_overhead,
            "queries": self.queries,
            "n_flows": self.n_flows,
        }


def split_size_delay(inputs: np.ndarray, censor: CensorClassifier) -> Tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the size and delay dimensions of a censor input batch.

    Supported layouts:

    * DF:    (batch, 2, length)      — channel 0 is size, channel 1 is delay;
    * SDAE:  (batch, length * 2)     — flattened (size, delay) pairs;
    * LSTM:  (batch, length, 2)      — last axis is (size, delay).
    """
    shape = inputs.shape
    size_mask = np.zeros(shape, dtype=bool)
    delay_mask = np.zeros(shape, dtype=bool)
    if len(shape) == 3 and shape[1] == 2:
        size_mask[:, 0, :] = True
        delay_mask[:, 1, :] = True
    elif len(shape) == 3 and shape[2] == 2:
        size_mask[:, :, 0] = True
        delay_mask[:, :, 1] = True
    elif len(shape) == 2:
        size_mask[:, 0::2] = True
        delay_mask[:, 1::2] = True
    else:
        raise ValueError(f"unsupported censor input layout: {shape}")
    return size_mask, delay_mask


class WhiteBoxAttack(abc.ABC):
    """Base class for gradient-based attacks on differentiable censors."""

    name = "whitebox"

    def __init__(self, censor: CensorClassifier) -> None:
        if not getattr(censor, "differentiable", False):
            raise ValueError(
                f"{type(censor).__name__} does not expose gradients; "
                "white-box attacks only apply to neural censors"
            )
        if not hasattr(censor, "prepare_input") or not hasattr(censor, "forward_tensor"):
            raise ValueError("censor must provide prepare_input() and forward_tensor()")
        self.censor = censor
        self._queries = 0

    # ------------------------------------------------------------------ #
    @property
    def queries(self) -> int:
        """Number of classifier forward evaluations performed so far."""
        return self._queries

    def _count_queries(self, batch_size: int) -> None:
        self._queries += int(batch_size)

    def _benign_probability(self, inputs: nn.Tensor) -> nn.Tensor:
        """Differentiable benign probability; counts one query per sample."""
        self._count_queries(inputs.shape[0])
        return self.censor.forward_tensor(inputs)

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def perturb(self, inputs: np.ndarray) -> np.ndarray:
        """Return adversarially perturbed inputs (same shape as ``inputs``)."""

    # ------------------------------------------------------------------ #
    def evaluate(self, flows: Sequence[Flow]) -> AttackReport:
        """Perturb ``flows`` and measure ASR and estimated overheads."""
        flows = list(flows)
        if not flows:
            raise ValueError("cannot evaluate on an empty flow list")
        inputs = self.censor.prepare_input(flows)
        adversarial = self.perturb(inputs)
        if adversarial.shape != inputs.shape:
            raise RuntimeError("perturbed inputs must keep the original shape")

        with nn.no_grad():
            scores = self.censor.forward_tensor(nn.Tensor(adversarial)).data.reshape(-1)
        successes = scores >= 0.5

        size_mask, delay_mask = split_size_delay(inputs, self.censor)
        size_reference = np.abs(inputs[size_mask]).sum()
        delay_reference = np.abs(inputs[delay_mask]).sum()
        size_perturbation = np.abs(adversarial[size_mask] - inputs[size_mask]).sum()
        delay_perturbation = np.abs(adversarial[delay_mask] - inputs[delay_mask]).sum()

        data_overhead = (
            size_perturbation / (size_reference + size_perturbation)
            if size_reference + size_perturbation > 0
            else 0.0
        )
        time_overhead = (
            delay_perturbation / (delay_reference + delay_perturbation)
            if delay_reference + delay_perturbation > 0
            else 0.0
        )
        return AttackReport(
            name=self.name,
            attack_success_rate=float(np.mean(successes)),
            data_overhead=float(data_overhead),
            time_overhead=float(time_overhead),
            queries=self.queries,
            n_flows=len(flows),
        )
