"""Censoring-classifier interface.

Every censor model — neural (DF, SDAE, LSTM), kernel (CUMUL/SVM) or
tree-based (DT, RF) — implements the same small contract so the Amoeba
environment, the white-box baselines and the evaluation harness can treat
them interchangeably:

* ``fit(flows, labels)`` trains on labelled flows;
* ``predict_score(flow)`` returns the probability that the flow is **benign**
  (class 1), matching the paper's decision function where a score below 0.5
  means the flow is blocked;
* ``classify_many(flows)`` applies the 0.5 threshold, returning 1 (allow)
  or 0 (block) per flow;
* every scoring call increments ``query_count`` so experiments can reason
  about the number of interactions with the censor (Figure 7);
* ``packet_window`` says how many leading packets a score reads, so a
  caller may score one flow for every input that agrees on that window.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from ..flows.flow import Flow, FlowLabel

__all__ = ["CensorClassifier", "DECISION_THRESHOLD"]

DECISION_THRESHOLD = 0.5


class CensorClassifier(abc.ABC):
    """Abstract base class for all censoring classifiers."""

    #: short identifier used in tables and result dictionaries
    name: str = "censor"
    #: whether the model exposes gradients (needed by white-box attacks)
    differentiable: bool = False

    def __init__(self) -> None:
        self._query_count = 0
        self._fitted = False

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def fit(self, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None) -> "CensorClassifier":
        """Train the classifier on labelled flows.

        ``labels`` defaults to each flow's own ``label`` attribute.
        """

    @staticmethod
    def _resolve_labels(flows: Sequence[Flow], labels: Optional[Sequence[int]]) -> np.ndarray:
        if labels is None:
            labels = [flow.label for flow in flows]
        labels = np.asarray(labels, dtype=int).reshape(-1)
        if len(labels) != len(flows):
            raise ValueError("labels and flows must have the same length")
        if not np.all(np.isin(labels, [FlowLabel.CENSORED, FlowLabel.BENIGN])):
            raise ValueError("labels must be 0 (censored) or 1 (benign)")
        return labels

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{self.name} has not been fitted")

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    @property
    def packet_window(self) -> Optional[int]:
        """How many leading packets a flow's score reads (``None``: all).

        Two flows that agree on their first ``packet_window`` packets score
        alike at the same batch position, which is what lets
        :meth:`repro.core.vec_env.VectorFlowEnv.settle` score each episode
        prefix past the window once.  Derived from the model, never set.
        """
        return None

    @abc.abstractmethod
    def _score_flows(self, flows: Sequence[Flow]) -> np.ndarray:
        """Return benign probabilities for ``flows`` without touching counters."""

    def predict_scores(self, flows: Sequence[Flow]) -> np.ndarray:
        """Benign probability per flow; increments the query counter.

        Query-count contract: every flow scored counts as exactly **one**
        censor query, whether it arrives through a batched call or through
        ``len(flows)`` separate :meth:`predict_score` calls — the batched
        rollout engine relies on this so Figures 7–9 (queries-to-convergence)
        are invariant to how scoring work is scheduled.  An empty sequence
        performs no queries and returns an empty ``float64`` array.  A NaN
        score raises :class:`FloatingPointError` instead of reading as
        "blocked" downstream.
        """
        self._require_fitted()
        flows = list(flows)
        if not flows:
            return np.empty(0, dtype=np.float64)
        self._query_count += len(flows)
        scores = np.asarray(self._score_flows(flows), dtype=np.float64).reshape(-1)
        if len(scores) != len(flows):
            raise RuntimeError("classifier returned a wrong number of scores")
        n_nan = int(np.count_nonzero(np.isnan(scores)))
        if n_nan:
            raise FloatingPointError(
                f"{self.name} censor returned NaN for {n_nan} of {len(scores)} flows"
            )
        return np.clip(scores, 0.0, 1.0)

    def predict_score(self, flow: Flow) -> float:
        return float(self.predict_scores([flow])[0])

    def classify_many(self, flows: Sequence[Flow]) -> np.ndarray:
        return (self.predict_scores(flows) >= DECISION_THRESHOLD).astype(int)

    # ------------------------------------------------------------------ #
    # Query accounting
    # ------------------------------------------------------------------ #
    @property
    def query_count(self) -> int:
        """Number of flows scored since construction or the last reset."""
        return self._query_count

    def reset_query_count(self) -> None:
        self._query_count = 0

    def record_external_queries(self, count: int) -> None:
        """Count queries this censor answered without scoring them here.

        The sharded rollout engine forks one censor replica per worker; each
        replica counts the flows it scores locally and the driver folds the
        per-collect deltas back here.  ``VectorFlowEnv.settle`` counts the
        steps whose input it already had a score for.  Either way
        ``query_count`` keeps the one-query-per-flow accounting of
        single-process, one-step-at-a-time collection.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._query_count += int(count)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, fitted={self._fitted})"
