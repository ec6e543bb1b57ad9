"""Censor-level evaluation metrics.

:func:`classifier_detection_report` gives a censoring classifier's detection
performance (accuracy / F1 with the *censored* class as the positive class,
which is what Table 1's "no attack" columns report).  The attack-level
metrics of Section 5.3 (attack success rate, data overhead, time overhead)
have one definition: each finished episode's summary
(:class:`repro.core.env.EpisodeSummary`), averaged by
:meth:`repro.core.agent.Amoeba.evaluate`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..censors.base import CensorClassifier
from ..flows.flow import Flow, FlowLabel
from ..ml.metrics import accuracy_score, f1_score

__all__ = ["classifier_detection_report"]


def classifier_detection_report(
    censor: CensorClassifier, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None
) -> Dict[str, float]:
    """Accuracy and F1 of a censor detecting censored flows (Table 1, 'None' column).

    F1 treats the *censored* class as positive, since that is the class the
    censor is trying to detect.
    """
    flows = list(flows)
    if labels is None:
        labels = [flow.label for flow in flows]
    labels = np.asarray(labels, dtype=int)
    predictions = censor.classify_many(flows)
    # Map to "detected censored" indicator: positive = censored.
    true_positive_labels = (labels == FlowLabel.CENSORED).astype(int)
    predicted_positive = (predictions == FlowLabel.CENSORED).astype(int)
    return {
        "accuracy": accuracy_score(labels, predictions),
        "f1": f1_score(true_positive_labels, predicted_positive),
    }
