"""Censor-vs-Amoeba arms race (Section 5.6.2, discussed as future work).

The paper notes that a censor may collect the adversarial flows Amoeba
generates, add them to its training set as sensitive samples and retrain the
classifier, nullifying the learned policy and forcing the attacker to retrain
in turn.  Whether this iterative game reaches an equilibrium is left open.

This module implements that loop so the question can be studied empirically
on the synthetic substrate:

1. the censor trains on its dataset (plus any adversarial flows collected in
   previous rounds, labelled as censored);
2. the attacker trains a fresh Amoeba agent against the updated censor;
3. the attacker's held-out ASR and the censor's detection accuracy are
   recorded;
4. the censor harvests (a sample of) the attacker's adversarial flows and the
   loop repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..censors.base import CensorClassifier
from ..eval.metrics import classifier_detection_report
from ..features.representation import FlowNormalizer
from ..flows.flow import Flow, FlowLabel
from ..utils.rng import ensure_rng, spawn_rngs
from .agent import Amoeba
from .config import AmoebaConfig

__all__ = ["ArmsRaceRound", "ArmsRaceResult", "run_arms_race"]


@dataclass(frozen=True)
class ArmsRaceRound:
    """Metrics of one censor-retraining / attacker-retraining iteration."""

    round_index: int
    censor_accuracy: float
    censor_f1: float
    attack_success_rate: float
    data_overhead: float
    collected_adversarial_flows: int


@dataclass(frozen=True)
class ArmsRaceResult:
    """Full trajectory of the arms race."""

    rounds: tuple

    def attacker_dominates(self) -> bool:
        """Did the attacker keep a majority ASR in the final round?"""
        return self.rounds[-1].attack_success_rate >= 0.5


def run_arms_race(
    censor_factory: Callable[[], CensorClassifier],
    normalizer: FlowNormalizer,
    clf_train_flows: Sequence[Flow],
    attack_train_flows: Sequence[Flow],
    test_flows: Sequence[Flow],
    eval_flows: Sequence[Flow],
    n_rounds: int = 3,
    amoeba_timesteps: int = 1500,
    harvest_per_round: int = 30,
    config: Optional[AmoebaConfig] = None,
    rng=None,
) -> ArmsRaceResult:
    """Run ``n_rounds`` of censor-retrains / attacker-retrains.

    Parameters
    ----------
    censor_factory:
        Callable building a *fresh, unfitted* censor each round (the censor
        retrains from scratch on the augmented dataset).
    clf_train_flows:
        The censor's own labelled traffic (both classes).
    attack_train_flows:
        Censored flows the attacker trains on.
    test_flows:
        Labelled flows for measuring the censor's detection performance.
    eval_flows:
        Censored flows for measuring the attacker's ASR.
    harvest_per_round:
        Number of adversarial flows the censor collects per round and adds
        (labelled censored) to its next training set.

    Each round's attacker is measured with :meth:`Amoeba.evaluate
    <repro.core.agent.Amoeba.evaluate>` at its default batch size.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    rng = ensure_rng(rng)
    config = config or AmoebaConfig.for_tor()

    collected: List[Flow] = []
    rounds: List[ArmsRaceRound] = []
    for round_index, round_rng in enumerate(spawn_rngs(rng, n_rounds)):
        # 1. Censor retrains on its capture plus harvested adversarial flows.
        censor = censor_factory()
        training_flows = list(clf_train_flows) + collected
        training_labels = [flow.label for flow in clf_train_flows] + [FlowLabel.CENSORED] * len(collected)
        censor.fit(training_flows, labels=training_labels)
        detection = classifier_detection_report(censor, test_flows)

        # 2. Attacker trains a fresh agent against the updated censor.
        agent = Amoeba(censor, normalizer, config, rng=round_rng)
        agent.train(attack_train_flows, total_timesteps=amoeba_timesteps)
        report = agent.evaluate(eval_flows)

        # 3. Censor harvests a uniform sample of this round's adversarial
        # flows.  Sampling with the round RNG keeps the harvest unbiased
        # (a head slice would always favour the first eval flows) and
        # seed-controlled.
        n_harvest = min(harvest_per_round, len(report.results))
        chosen = round_rng.choice(len(report.results), size=n_harvest, replace=False)
        harvested = [report.results[int(index)].adversarial_flow for index in np.sort(chosen)]
        collected.extend(harvested)

        rounds.append(
            ArmsRaceRound(
                round_index=round_index,
                censor_accuracy=detection["accuracy"],
                censor_f1=detection["f1"],
                attack_success_rate=report.attack_success_rate,
                data_overhead=report.data_overhead,
                collected_adversarial_flows=len(collected),
            )
        )
    return ArmsRaceResult(rounds=tuple(rounds))
