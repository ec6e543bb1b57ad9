"""Tests for the censor-vs-Amoeba arms-race extension (Section 5.6.2)."""

import numpy as np
import pytest

from repro.censors import DecisionTreeCensor
from repro.core import run_arms_race
from repro.core.agent import AdversarialResult, Amoeba, EvaluationReport


class TestArmsRace:
    @pytest.fixture(scope="class")
    def race_result(self, request):
        tor_splits = request.getfixturevalue("tor_splits")
        normalizer = request.getfixturevalue("normalizer")
        fast_config = request.getfixturevalue("fast_config")
        return run_arms_race(
            censor_factory=lambda: DecisionTreeCensor(rng=0),
            normalizer=normalizer,
            clf_train_flows=tor_splits.clf_train.flows,
            attack_train_flows=tor_splits.attack_train.censored_flows[:15],
            test_flows=tor_splits.test.flows,
            eval_flows=tor_splits.test.censored_flows[:5],
            n_rounds=2,
            amoeba_timesteps=150,
            harvest_per_round=5,
            config=fast_config,
            rng=0,
        )

    def test_rounds_count(self, race_result):
        assert len(race_result.rounds) == 2

    def test_round_metrics_are_valid(self, race_result):
        for round_ in race_result.rounds:
            assert 0.0 <= round_.censor_accuracy <= 1.0
            assert 0.0 <= round_.censor_f1 <= 1.0
            assert 0.0 <= round_.attack_success_rate <= 1.0
            assert round_.collected_adversarial_flows >= 0

    def test_collected_flows_accumulate(self, race_result):
        counts = [round_.collected_adversarial_flows for round_ in race_result.rounds]
        assert counts == sorted(counts)
        assert counts[-1] >= counts[0]

    def test_rounds_and_dominance(self, race_result):
        assert len(race_result.rounds) == 2
        assert isinstance(race_result.attacker_dominates(), bool)

    def test_harvest_is_sampled_not_head_sliced(
        self, normalizer, tor_splits, fast_config, monkeypatch
    ):
        """The censor harvests a round_rng sample of the adversarial flows,
        not the deterministic head of the evaluation report."""
        flows = tor_splits.test.censored_flows[:10]
        results = tuple(
            AdversarialResult(
                original_flow=flow,
                adversarial_flow=flow,
                success=True,
                final_score=0.0,
                data_overhead=0.0,
                time_overhead=0.0,
                action_counts={},
                n_steps=1,
            )
            for flow in flows
        )
        report = EvaluationReport(1.0, 0.0, 0.0, len(results), results)
        monkeypatch.setattr(Amoeba, "train", lambda self, *a, **k: self.training_log)
        monkeypatch.setattr(Amoeba, "evaluate", lambda self, *a, **k: report)

        def run(seed):
            fit_flows = []

            class SpyCensor(DecisionTreeCensor):
                def fit(self, flows, labels=None):
                    fit_flows.append(list(flows))
                    return super().fit(flows, labels=labels)

            run_arms_race(
                censor_factory=lambda: SpyCensor(rng=0),
                normalizer=normalizer,
                clf_train_flows=tor_splits.clf_train.flows,
                attack_train_flows=flows,
                test_flows=tor_splits.test.flows,
                eval_flows=flows,
                n_rounds=2,
                harvest_per_round=3,
                config=fast_config,
                rng=seed,
            )
            n_clf = len(tor_splits.clf_train.flows)
            # Round 2's censor trained on clf_train + round 1's harvest.
            return [id(flow) for flow in fit_flows[1][n_clf:]]

        harvested = run(seed=5)
        assert len(harvested) == 3
        assert len(set(harvested)) == 3
        assert set(harvested) <= {id(flow) for flow in flows}
        head = [id(flow) for flow in flows[:3]]
        assert harvested != head
        # Seed-controlled: the same seed reproduces the same harvest...
        assert run(seed=5) == harvested
        # ...while across seeds the draws vary (a head slice never would).
        draws = [tuple(run(seed=seed)) for seed in (6, 7, 8)]
        assert len(set(draws + [tuple(harvested)])) >= 2

    def test_harvest_clamps_to_available_results(
        self, normalizer, tor_splits, fast_config, monkeypatch
    ):
        flows = tor_splits.test.censored_flows[:4]
        results = tuple(
            AdversarialResult(
                original_flow=flow,
                adversarial_flow=flow,
                success=False,
                final_score=0.0,
                data_overhead=0.0,
                time_overhead=0.0,
                action_counts={},
                n_steps=1,
            )
            for flow in flows
        )
        report = EvaluationReport(0.0, 0.0, 0.0, len(results), results)
        monkeypatch.setattr(Amoeba, "train", lambda self, *a, **k: self.training_log)
        monkeypatch.setattr(Amoeba, "evaluate", lambda self, *a, **k: report)
        result = run_arms_race(
            censor_factory=lambda: DecisionTreeCensor(rng=0),
            normalizer=normalizer,
            clf_train_flows=tor_splits.clf_train.flows,
            attack_train_flows=flows,
            test_flows=tor_splits.test.flows,
            eval_flows=flows,
            n_rounds=1,
            harvest_per_round=50,
            config=fast_config,
            rng=0,
        )
        assert result.rounds[0].collected_adversarial_flows == len(flows)

    def test_invalid_round_count(self, normalizer, tor_splits, fast_config):
        with pytest.raises(ValueError):
            run_arms_race(
                censor_factory=lambda: DecisionTreeCensor(rng=0),
                normalizer=normalizer,
                clf_train_flows=tor_splits.clf_train.flows,
                attack_train_flows=tor_splits.attack_train.censored_flows[:5],
                test_flows=tor_splits.test.flows,
                eval_flows=tor_splits.test.censored_flows[:3],
                n_rounds=0,
                config=fast_config,
            )
