"""Tests for the Amoeba agent facade, reward-mask sweep and profile database."""

import numpy as np
import pytest

from repro.core import (
    AdversarialProfile,
    Amoeba,
    AmoebaConfig,
    ProfileDatabase,
    reward_mask_sweep,
)
from repro.flows import Flow, FlowLabel


@pytest.fixture(scope="module")
def trained_agent(request):
    """A small Amoeba agent trained against the session DT censor."""
    trained_dt_censor = request.getfixturevalue("trained_dt_censor")
    normalizer = request.getfixturevalue("normalizer")
    tor_splits = request.getfixturevalue("tor_splits")
    fast_config = request.getfixturevalue("fast_config")
    agent = Amoeba(
        trained_dt_censor,
        normalizer,
        fast_config,
        rng=0,
        encoder_pretrain_kwargs={"n_flows": 30, "epochs": 1, "max_length": 15},
    )
    agent.train(tor_splits.attack_train.censored_flows[:20], total_timesteps=300)
    return agent


class TestAmoebaAgent:
    def test_training_progresses_timesteps(self, trained_agent):
        assert trained_agent.training_log.series("timesteps")[-1] >= 300

    def test_training_log_contains_queries_and_asr(self, trained_agent):
        log = trained_agent.training_log
        assert len(log.series("queries")) > 0
        assert len(log.series("train_asr")) > 0
        assert all(0.0 <= asr <= 1.0 for asr in log.series("train_asr"))

    def test_attack_produces_valid_result(self, trained_agent, tor_splits):
        flow = tor_splits.test.censored_flows[0]
        result = trained_agent.attack(flow)
        assert result.adversarial_flow.n_packets >= 1
        assert 0.0 <= result.data_overhead < 1.0
        assert 0.0 <= result.time_overhead <= 1.0
        assert set(result.action_counts) == {"truncation", "padding", "delay"}

    def test_attack_preserves_payload(self, trained_agent, tor_splits):
        flow = tor_splits.test.censored_flows[1]
        result = trained_agent.attack(flow)
        original_up = flow.sizes[flow.sizes > 0].sum()
        adv_up = result.adversarial_flow.sizes[result.adversarial_flow.sizes > 0].sum()
        assert adv_up >= min(original_up, original_up)  # payload never lost

    def test_evaluate_report(self, trained_agent, tor_splits):
        report = trained_agent.evaluate(tor_splits.test.censored_flows[:5])
        assert report.n_flows == 5
        assert 0.0 <= report.attack_success_rate <= 1.0
        assert len(report.results) == 5
        assert set(report.as_dict()) == {"asr", "data_overhead", "time_overhead", "n_flows"}

    def test_evaluate_empty_rejected(self, trained_agent):
        with pytest.raises(ValueError):
            trained_agent.evaluate([])

    def test_train_requires_censored_flows(self, trained_agent):
        benign = Flow(sizes=[100.0], delays=[0.0], label=FlowLabel.BENIGN)
        with pytest.raises(ValueError):
            trained_agent.train([benign], total_timesteps=10)

    def test_train_rejects_nonpositive_timesteps(self, trained_agent, tor_splits):
        with pytest.raises(ValueError):
            trained_agent.train(tor_splits.attack_train.censored_flows, total_timesteps=0)

    @pytest.mark.parametrize(
        "eval_kwargs",
        [
            dict(eval_every=1, eval_size=0),
            dict(eval_every=1, eval_flows=[]),
            dict(eval_every=1, eval_flows=None),
            dict(eval_every=0),
            dict(eval_every=-3),
            dict(eval_every=1, eval_size=-2),
        ],
    )
    def test_train_refuses_bad_evaluation_before_any_query(
        self, trained_agent, tor_splits, eval_kwargs
    ):
        """Misuse raises before the first collect: no censor query is spent
        and no timestep is trained."""
        kwargs = {"eval_flows": tor_splits.test.censored_flows[:4], **eval_kwargs}
        queries = trained_agent.censor.query_count
        iterations = len(trained_agent.training_log.series("timesteps"))
        with pytest.raises(ValueError, match="eval_"):
            trained_agent.train(tor_splits.attack_train.censored_flows[:20], 300, **kwargs)
        assert trained_agent.censor.query_count == queries
        assert len(trained_agent.training_log.series("timesteps")) == iterations

    def test_policy_save_load_roundtrip(self, trained_agent, tor_splits, tmp_path):
        """The checkpoint holds the prefixed layout the production readers
        (``PolicyServer.from_checkpoint``, ``ShardRunner.load_weights``) load."""
        from repro.nn.serialization import load_prefixed_state, load_state_dict

        path = tmp_path / "policy.npz"
        trained_agent.save_policy(path)
        flow = tor_splits.test.censored_flows[0]
        before = trained_agent.attack(flow, deterministic=True)
        saved = [param.data.copy() for param in trained_agent.actor.parameters()]
        # Perturb the actor, then restore.
        for param in trained_agent.actor.parameters():
            param.data = param.data + 1.0
        load_prefixed_state(
            load_state_dict(path),
            (
                ("actor", trained_agent.actor),
                ("critic", trained_agent.critic),
                ("encoder", trained_agent.state_encoder),
            ),
        )
        for param, data in zip(trained_agent.actor.parameters(), saved):
            np.testing.assert_array_equal(param.data, data)
        after = trained_agent.attack(flow, deterministic=True)
        assert np.allclose(before.adversarial_flow.sizes, after.adversarial_flow.sizes)

    def test_encode_state_dimension(self, trained_agent, tor_splits, normalizer):
        from repro.core import BatchedEpisodeEncoder, VectorFlowEnv

        vec_env = VectorFlowEnv(
            trained_agent.censor,
            normalizer,
            trained_agent.config,
            [tor_splits.test.censored_flows[0]],
            [0],
        )
        tracker = BatchedEpisodeEncoder(trained_agent.state_encoder, 1)
        states = tracker.reset_all(vec_env.reset())
        assert states.shape == (1, trained_agent.config.state_dim)


class TestRewardMasking:
    def test_sweep_returns_point_per_mask_rate(self, trained_dt_censor, normalizer, tor_splits, fast_config):
        points = reward_mask_sweep(
            trained_dt_censor,
            normalizer,
            tor_splits.attack_train.censored_flows[:10],
            tor_splits.test.censored_flows[:4],
            mask_rates=(0.0, 0.9),
            total_timesteps=100,
            base_config=fast_config,
            rng=1,
        )
        assert len(points) == 2
        assert points[0].mask_rate == 0.0
        assert points[1].mask_rate == 0.9
        # Masking reduces the number of training queries to the censor.
        assert points[1].actual_queries < points[0].actual_queries


class TestProfileDatabase:
    def make_profile_flow(self, scale=1.0):
        return Flow(
            sizes=[800.0 * scale, -1200.0 * scale, 600.0 * scale],
            delays=[0.0, 20.0, 10.0],
            label=FlowLabel.CENSORED,
        )

    def test_profile_capacities(self):
        profile = AdversarialProfile.from_flow(self.make_profile_flow())
        assert profile.upstream_capacity == pytest.approx(1400.0)
        assert profile.downstream_capacity == pytest.approx(1200.0)
        assert len(profile.sizes) == 3

    def test_empty_database_rejects_embedding(self, simple_flow):
        with pytest.raises(RuntimeError):
            ProfileDatabase().embed_flow(simple_flow)

    def test_add_flows_filters_failures(self):
        db = ProfileDatabase()
        flows = [self.make_profile_flow(), self.make_profile_flow(2.0)]
        added = db.add_flows(flows, successes=[True, False])
        assert added == 1
        assert len(db) == 1

    def test_embedding_covers_payload(self, simple_flow):
        db = ProfileDatabase([AdversarialProfile.from_flow(self.make_profile_flow(4.0))])
        result = db.embed_flow(simple_flow, rng=0)
        assert result.transmitted_bytes >= result.payload_bytes
        assert result.n_profiles_used >= 1

    def test_small_profiles_need_multiple_connections(self, simple_flow):
        db = ProfileDatabase([AdversarialProfile.from_flow(self.make_profile_flow(0.3))])
        result = db.embed_flow(simple_flow, rng=0)
        assert result.n_profiles_used > 1
        assert result.handshake_overhead_ms > 0

    def test_overheads_between_zero_and_one(self, simple_flow):
        db = ProfileDatabase([AdversarialProfile.from_flow(self.make_profile_flow(2.0))])
        result = db.embed_flow(simple_flow, rng=0)
        assert 0.0 <= result.data_overhead < 1.0
        assert 0.0 <= result.time_overhead < 1.0

    def test_overhead_summary_keys(self, tor_splits):
        db = ProfileDatabase(
            [AdversarialProfile.from_flow(flow) for flow in tor_splits.attack_train.censored_flows[:5]]
        )
        summary = db.overhead_summary(tor_splits.test.censored_flows[:5], rng=0)
        assert {
            "data_overhead",
            "time_overhead",
            "mean_profiles_per_flow",
            "fully_embedded_rate",
        } == set(summary)
        assert 0.0 <= summary["fully_embedded_rate"] <= 1.0

    def test_zero_payload_flow_uses_no_profiles(self):
        # The Flow model forbids zero-size packets, but embed_flow only
        # reads sizes/duration, and a degenerate zero-payload input (e.g. a
        # fallback session that never accumulated payload) must not draw
        # profiles or charge handshakes.
        from types import SimpleNamespace

        db = ProfileDatabase([AdversarialProfile.from_flow(self.make_profile_flow())])
        empty = SimpleNamespace(sizes=np.zeros(2), delays=np.array([0.0, 5.0]), duration=5.0)
        result = db.embed_flow(empty, rng=0)
        assert result.n_profiles_used == 0
        assert result.payload_bytes == 0.0
        assert result.transmitted_bytes == 0.0
        assert result.handshake_overhead_ms == 0.0
        assert result.fully_embedded
        assert result.data_overhead == 0.0

    def test_capacity_exhaustion_sets_fully_embedded_false(self):
        # Upstream-only profiles can never carry downstream payload: the
        # draw cap must terminate the loop and flag the truncation instead
        # of silently underreporting the overhead (or spinning forever).
        upstream_only = Flow(sizes=[500.0, 700.0], delays=[0.0, 5.0], label=FlowLabel.CENSORED)
        db = ProfileDatabase(
            [AdversarialProfile.from_flow(upstream_only)], max_embed_passes=3
        )
        heavy_down = Flow(sizes=[200.0, -50_000.0], delays=[0.0, 5.0], label=FlowLabel.CENSORED)
        result = db.embed_flow(heavy_down, rng=0)
        assert not result.fully_embedded
        # Every draw of every pass was spent before giving up.
        assert result.n_profiles_used == 3 * len(db)
        summary = db.overhead_summary([heavy_down, upstream_only], rng=0)
        assert summary["fully_embedded_rate"] == pytest.approx(0.5)

    def test_heavy_flow_draws_fresh_permutations_beyond_first_pass(self):
        # One pass over this database cannot carry the payload; fresh
        # permutations must keep drawing until it fits within the cap.
        db = ProfileDatabase(
            [AdversarialProfile.from_flow(self.make_profile_flow(0.1))],
            max_embed_passes=200,
        )
        heavy = Flow(sizes=[5000.0, -5000.0], delays=[0.0, 5.0], label=FlowLabel.CENSORED)
        result = db.embed_flow(heavy, rng=0)
        assert result.fully_embedded
        assert result.n_profiles_used > len(db)
        assert result.transmitted_bytes >= result.payload_bytes

    def test_max_embed_passes_validated(self):
        with pytest.raises(ValueError):
            ProfileDatabase(max_embed_passes=0)

    def test_profile_mode_costs_more_than_online_mode(self, trained_agent, tor_splits):
        """Table 2's qualitative claim: replaying pre-stored profiles costs more
        (especially in time) than the online per-flow adversarial generation."""
        online = trained_agent.evaluate(tor_splits.test.censored_flows[:5])
        db = ProfileDatabase()
        results = trained_agent.attack_many(tor_splits.attack_train.censored_flows[:8])
        db.add_flows([r.adversarial_flow for r in results], [r.success for r in results])
        if len(db) == 0:
            pytest.skip("no successful adversarial profiles generated at this tiny training scale")
        summary = db.overhead_summary(tor_splits.test.censored_flows[:5], rng=0)
        assert summary["time_overhead"] >= 0.0
        assert summary["data_overhead"] >= 0.0
