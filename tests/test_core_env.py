"""Unit tests for the adversarial flow environment (transport-layer emulator).

The environment has no single-step API of its own; these tests step it the
way batched evaluation does, through ``VectorFlowEnv.step_subset`` on a
one-slot engine (:func:`step`), which scores every step at once and never
resets a finished episode.
"""

import numpy as np
import pytest

from repro.core import AdversarialFlowEnv, AmoebaConfig, VectorFlowEnv
from repro.flows import Flow, FlowLabel


def step(env, action):
    """One immediately scored step of ``env``: ``(observation, reward, done, info)``."""
    observations, rewards, dones, infos = VectorFlowEnv([env]).step_subset(
        [0], np.asarray(action, dtype=np.float64)[None]
    )
    return observations[0], float(rewards[0]), bool(dones[0]), infos[0]


@pytest.fixture
def env_config():
    return AmoebaConfig.for_tor(
        max_episode_steps=50,
        min_packet_bytes=64,
        max_truncations_per_packet=4,
        max_delay_ms=100.0,
    )


@pytest.fixture
def small_flow():
    return Flow(
        sizes=[1000.0, -1460.0, 500.0],
        delays=[0.0, 30.0, 10.0],
        label=FlowLabel.CENSORED,
        protocol="tor",
    )


@pytest.fixture
def env(trained_dt_censor, normalizer, env_config, small_flow):
    return AdversarialFlowEnv(trained_dt_censor, normalizer, env_config, [small_flow], rng=0)


class TestEnvBasics:
    def test_requires_flows(self, trained_dt_censor, normalizer, env_config):
        with pytest.raises(ValueError):
            AdversarialFlowEnv(trained_dt_censor, normalizer, env_config, [], rng=0)

    def test_reset_returns_first_observation(self, env, small_flow, normalizer):
        observation = env.reset()
        assert observation.shape == (2,)
        assert observation[0] == pytest.approx(1000.0 / normalizer.size_scale)
        assert observation[1] == 0.0

    def test_step_before_reset_raises(self, trained_dt_censor, normalizer, env_config, small_flow):
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, env_config, [small_flow], rng=0)
        with pytest.raises(RuntimeError):
            step(env, np.array([0.5, 0.0]))

    def test_invalid_action_shape_rejected(self, env):
        env.reset()
        with pytest.raises(ValueError):
            step(env, np.array([0.5]))


class TestEmulatorSemantics:
    def test_padding_action_advances_to_next_packet(self, env, normalizer):
        env.reset()
        # Request a packet larger than the 1000-byte payload -> padding.
        observation, reward, done, info = step(env, np.array([1.0, 0.0]))
        assert info["action_kind"] == "padding"
        assert not done
        # Next observation is the second original packet (downstream 1460).
        assert observation[0] == pytest.approx(-1.0)

    def test_truncation_keeps_same_packet(self, env, normalizer):
        env.reset()
        small_action = 200.0 / normalizer.size_scale
        observation, reward, done, info = step(env, np.array([small_action, 0.0]))
        assert info["action_kind"] == "truncation"
        # Remaining payload of the first packet is 1000 - 200 = 800 bytes.
        assert observation[0] == pytest.approx(800.0 / normalizer.size_scale, abs=1e-2)

    def test_payload_conservation(self, env, small_flow):
        """Constraint (1): adversarial bytes cover the original payload per direction."""
        env.reset()
        rng = np.random.default_rng(0)
        done = False
        while not done:
            action = np.array([rng.uniform(-1, 1), rng.uniform(0, 1)])
            _, _, done, info = step(env, action)
        adversarial = info["episode"].adversarial_flow
        for direction in (1, -1):
            original_bytes = np.abs(small_flow.sizes[np.sign(small_flow.sizes) == direction]).sum()
            adversarial_bytes = np.abs(
                adversarial.sizes[np.sign(adversarial.sizes) == direction]
            ).sum()
            assert adversarial_bytes >= original_bytes

    def test_direction_preserved_per_packet(self, env):
        env.reset()
        # Even if the agent requests a positive size for a downstream packet,
        # the emitted adversarial packet keeps the original direction.
        step(env, np.array([1.0, 0.0]))  # finish first (upstream) packet
        _, _, _, _ = step(env, np.array([1.0, 0.0]))  # second packet is downstream
        adversarial_sizes = env._episode.flow().sizes
        assert adversarial_sizes[0] > 0
        assert adversarial_sizes[1] < 0

    def test_delay_constraint_respected(self, env, small_flow):
        """Constraint (2): adversarial delay >= original delay for each packet."""
        env.reset()
        done = False
        while not done:
            _, _, done, info = step(env, np.array([1.0, 0.5]))
        adversarial = info["episode"].adversarial_flow
        assert adversarial.delays[1] >= small_flow.delays[1]

    def test_truncation_limit_forces_completion(self, trained_dt_censor, normalizer, small_flow):
        config = AmoebaConfig.for_tor(max_truncations_per_packet=2, max_episode_steps=50)
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, config, [small_flow], rng=0)
        env.reset()
        tiny = 64.0 / normalizer.size_scale
        kinds = []
        for _ in range(3):
            _, _, _, info = step(env, np.array([tiny, 0.0]))
            kinds.append(info["action_kind"])
        assert kinds[0] == "truncation"
        assert kinds[1] == "truncation"
        assert kinds[2] in ("padding", "exact")

    def test_max_episode_steps_terminates(self, trained_dt_censor, normalizer, small_flow):
        config = AmoebaConfig.for_tor(max_episode_steps=2, max_truncations_per_packet=8)
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, config, [small_flow], rng=0)
        env.reset()
        _, _, done, _ = step(env, np.array([0.1, 0.0]))
        if not done:
            _, _, done, _ = step(env, np.array([0.1, 0.0]))
        assert done

    def test_min_packet_bytes_enforced(self, env):
        env.reset()
        step(env, np.array([0.0, 0.0]))  # requests 0 bytes -> raised to min_packet_bytes
        assert abs(env._episode.flow().sizes[0]) >= env.config.min_packet_bytes


class TestRewards:
    def test_reward_components_in_info(self, env):
        env.reset()
        _, reward, _, info = step(env, np.array([1.0, 0.3]))
        assert "data_penalty" in info and "time_penalty" in info
        assert info["time_penalty"] == pytest.approx(0.3, abs=0.02)

    def test_reward_decreases_with_delay(self, trained_dt_censor, normalizer, env_config, small_flow):
        def first_reward(delay_fraction):
            env = AdversarialFlowEnv(trained_dt_censor, normalizer, env_config, [small_flow], rng=0)
            env.reset()
            _, reward, _, _ = step(env, np.array([1.0, delay_fraction]))
            return reward

        assert first_reward(0.0) > first_reward(1.0)

    def test_reward_decreases_with_padding(self, trained_dt_censor, normalizer, env_config):
        tiny_flow = Flow(sizes=[200.0], delays=[0.0], label=FlowLabel.CENSORED)

        def first_reward(size_fraction):
            env = AdversarialFlowEnv(trained_dt_censor, normalizer, env_config, [tiny_flow], rng=0)
            env.reset()
            _, reward, _, _ = step(env, np.array([size_fraction, 0.0]))
            return reward

        assert first_reward(200.0 / 1460.0) >= first_reward(1.0)

    def test_masked_rewards_skip_censor_queries(self, trained_dt_censor, normalizer, small_flow):
        config = AmoebaConfig.for_tor(reward_mask_rate=1.0, max_episode_steps=30)
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, config, [small_flow], rng=0)
        trained_dt_censor.reset_query_count()
        env.reset()
        _, _, done, info = step(env, np.array([1.0, 0.0]))
        assert info["masked"]
        assert np.isnan(info["score"])
        # Only the final episode classification queries the censor.
        while not done:
            _, _, done, _ = step(env, np.array([1.0, 0.0]))
        assert trained_dt_censor.query_count == 1


class TestEpisodeSummary:
    def test_summary_fields(self, env):
        env.reset()
        done = False
        while not done:
            _, _, done, info = step(env, np.array([1.0, 0.2]))
        summary = info["episode"]
        assert summary.adversarial_flow.n_packets == summary.n_steps
        assert 0.0 <= summary.data_overhead < 1.0
        assert 0.0 <= summary.time_overhead <= 1.0
        assert isinstance(summary.success, bool)
        assert summary.action_counts()["padding"] == summary.n_paddings

    def test_summary_counts_delays(self, env):
        env.reset()
        done = False
        while not done:
            _, _, done, info = step(env, np.array([1.0, 0.9]))
        assert info["episode"].n_delays == info["episode"].n_steps

    def test_exact_transmission_zero_data_overhead(self, trained_dt_censor, normalizer, env_config):
        flow = Flow(sizes=[1460.0, -1460.0], delays=[0.0, 10.0], label=FlowLabel.CENSORED)
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, env_config, [flow], rng=0)
        env.reset()
        done = False
        while not done:
            _, _, done, info = step(env, np.array([1.0, 0.0]))
        assert info["episode"].data_overhead == pytest.approx(0.0, abs=1e-6)

    def test_flow_pool_cycles(self, trained_dt_censor, normalizer, env_config, small_flow):
        other = Flow(sizes=[300.0, -300.0], delays=[0.0, 5.0], label=FlowLabel.CENSORED)
        env = AdversarialFlowEnv(
            trained_dt_censor, normalizer, env_config, [small_flow, other], rng=0
        )
        seen_lengths = set()
        for _ in range(4):
            env.reset()
            seen_lengths.add(env._episode.original.n_packets)
            done = False
            while not done:
                _, _, done, _ = step(env, np.array([1.0, 0.0]))
        assert seen_lengths == {2, 3}


# --------------------------------------------------------------------- #
# Python-float emulator helpers vs. the seed numpy formulation (oracle)
# --------------------------------------------------------------------- #
from repro.core.env import (  # noqa: E402
    normalised_pair,
    packet_direction,
    shape_packet_core,
)

from oracles import emulator_reference as oracle  # noqa: E402
from oracles.emulator_reference import ShapedPacket  # noqa: E402


def _neighbours(value):
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


# ±0, ±1 and their neighbours, subnormals, huge and infinite magnitudes.
EDGE_VALUES = [
    float(v)
    for centre in (-1.0, -0.0, 0.0, 1.0, 0.5, -0.5)
    for v in _neighbours(centre)
] + [5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, np.inf, -np.inf, 0.3, -0.7, 0.999]


def bits(array) -> np.ndarray:
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def shaped(size_action, delay_action, **kwargs):
    """``shape_packet_core``'s tuple, named with the oracle's record."""
    return ShapedPacket(*shape_packet_core(float(size_action), float(delay_action), **kwargs))


def assert_same_shaped(got, expected):
    assert type(got.emitted_bytes) is type(expected.emitted_bytes) is int
    assert got.emitted_bytes == expected.emitted_bytes
    assert got.is_truncation is expected.is_truncation
    assert np.array_equal(
        bits([got.added_delay, got.delay_action]),
        bits([expected.added_delay, expected.delay_action]),
    )


class TestEmulatorOracle:
    """`shape_packet_core` and `normalised_pair` are plain Python floats now;
    the seed ``np.clip`` bodies in ``tests/oracles`` say what every bit of
    their results must be.  `normalised_pair` is both encoder streams' input:
    the seed's `make_observation` and `record_action` were one formula."""

    LIMITS = dict(size_scale=1460.0, min_packet_bytes=64, max_delay_ms=100.0)

    @pytest.mark.parametrize("remaining", [1.0, 63.5, 64.0, 700.25, 1460.0, 5000.0, 1e300])
    @pytest.mark.parametrize(
        "truncations,steps,max_truncations,max_steps",
        [
            (0, 0, 8, None),      # free to truncate, unbounded live stream
            (0, 0, 8, 80),        # free to truncate, budget far away
            (8, 3, 8, 80),        # truncation cap forces the packet closed
            (0, 78, 8, 80),       # step budget forces the packet closed
            (0, 79, 8, 80),
            (2, 5, 0, None),      # truncation never allowed
        ],
    )
    def test_shape_packet_sweep(self, remaining, truncations, steps, max_truncations, max_steps):
        for size_action in EDGE_VALUES:
            for delay_action in EDGE_VALUES:
                kwargs = dict(
                    remaining_bytes=remaining,
                    truncations_current_packet=truncations,
                    steps_taken=steps,
                    max_truncations_per_packet=max_truncations,
                    max_steps=max_steps,
                    **self.LIMITS,
                )
                action = np.array([size_action, delay_action])
                assert_same_shaped(
                    shaped(size_action, delay_action, **kwargs),
                    oracle.shape_packet(action, **kwargs),
                )

    def test_observation_and_record_sweep(self):
        for scale, max_delay in ((1460.0, 100.0), (16384.0, 250.0), (3.0, 7.0)):
            for direction in (1.0, -1.0, 0.0):
                for magnitude in (0.0, 1.0, 64.0, 1460.0, 1460.5, 1e300, 5e-324, np.inf):
                    for delay in [abs(v) for v in EDGE_VALUES] + [-0.0, 50.0, 100.0, 1e4]:
                        got = normalised_pair(direction, magnitude, delay, scale, max_delay)
                        assert type(got) is tuple and len(got) == 2
                        assert all(type(value) is float for value in got)
                        for reference in (oracle.make_observation, oracle.record_action):
                            expected = reference(direction, magnitude, delay, scale, max_delay)
                            assert expected.dtype == np.float64 and expected.shape == (2,)
                            assert np.array_equal(bits(got), bits(expected))

    def test_packet_direction_matches_np_sign(self):
        for value in EDGE_VALUES + [1460.0, -536.0, np.float64(-3.0), np.nan]:
            got, expected = packet_direction(value), oracle.current_direction(value)
            assert type(got) is float
            assert np.array_equal(bits(got), bits(expected))


class TestScalarCore:
    """``shape_packet_core`` takes two Python floats and returns a plain
    tuple, equal to the seed numpy oracle field for field and bit for bit."""

    LIMITS = dict(size_scale=1460.0, min_packet_bytes=64, max_delay_ms=100.0)
    # (remaining, truncations, steps, max_truncations, max_steps)
    STATES = [
        (700.25, 0, 0, 8, None),   # unbounded live stream
        (700.25, 0, 0, 8, 80),
        (5000.0, 8, 3, 8, 80),     # forced close: truncation cap
        (5000.0, 0, 79, 8, 80),    # forced close: step budget
        (5000.0, 0, 78, 8, 80),
        (64.0, 0, 0, 8, None),     # remaining equal to the size floor
        (1460.0, 2, 5, 0, None),
    ]
    # Bounds, values equal to a clip bound, signed zeros, infinities.
    COMPONENTS = [-np.inf, -1.5, -1.0, -0.0, 0.0, 64.0 / 1460.0, 0.5, 1.0, 2.0, np.inf]

    def _kwargs(self, state):
        remaining, truncations, steps, max_truncations, max_steps = state
        return dict(
            remaining_bytes=remaining,
            truncations_current_packet=truncations,
            steps_taken=steps,
            max_truncations_per_packet=max_truncations,
            max_steps=max_steps,
            **self.LIMITS,
        )

    def test_core_and_oracle_agree(self):
        for state in self.STATES:
            kwargs = self._kwargs(state)
            for size_action in self.COMPONENTS:
                for delay_action in self.COMPONENTS:
                    core = shape_packet_core(float(size_action), float(delay_action), **kwargs)
                    assert type(core) is tuple and len(core) == 4
                    emitted, added_delay, clipped_delay, is_truncation = core
                    assert type(emitted) is int and type(is_truncation) is bool
                    assert type(added_delay) is float and type(clipped_delay) is float
                    action = [size_action, delay_action]
                    assert_same_shaped(ShapedPacket(*core), oracle.shape_packet(action, **kwargs))

    def test_nan_raises_the_same_text_from_both_entry_points(self, env):
        from repro.core.state_encoder import StateEncoder
        from repro.serve import session as session_module

        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        table = session_module.SessionTable(encoder.num_layers, encoder.hidden_size)
        session = session_module.FlowSession(
            "s", table, table.acquire(), session_module.SessionLimits(size_scale=1460.0)
        )
        session.enqueue(900.0, 1.0)
        assert session.arm_next()
        env.reset()
        for size_action, delay_action in ((np.nan, 0.25), (0.25, np.nan), (np.nan, np.nan)):
            with pytest.raises(ValueError) as from_training:
                VectorFlowEnv([env]).propose(np.array([[size_action, delay_action]]))
            with pytest.raises(ValueError) as from_serving:
                session.apply_action([size_action, delay_action])
            assert str(from_training.value) == str(from_serving.value)
            assert str(from_training.value).startswith("non-finite action [")

    def test_propose_validates_the_shape(self, env):
        env.reset()
        vec_env = VectorFlowEnv([env])
        for bad in ([0.1, 0.2, 0.3], np.float64(0.5), 0.5, np.zeros((2, 2)), [], [0.1, 0.2]):
            with pytest.raises(ValueError, match="actions must have shape"):
                vec_env.propose(bad)
        assert env._steps == 0

    def test_both_tiers_end_in_the_same_core_function(self, env, monkeypatch):
        """One emulator: ``AdversarialFlowEnv._propose`` and
        ``FlowSession.apply_action`` call one function."""
        from repro.core import env as env_module
        from repro.core.state_encoder import StateEncoder
        from repro.serve import session as session_module

        assert session_module.shape_packet_core is env_module.shape_packet_core
        real, calls = env_module.shape_packet_core, []

        def spy(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(env_module, "shape_packet_core", spy)
        monkeypatch.setattr(session_module, "shape_packet_core", spy)

        env.reset()
        VectorFlowEnv([env]).propose(np.array([[0.5, 0.25]]))
        assert calls == [(0.5, 0.25)]

        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        table = session_module.SessionTable(encoder.num_layers, encoder.hidden_size)
        session = session_module.FlowSession(
            "s", table, table.acquire(), session_module.SessionLimits(size_scale=1460.0)
        )
        session.enqueue(900.0, 1.0)
        assert session.arm_next()
        from_list = session.apply_action([0.5, 0.25])
        assert calls == [(0.5, 0.25), (0.5, 0.25)]
        # An array row is a 2-sequence of floats as well.
        session.enqueue(900.0, 1.0)
        while session.in_flight:
            session.apply_action(np.array([1.0, 0.0]))
        assert session.arm_next()
        from_array = session.apply_action(np.array([0.5, 0.25]))
        assert from_array.emitted_size == from_list.emitted_size == 730.0
        assert np.array_equal(bits(from_array.recorded_action), bits(from_list.recorded_action))


class TestNonFiniteAction:
    def test_helper_names_the_problem(self):
        kwargs = dict(
            remaining_bytes=900.0,
            truncations_current_packet=0,
            steps_taken=0,
            size_scale=1460.0,
            min_packet_bytes=64,
            max_delay_ms=100.0,
            max_truncations_per_packet=8,
            max_steps=None,
        )
        for action in ([np.nan, 0.0], [0.0, np.nan]):
            with pytest.raises(ValueError, match="non-finite action"):
                shape_packet_core(*action, **kwargs)
        # Infinite components clamp like any out-of-range value (as np.clip did).
        assert shaped(np.inf, -np.inf, **kwargs).emitted_bytes == 1460

    def test_env_step_rejects_nan_and_stays_usable(self, env):
        env.reset()
        with pytest.raises(ValueError, match="non-finite action"):
            step(env, np.array([np.nan, 0.0]))
        # The emulator did not advance: the same packet is still pending.
        observation, _, _, _ = step(env, np.array([1.0, 0.0]))
        assert observation[0] == pytest.approx(-1.0)
