"""Unit tests for the adversarial flow environment (transport-layer emulator).

These tests build one-slot :class:`VectorFlowEnv` engines, step them with
``step_subset`` and settle each tick at once (:func:`step`), which never
resets a finished episode.
"""

import numpy as np
import pytest

from oracles.per_tick_settle import settled_step
from repro.core import AmoebaConfig, VectorFlowEnv
from repro.flows import Flow, FlowLabel


def make_env(censor, normalizer, config, flows):
    """A one-slot engine whose slot draws from seed 0."""
    return VectorFlowEnv(censor, normalizer, config, flows, [0])


def episode(env):
    """The one slot's current episode."""
    return env._slots[0].episode


def step(env, action):
    """One immediately scored step of ``env``: ``(tick, reward, summary)``,
    the summary ``None`` unless the step ended the episode."""
    tick, rewards, summaries = settled_step(env, np.asarray(action)[None], [0])
    return tick, float(rewards[0]), summaries.get(0)


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
    return make_env(trained_dt_censor, normalizer, env_config, [small_flow])


class TestEnvBasics:
    def test_requires_flows_and_slots(self, trained_dt_censor, normalizer, env_config, small_flow):
        trained_dt_censor.reset_query_count()
        with pytest.raises(ValueError, match="at least one flow"):
            make_env(trained_dt_censor, normalizer, env_config, [])
        with pytest.raises(ValueError, match="at least one slot"):
            VectorFlowEnv(trained_dt_censor, normalizer, env_config, [small_flow], [])
        assert trained_dt_censor.query_count == 0

    def test_reset_returns_first_observation(self, env, small_flow, normalizer):
        observation = env.reset()
        assert observation.shape == (1, 2) and observation.dtype == np.float64
        assert observation[0, 0] == pytest.approx(1000.0 / normalizer.size_scale)
        assert observation[0, 1] == 0.0

    def test_reset_on_given_flows_draws_nothing(self, env, small_flow, normalizer):
        other = Flow(sizes=[-300.0, 300.0], delays=[0.0, 5.0], label=FlowLabel.CENSORED)
        state = env._slots[0].rng.bit_generator.state
        observation = env.reset([other])
        assert observation[0, 0] == pytest.approx(-300.0 / normalizer.size_scale)
        assert episode(env).original.n_packets == 2
        assert env._slots[0].rng.bit_generator.state == state
        with pytest.raises(ValueError, match="one flow per slot"):
            env.reset([other, other])

    def test_step_before_reset_raises(self, trained_dt_censor, normalizer, env_config, small_flow):
        env = make_env(trained_dt_censor, normalizer, env_config, [small_flow])
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
        tick, reward, summary = step(env, np.array([1.0, 0.0]))
        assert tick.action_kinds[0] == "padding"
        assert summary is None and not tick.dones[0]
        # Next observation is the second original packet (downstream 1460).
        assert tick.pairs[0, 0] == pytest.approx(-1.0)

    def test_truncation_keeps_same_packet(self, env, normalizer):
        env.reset()
        small_action = 200.0 / normalizer.size_scale
        tick, reward, summary = step(env, np.array([small_action, 0.0]))
        assert tick.action_kinds[0] == "truncation"
        # Remaining payload of the first packet is 1000 - 200 = 800 bytes.
        assert tick.pairs[0, 0] == pytest.approx(800.0 / normalizer.size_scale, abs=1e-2)

    def test_payload_conservation(self, env, small_flow):
        """Constraint (1): adversarial bytes cover the original payload per direction."""
        env.reset()
        rng = np.random.default_rng(0)
        summary = None
        while summary is None:
            action = np.array([rng.uniform(-1, 1), rng.uniform(0, 1)])
            _, _, summary = step(env, action)
        adversarial = summary.adversarial_flow
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
        step(env, np.array([1.0, 0.0]))  # second packet is downstream
        adversarial_sizes = episode(env).flow().sizes
        assert adversarial_sizes[0] > 0
        assert adversarial_sizes[1] < 0

    def test_delay_constraint_respected(self, env, small_flow):
        """Constraint (2): adversarial delay >= original delay for each packet."""
        env.reset()
        summary = None
        while summary is None:
            _, _, summary = step(env, np.array([1.0, 0.5]))
        adversarial = summary.adversarial_flow
        assert adversarial.delays[1] >= small_flow.delays[1]

    def test_truncation_limit_forces_completion(self, trained_dt_censor, normalizer, small_flow):
        config = AmoebaConfig.for_tor(max_truncations_per_packet=2, max_episode_steps=50)
        env = make_env(trained_dt_censor, normalizer, config, [small_flow])
        env.reset()
        tiny = 64.0 / normalizer.size_scale
        kinds = []
        for _ in range(3):
            tick, _, _ = step(env, np.array([tiny, 0.0]))
            kinds.append(tick.action_kinds[0])
        assert kinds[0] == "truncation"
        assert kinds[1] == "truncation"
        assert kinds[2] in ("padding", "exact")

    def test_max_episode_steps_terminates(self, trained_dt_censor, normalizer, small_flow):
        config = AmoebaConfig.for_tor(max_episode_steps=2, max_truncations_per_packet=8)
        env = make_env(trained_dt_censor, normalizer, config, [small_flow])
        env.reset()
        _, _, summary = step(env, np.array([0.1, 0.0]))
        if summary is None:
            _, _, summary = step(env, np.array([0.1, 0.0]))
        assert summary is not None

    def test_min_packet_bytes_enforced(self, env, env_config):
        env.reset()
        step(env, np.array([0.0, 0.0]))  # requests 0 bytes -> raised to min_packet_bytes
        assert abs(episode(env).flow().sizes[0]) >= env_config.min_packet_bytes


class TestRewards:
    def test_reward_components_in_the_tick(self, env):
        env.reset()
        tick, reward, _ = step(env, np.array([1.0, 0.3]))
        assert len(tick.data_penalties) == len(tick.time_penalties) == 1
        assert tick.time_penalties[0] == pytest.approx(0.3, abs=0.02)

    def test_reward_decreases_with_delay(self, trained_dt_censor, normalizer, env_config, small_flow):
        def first_reward(delay_fraction):
            env = make_env(trained_dt_censor, normalizer, env_config, [small_flow])
            env.reset()
            _, reward, _ = step(env, np.array([1.0, delay_fraction]))
            return reward

        assert first_reward(0.0) > first_reward(1.0)

    def test_reward_decreases_with_padding(self, trained_dt_censor, normalizer, env_config):
        tiny_flow = Flow(sizes=[200.0], delays=[0.0], label=FlowLabel.CENSORED)

        def first_reward(size_fraction):
            env = make_env(trained_dt_censor, normalizer, env_config, [tiny_flow])
            env.reset()
            _, reward, _ = step(env, np.array([size_fraction, 0.0]))
            return reward

        assert first_reward(200.0 / 1460.0) >= first_reward(1.0)

    def test_masked_rewards_skip_censor_queries(self, trained_dt_censor, normalizer, small_flow):
        config = AmoebaConfig.for_tor(reward_mask_rate=1.0, max_episode_steps=30)
        env = make_env(trained_dt_censor, normalizer, config, [small_flow])
        trained_dt_censor.reset_query_count()
        env.reset()
        tick, _, summary = step(env, np.array([1.0, 0.0]))
        assert tick.masked[0]
        assert np.isnan(tick.scores[0])
        # Only the final episode classification queries the censor.
        while summary is None:
            _, _, summary = step(env, np.array([1.0, 0.0]))
        assert trained_dt_censor.query_count == 1


class TestEpisodeSummary:
    def test_summary_fields(self, env):
        env.reset()
        summary = None
        while summary is None:
            _, _, summary = step(env, np.array([1.0, 0.2]))
        assert summary.adversarial_flow.n_packets == summary.n_steps
        assert 0.0 <= summary.data_overhead < 1.0
        assert 0.0 <= summary.time_overhead <= 1.0
        assert isinstance(summary.success, bool)
        assert summary.action_counts()["padding"] == summary.n_paddings

    def test_summary_counts_delays(self, env):
        env.reset()
        summary = None
        while summary is None:
            _, _, summary = step(env, np.array([1.0, 0.9]))
        assert summary.n_delays == summary.n_steps

    def test_exact_transmission_zero_data_overhead(self, trained_dt_censor, normalizer, env_config):
        flow = Flow(sizes=[1460.0, -1460.0], delays=[0.0, 10.0], label=FlowLabel.CENSORED)
        env = make_env(trained_dt_censor, normalizer, env_config, [flow])
        env.reset()
        summary = None
        while summary is None:
            _, _, summary = step(env, np.array([1.0, 0.0]))
        assert summary.data_overhead == pytest.approx(0.0, abs=1e-6)

    def test_flow_pool_cycles(self, trained_dt_censor, normalizer, env_config, small_flow):
        other = Flow(sizes=[300.0, -300.0], delays=[0.0, 5.0], label=FlowLabel.CENSORED)
        env = make_env(trained_dt_censor, normalizer, env_config, [small_flow, other])
        seen_lengths = set()
        for _ in range(4):
            env.reset()
            seen_lengths.add(episode(env).original.n_packets)
            summary = None
            while summary is None:
                _, _, summary = step(env, np.array([1.0, 0.0]))
        assert seen_lengths == {2, 3}


# --------------------------------------------------------------------- #
# Python-float emulator helpers vs. the seed numpy formulation (oracle)
# --------------------------------------------------------------------- #
from repro.core.env import (  # noqa: E402
    PacketShaper,
    normalised_pair,
    packet_direction,
)

from oracles import emulator_reference as oracle  # noqa: E402


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


def shaper_at(
    remaining_bytes,
    truncations_current_packet,
    steps_taken,
    size_scale,
    min_packet_bytes,
    max_delay_ms,
    max_truncations_per_packet,
    max_steps,
    direction=-1.0,
    delay_ms=7.0,
):
    """A :class:`PacketShaper` set to the packet state the oracle's arguments
    name: ``remaining_bytes`` of a ``direction`` packet, after
    ``truncations_current_packet`` truncations (its delay then ``0.0``) and
    ``steps_taken`` steps of the flow."""
    shaper = PacketShaper(
        size_scale, min_packet_bytes, max_delay_ms, max_truncations_per_packet, max_steps
    )
    shaper.begin(direction * remaining_bytes, delay_ms)
    shaper.truncations = truncations_current_packet
    shaper.steps = steps_taken
    if truncations_current_packet:
        shaper.delay_ms = 0.0
    return shaper


def assert_apply_matches_oracle(shaper, action, expected):
    """``shaper.apply(*action)`` is the oracle's ``expected`` record, bit for
    bit, and leaves the shaper where the emulator goes next."""
    direction, remaining, delay = shaper.direction, shaper.remaining_bytes, shaper.delay_ms
    truncations, steps, payload = shaper.truncations, shaper.steps, shaper.consumed_payload
    got = shaper.apply(float(action[0]), float(action[1]))
    assert type(got) is tuple and len(got) == 6
    kind, emitted_size, emitted_delay, added_delay, time_penalty, recorded = got
    assert [type(value) for value in (emitted_size, emitted_delay, added_delay, time_penalty)] == [
        float
    ] * 4
    assert (kind == "truncation") is expected.is_truncation
    assert np.array_equal(
        bits([emitted_size, added_delay, time_penalty, emitted_delay]),
        bits([
            direction * expected.emitted_bytes,
            expected.added_delay,
            expected.delay_action,
            delay + expected.added_delay,
        ]),
    )
    assert type(recorded) is tuple
    assert np.array_equal(
        bits(recorded),
        bits(oracle.record_action(
            direction, expected.emitted_bytes, emitted_delay, shaper.size_scale, shaper.max_delay_ms
        )),
    )
    assert shaper.steps == steps + 1
    if expected.is_truncation:
        assert (shaper.remaining_bytes, shaper.truncations, shaper.delay_ms) == (
            remaining - expected.emitted_bytes, truncations + 1, 0.0
        )
        assert shaper.consumed_payload == payload + expected.emitted_bytes
    else:
        assert kind == ("padding" if expected.emitted_bytes - remaining > 0 else "exact")
        assert (shaper.remaining_bytes, shaper.consumed_payload) == (0.0, payload + remaining)


class TestEmulatorOracle:
    """`PacketShaper.apply` and `normalised_pair` are plain Python floats now;
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
        kwargs = dict(
            remaining_bytes=remaining,
            truncations_current_packet=truncations,
            steps_taken=steps,
            max_truncations_per_packet=max_truncations,
            max_steps=max_steps,
            **self.LIMITS,
        )
        for size_action in EDGE_VALUES:
            for delay_action in EDGE_VALUES:
                action = np.array([size_action, delay_action])
                assert_apply_matches_oracle(
                    shaper_at(**kwargs), action, oracle.shape_packet(action, **kwargs)
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
    """``PacketShaper.apply`` takes two Python floats and returns a plain
    tuple, equal to the seed numpy oracle field for field and bit for bit
    from every packet state below, in both directions."""

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
            for direction in (1.0, -1.0):
                for size_action in self.COMPONENTS:
                    for delay_action in self.COMPONENTS:
                        action = [size_action, delay_action]
                        assert_apply_matches_oracle(
                            shaper_at(direction=direction, delay_ms=12.0, **kwargs),
                            action,
                            oracle.shape_packet(action, **kwargs),
                        )

    def test_begin_builds_no_observation(self):
        shaper = PacketShaper(1460.0)
        assert shaper.begin(-900.0, 5.0) is None
        assert (shaper.direction, shaper.remaining_bytes, shaper.delay_ms) == (-1.0, 900.0, 5.0)
        assert shaper.observation() == normalised_pair(-1.0, 900.0, 5.0, 1460.0, 100.0)

    def test_nan_raises_the_same_text_from_both_entry_points(self, env):
        from repro.core.state_encoder import StateEncoder
        from repro.serve import session as session_module

        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        table = session_module.SessionTable(encoder.num_layers, encoder.hidden_size)
        session = session_module.FlowSession("s", table, table.acquire(), PacketShaper(1460.0))
        session.enqueue(900.0, 1.0)
        assert session.arm_next()
        env.reset()
        for size_action, delay_action in ((np.nan, 0.25), (0.25, np.nan), (np.nan, np.nan)):
            with pytest.raises(ValueError) as from_training:
                env.step(np.array([[size_action, delay_action]]))
            with pytest.raises(ValueError) as from_serving:
                session.apply_action([size_action, delay_action])
            assert str(from_training.value) == str(from_serving.value)
            assert str(from_training.value).startswith("non-finite action [")

    def test_step_validates_the_shape(self, env):
        env.reset()
        for bad in ([0.1, 0.2, 0.3], np.float64(0.5), 0.5, np.zeros((2, 2)), [], [0.1, 0.2]):
            with pytest.raises(ValueError, match="actions must have shape"):
                env.step(bad)
            with pytest.raises(ValueError, match="actions must have shape"):
                env.step_subset([0], bad)
        assert episode(env).shaper.steps == 0

    def test_both_tiers_end_in_the_same_core_function(self, env, monkeypatch):
        """One emulator: ``VectorFlowEnv._propose`` and
        ``FlowSession.apply_action`` step one state machine,
        ``PacketShaper.apply``."""
        from repro.core.state_encoder import StateEncoder
        from repro.serve import session as session_module

        real, calls = PacketShaper.apply, []

        def spy(shaper, *args):
            calls.append(args)
            return real(shaper, *args)

        monkeypatch.setattr(PacketShaper, "apply", spy)

        env.reset()
        env.step(np.array([[0.5, 0.25]]))
        assert calls == [(0.5, 0.25)]

        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        table = session_module.SessionTable(encoder.num_layers, encoder.hidden_size)
        session = session_module.FlowSession("s", table, table.acquire(), PacketShaper(1460.0))
        assert type(session.shaper) is type(episode(env).shaper) is PacketShaper
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
        for action in ([np.nan, 0.0], [0.0, np.nan]):
            shaper = PacketShaper(1460.0)
            shaper.begin(900.0, 3.0)
            with pytest.raises(ValueError, match="non-finite action"):
                shaper.apply(*action)
            # Raised before any state changed.
            assert (shaper.remaining_bytes, shaper.delay_ms, shaper.steps) == (900.0, 3.0, 0)
        # Infinite components clamp like any out-of-range value (as np.clip did).
        shaper = PacketShaper(1460.0)
        shaper.begin(900.0, 3.0)
        assert shaper.apply(np.inf, -np.inf)[1] == 1460.0

    def test_env_step_rejects_nan_and_stays_usable(self, env):
        env.reset()
        with pytest.raises(ValueError, match="non-finite action"):
            step(env, np.array([np.nan, 0.0]))
        # The emulator did not advance: the same packet is still pending.
        tick, _, _ = step(env, np.array([1.0, 0.0]))
        assert tick.pairs[0, 0] == pytest.approx(-1.0)
