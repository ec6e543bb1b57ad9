"""Shared fixtures for the test suite.

Heavyweight objects (datasets, trained censors, pre-trained encoders) are
session-scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.censors import DecisionTreeCensor
from repro.core import AmoebaConfig
from repro.features import FlowNormalizer, SequenceRepresentation
from repro.flows import Flow, FlowLabel, build_tor_dataset, build_v2ray_dataset


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tor_dataset():
    return build_tor_dataset(n_censored=60, n_benign=60, rng=np.random.default_rng(7), max_packets=40)


@pytest.fixture(scope="session")
def v2ray_dataset():
    return build_v2ray_dataset(n_censored=40, n_benign=40, rng=np.random.default_rng(8), max_packets=40)


@pytest.fixture(scope="session")
def tor_splits(tor_dataset):
    return tor_dataset.split(rng=np.random.default_rng(9))


@pytest.fixture(scope="session")
def normalizer():
    return FlowNormalizer(size_scale=1460.0, delay_scale=200.0)


@pytest.fixture(scope="session")
def representation(normalizer):
    return SequenceRepresentation(40, normalizer)


@pytest.fixture(scope="session")
def trained_dt_censor(tor_splits):
    censor = DecisionTreeCensor(rng=3)
    censor.fit(tor_splits.clf_train.flows)
    return censor


@pytest.fixture(scope="session")
def fast_config():
    return AmoebaConfig.for_tor(
        n_envs=2,
        rollout_length=16,
        max_episode_steps=30,
        encoder_hidden=8,
        actor_hidden=(16,),
        critic_hidden=(16,),
    )


@pytest.fixture
def simple_flow():
    return Flow(
        sizes=[536.0, -1072.0, 536.0, -536.0],
        delays=[0.0, 50.0, 20.0, 5.0],
        label=FlowLabel.CENSORED,
        protocol="tor",
    )


@pytest.fixture
def benign_flow():
    return Flow(
        sizes=[420.0, -1460.0, -1200.0, 300.0],
        delays=[0.0, 30.0, 1.0, 40.0],
        label=FlowLabel.BENIGN,
        protocol="https",
    )


@pytest.fixture
def fresh_blocked(monkeypatch):
    """``install(**wraps)`` puts a new ``blocked`` backend in the registry
    whose hook table is self-checked anew at its first use, the compiled path
    of each row named in ``wraps`` replaced by ``wraps[name](compiled)``."""
    from repro.nn import backend as nnb

    def install(**wraps):
        table = tuple(
            hook._replace(call=lambda kernel, hook=hook, wrap=wraps[hook.name]: wrap(hook.compiled(kernel)))
            if hook.name in wraps
            else hook
            for hook in nnb._HOOKS
        )
        assert set(wraps) <= {hook.name for hook in table}, sorted(wraps)
        monkeypatch.setattr(nnb, "_HOOKS", table)
        backend = nnb.BlockedBackend()
        monkeypatch.setitem(nnb._REGISTRY, "blocked", backend)
        return backend

    return install


@pytest.fixture
def flip_first_bit():
    """Wraps a compiled path so its first output element has its lowest bit
    flipped: a kernel that fails its self-check."""
    return _flip_first_bit


def _flip_first_bit(compiled):
    def call(*args):
        result = compiled(*args)
        first = result[0] if isinstance(result, tuple) else result
        if isinstance(first, np.ndarray) and first.size:
            first.view(np.uint64).flat[0] ^= np.uint64(1)
        return result

    return call
