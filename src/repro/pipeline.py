"""High-level experiment pipeline.

The benchmarks, the examples and the CLI all follow the same recipe from
Section 5.4 of the paper: build a dataset, split it 40/40/10/10, train
censoring classifiers on ``clf_train``, train Amoeba on ``attack_train``
against each censor, and evaluate on ``test``.  An :class:`ExperimentSpec`
states one run of that recipe and :func:`run_experiment` runs it, so each
driver only states its parameters and which rows/series it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .censors import (
    CensorClassifier,
    CumulSVMClassifier,
    DecisionTreeCensor,
    DeepFingerprintingClassifier,
    LSTMClassifier,
    RandomForestCensor,
    SDAEClassifier,
)
from .core import Amoeba, AmoebaConfig, EvaluationReport
from .features import FlowNormalizer, SequenceRepresentation
from .flows import (
    DatasetSplits,
    Flow,
    FlowDataset,
    NetworkCondition,
    build_tor_dataset,
    build_v2ray_dataset,
)
from .utils.rng import ensure_rng, spawn_rngs
from .utils.validation import check_probability

__all__ = [
    "ExperimentData",
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "prepare_experiment_data",
    "make_censor",
    "train_censors",
    "train_amoeba",
    "CENSOR_NAMES",
    "NEURAL_CENSOR_NAMES",
]

CENSOR_NAMES = ("SDAE", "DF", "LSTM", "DT", "RF", "CUMUL")
NEURAL_CENSOR_NAMES = ("SDAE", "DF", "LSTM")


@dataclass
class ExperimentData:
    """Dataset, splits and representations shared by one experiment."""

    dataset_name: str
    dataset: FlowDataset
    splits: DatasetSplits
    normalizer: FlowNormalizer
    representation: SequenceRepresentation

def prepare_experiment_data(
    dataset_name: str = "tor",
    n_censored: int = 200,
    n_benign: int = 200,
    max_packets: int = 60,
    max_delay_ms: float = 200.0,
    drop_rate: float = 0.0,
    rng=None,
) -> ExperimentData:
    """Build a dataset ('tor' or 'v2ray'), split it and derive representations."""
    rng = ensure_rng(rng)
    drop_rate = check_probability(drop_rate, "drop_rate")
    condition = NetworkCondition(drop_rate=drop_rate) if drop_rate > 0 else None
    if dataset_name == "tor":
        dataset = build_tor_dataset(
            n_censored=n_censored, n_benign=n_benign, rng=rng, condition=condition, max_packets=max_packets
        )
        size_scale = 1460.0
    elif dataset_name == "v2ray":
        dataset = build_v2ray_dataset(
            n_censored=n_censored, n_benign=n_benign, rng=rng, condition=condition, max_packets=max_packets
        )
        size_scale = 16384.0
    else:
        raise ValueError(f"unknown dataset {dataset_name!r} (expected 'tor' or 'v2ray')")

    splits = dataset.split(rng=rng)
    normalizer = FlowNormalizer(size_scale=size_scale, delay_scale=max_delay_ms)
    representation = SequenceRepresentation(max_packets, normalizer)
    return ExperimentData(
        dataset_name=dataset_name,
        dataset=dataset,
        splits=splits,
        normalizer=normalizer,
        representation=representation,
    )


def make_censor(
    name: str,
    data: ExperimentData,
    rng=None,
    epochs: int = 8,
    forest_size: int = 20,
) -> CensorClassifier:
    """Instantiate one of the six censoring classifiers used in the paper."""
    rng = ensure_rng(rng)
    name = name.upper()
    if name == "DF":
        return DeepFingerprintingClassifier(data.representation, epochs=epochs, rng=rng)
    if name == "SDAE":
        # The SDAE needs a few more fine-tuning epochs than the CNN to converge.
        return SDAEClassifier(
            data.representation, epochs=max(12, epochs), pretrain_epochs=max(1, epochs // 2), rng=rng
        )
    if name == "LSTM":
        return LSTMClassifier(
            data.normalizer, epochs=max(2, epochs // 2), max_train_length=data.representation.max_length, rng=rng
        )
    if name == "DT":
        return DecisionTreeCensor(rng=rng)
    if name == "RF":
        return RandomForestCensor(n_estimators=forest_size, rng=rng)
    if name == "CUMUL":
        return CumulSVMClassifier(rng=rng)
    raise ValueError(f"unknown censor {name!r}; expected one of {CENSOR_NAMES}")


def train_censors(
    data: ExperimentData,
    names: Sequence[str] = CENSOR_NAMES,
    rng=None,
    epochs: int = 8,
) -> Dict[str, CensorClassifier]:
    """Train the requested censors on the ``clf_train`` split.

    ``rng`` spawns one child per name of :data:`CENSOR_NAMES`, and each
    censor fits with the child of its own name: a censor depends on its
    name and ``rng``, not on the other names of the call.
    """
    unknown = [name for name in names if name.upper() not in CENSOR_NAMES]
    if unknown:
        raise ValueError(f"unknown censor {unknown[0]!r}; expected one of {CENSOR_NAMES}")
    children = spawn_rngs(rng, len(CENSOR_NAMES))
    censors: Dict[str, CensorClassifier] = {}
    for name in names:
        censor = make_censor(name, data, rng=children[CENSOR_NAMES.index(name.upper())], epochs=epochs)
        censor.fit(data.splits.clf_train.flows)
        censors[name] = censor
    return censors


def _default_agent_config(dataset_name: str, max_packets: int) -> AmoebaConfig:
    """The dataset's agent config: its ``lambda_data``, and episodes of at
    most two steps per packet, capped at 120."""
    config = AmoebaConfig.for_v2ray() if dataset_name == "v2ray" else AmoebaConfig.for_tor()
    return config.with_overrides(max_episode_steps=min(120, 2 * max_packets))


def train_amoeba(
    censor: CensorClassifier,
    data: ExperimentData,
    total_timesteps: int = 3000,
    config: Optional[AmoebaConfig] = None,
    rng=None,
    eval_flows: Optional[Sequence] = None,
    eval_every: Optional[int] = None,
    workers: Optional[int] = None,
) -> Amoeba:
    """Train an Amoeba agent against one censor on the ``attack_train`` split.

    ``workers`` shards rollout collection across that many worker
    processes (see ``Amoeba.train``); ``None`` collects in-process.
    """
    rng = ensure_rng(rng)
    if config is None:
        config = _default_agent_config(data.dataset_name, data.representation.max_length)
    agent = Amoeba(censor, data.normalizer, config, rng=rng)
    agent.train(
        data.splits.attack_train.censored_flows,
        total_timesteps=total_timesteps,
        eval_flows=eval_flows,
        eval_every=eval_every,
        workers=workers,
    )
    return agent


@dataclass(frozen=True)
class ExperimentSpec:
    """One run of the recipe, stated once; :func:`run_experiment` runs it.

    The data is ``flows`` flows per class of ``dataset`` (``max_packets``,
    ``drop_rate``) drawn from ``data_seed``.  The ``censors`` fit for
    ``censor_epochs`` through :func:`train_censors` from ``censor_seed``.
    The agent against the ``i``-th censor trains for ``timesteps`` from
    ``agent_seed + i`` with :meth:`agent_config` (the dataset's default with
    the ``agent`` overrides, given as a dict), then is evaluated
    deterministically on the first ``eval_flows`` censored test flows.
    ``timesteps=0`` stops after the fit and ``censors=()`` after the data.
    ``str(spec)`` names exactly the fields that differ from these defaults.
    """

    dataset: str = "tor"
    flows: int = 200
    max_packets: int = 60
    drop_rate: float = 0.0
    censors: Tuple[str, ...] = CENSOR_NAMES
    censor_epochs: int = 8
    agent: Tuple[Tuple[str, Any], ...] = ()
    timesteps: int = 3000
    eval_flows: int = 20
    data_seed: int = 0
    censor_seed: int = 1
    agent_seed: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "censors", tuple(self.censors))
        object.__setattr__(self, "agent", tuple(sorted(dict(self.agent).items())))
        self.agent_config()  # an unknown or invalid override fails here, not mid-run

    def agent_config(self) -> AmoebaConfig:
        """The agent config every run of this spec trains with."""
        return _default_agent_config(self.dataset, self.max_packets).with_overrides(**dict(self.agent))

    def with_overrides(self, **changes) -> "ExperimentSpec":
        """A copy with ``changes``; ``agent`` overrides merge into this spec's."""
        if "agent" in changes:
            changes["agent"] = {**dict(self.agent), **dict(changes["agent"])}
        return replace(self, **changes)

    def __str__(self) -> str:
        changed = [
            f"{spec_field.name}={dict(value) if spec_field.name == 'agent' else value!r}"
            for spec_field in fields(self)
            if (value := getattr(self, spec_field.name)) != spec_field.default
        ]
        return f"ExperimentSpec({', '.join(changed)})"


@dataclass
class ExperimentResult:
    """What one run of ``spec`` built and measured, keyed by censor name."""

    spec: ExperimentSpec
    data: ExperimentData
    censors: Dict[str, CensorClassifier]
    agents: Dict[str, Amoeba] = field(default_factory=dict)
    reports: Dict[str, EvaluationReport] = field(default_factory=dict)
    training_queries: Dict[str, int] = field(default_factory=dict)

    def eval_flows(self) -> List[Flow]:
        """The censored test flows every agent is evaluated on."""
        return self.data.splits.test.censored_flows[: self.spec.eval_flows]

    @property
    def histories(self) -> Dict[str, Dict[str, Any]]:
        """Each agent's per-iteration training record (``TrainingLogger.history``)."""
        return {name: agent.training_log.history for name, agent in self.agents.items()}


def run_experiment(spec: ExperimentSpec, workers: Optional[int] = None) -> ExperimentResult:
    """Prepare, fit, then train and evaluate one agent per censor, as
    ``spec`` states.  ``workers`` reaches :func:`train_amoeba` and changes
    no result."""
    data = prepare_experiment_data(
        spec.dataset, spec.flows, spec.flows, spec.max_packets, drop_rate=spec.drop_rate, rng=spec.data_seed
    )
    censors = train_censors(data, names=spec.censors, rng=spec.censor_seed, epochs=spec.censor_epochs)
    result = ExperimentResult(spec=spec, data=data, censors=censors)
    if spec.timesteps == 0:
        return result
    config = spec.agent_config()
    for index, (name, censor) in enumerate(censors.items()):
        censor.reset_query_count()
        agent = train_amoeba(censor, data, spec.timesteps, config, rng=spec.agent_seed + index, workers=workers)
        result.training_queries[name] = censor.query_count
        result.agents[name] = agent
        result.reports[name] = agent.evaluate(result.eval_flows())
    return result
