"""Pins the public surface of ``repro.nn``, ``repro.censors``, ``repro.ml``,
``repro.distrib`` and ``repro.flows``, and that the retired single-step twins,
knobs and unreached members stay gone.

These packages export what training, the censors, serving, the CLI, the
examples and the benchmarks call, and nothing else.  A name added here is a
name the project commits to keep.
"""

import importlib

import pytest

SURFACES = {
    "repro.nn": {
        "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
        "row_consistent_matmul", "rc_matmul",
        "backend", "ExecutionBackend", "active_backend", "available_backends",
        "compiled_kernel_available", "compiled_kernel_error", "default_backend",
        "fused_cells_available", "fused_cells_error", "get_backend", "use_backend",
        "functional", "Module", "Parameter", "Linear", "Sequential", "ReLU", "Tanh",
        "Conv1d", "GRUCell", "GRU", "LSTMCell", "LSTM",
        "Adam", "clip_grad_norm", "xavier_uniform", "kaiming_uniform", "orthogonal",
        "save_state_dict", "state_dict_to_bytes", "state_dict_from_bytes",
        "metadata_from_bytes", "load_state_dict", "split_prefixed_state",
        "pack_legacy_recurrent",
    },
    "repro.nn.functional": {
        "relu", "tanh", "stable_sigmoid", "mse_loss", "mae_loss",
        "binary_cross_entropy_with_logits", "ppo_policy_loss",
        "tanh_mlp_forward", "tanh_mlp_backward",
        "gru_cell_forward", "gru_sequence", "lstm_sequence",
    },
    "repro.censors": {
        "CensorClassifier", "DECISION_THRESHOLD", "DeepFingerprintingClassifier",
        "SDAEClassifier", "LSTMClassifier", "CumulSVMClassifier",
        "DecisionTreeCensor", "RandomForestCensor",
        "CensorGateway", "SocketPair", "GatewayDecision",
    },
    "repro.distrib": {
        "ShardRunner", "ShardResult", "ShardedRolloutEngine", "Transport",
        "TransportError", "worker_command_loop", "ForkWorkerPool",
    },
    "repro.flows": {
        "Flow", "FlowLabel", "FlowGenerator", "TorFlowGenerator",
        "HTTPSFlowGenerator", "V2RayFlowGenerator", "HTTPSRecordFlowGenerator",
        "TCP_MSS", "TLS_MAX_RECORD", "TOR_CELL_SIZE", "FlowDataset", "DatasetSplits",
        "build_tor_dataset", "build_v2ray_dataset", "NetworkCondition",
        "save_flows_jsonl", "load_flows_jsonl", "save_dataset",
    },
    "repro.ml": {
        "DecisionTreeClassifier", "RandomForestClassifier", "KernelSVM", "rbf_kernel",
        "StandardScaler", "accuracy_score", "precision_score", "recall_score",
        "f1_score", "confusion_matrix",
    },
}


@pytest.mark.parametrize("module_name", sorted(SURFACES))
def test_exports_exactly_the_pinned_names(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == SURFACES[module_name]
    for name in module.__all__:
        assert hasattr(module, name), name


@pytest.mark.parametrize("module_name", ["repro.censors.early_decision", "repro.censors.ensemble"])
def test_retired_censor_wrappers_do_not_import(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


def test_retired_telemetry_tier_does_not_import():
    # Per-layer attribution is benchmarks/perf/run.py --trace 1; the results
    # come from TrainingLogger.history, EvaluationReport and query_count.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs")


@pytest.mark.parametrize("needle", ["repro.obs", "import obs", "_obs_state", "REPRO_TELEMETRY"])
def test_no_source_reaches_for_the_retired_telemetry_tier(needle):
    # Neither the package nor the oracles the tests compare it with may
    # import, switch or name the retired tier.
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests" / "oracles").rglob("*.py"))
    assert files
    hits = [
        f"{path.relative_to(root)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if needle in line
    ]
    assert hits == []


# One step protocol: the emulator, the policy networks and the rollout buffer
# keep only the batch calls that training, evaluation and serving run.  The
# sequential reference steps itself (tests/oracles/sequential_collection.py).
RETIRED_MEMBERS = [
    ("repro.core.env", "AdversarialFlowEnv", "step"),
    ("repro.core.env", "AdversarialFlowEnv", "apply"),
    ("repro.core.env", "AdversarialFlowEnv", "propose"),
    ("repro.core.env", "AdversarialFlowEnv", "observation_history"),
    ("repro.core.env", "AdversarialFlowEnv", "action_history"),
    ("repro.core.env", "AdversarialFlowEnv", "_settle"),
    ("repro.core.env", "AdversarialFlowEnv", "_finalise_episode"),
    ("repro.core.agent", "Amoeba", "encode_state"),
    ("repro.core.actor_critic", "GaussianActor", "act"),
    ("repro.core.actor_critic", "Critic", "value"),
    ("repro.core.rollout", "RolloutBuffer", "add"),
    ("repro.core.rollout", "RolloutBuffer", "full"),
    ("repro.core.rollout", "RolloutBuffer", "reset"),
    ("repro.censors.base", "CensorClassifier", "predict_labels"),
    ("repro.ml.decision_tree", "DecisionTreeClassifier", "_traverse"),
    ("repro.serve.session", "FlowSession", "latencies_ms"),
    # One pair function: both encoder streams' inputs are ``normalised_pair``'s
    # float pairs; the ndarray wrappers of it are gone.
    ("repro.core", "env", "make_observation"),
    ("repro.core", "env", "record_action"),
]

# Unreached members: no CLI subcommand, example, benchmark or perf workload
# calls them (a call trace over all of those finds none), so they are
# deleted rather than kept for callers that do not exist.
UNREACHED_MEMBERS = [
    # Settling cuts all of an episode's prefixes in one call.
    ("repro.flows.flow", "Flow", "prefix_view"),
    ("repro.nn.tensor", "Tensor", "size"),
    ("repro.nn.tensor", "Tensor", "numpy"),
    ("repro.nn.tensor", "Tensor", "__rtruediv__"),
    ("repro.nn.tensor", "Tensor", "sqrt"),
    ("repro.nn.tensor", "Tensor", "T"),
    ("repro.nn.layers", "Module", "zero_grad"),
    ("repro.ml.decision_tree", "DecisionTreeClassifier", "predict"),
    ("repro.ml.decision_tree", "DecisionTreeClassifier", "score"),
    ("repro.ml.random_forest", "RandomForestClassifier", "predict"),
    ("repro.ml.random_forest", "RandomForestClassifier", "score"),
    ("repro.ml.svm", "KernelSVM", "predict"),
    ("repro.ml.svm", "KernelSVM", "score"),
    ("repro.ml.svm", "KernelSVM", "n_support_"),
    ("repro.ml.scaler", "StandardScaler", "inverse_transform"),
    ("repro.flows.flow", "Flow", "absolute_sizes"),
    ("repro.flows.flow", "Flow", "upstream_bytes"),
    ("repro.flows.flow", "Flow", "downstream_bytes"),
    ("repro.flows.flow", "Flow", "total_bytes"),
    ("repro.flows.flow", "Flow", "as_pairs"),
    ("repro.flows.flow", "Flow", "prefix"),
    ("repro.flows.dataset", "FlowDataset", "benign_flows"),
    ("repro.flows.dataset", "FlowDataset", "max_length"),
    ("repro.flows.dataset", "FlowDataset", "class_balance"),
    ("repro.flows.dataset", "FlowDataset", "filter_by_label"),
    ("repro.features.representation", "FlowNormalizer", "denormalise_size"),
    ("repro.features.representation", "FlowNormalizer", "denormalise_delay"),
    ("repro.features.representation", "FlowNormalizer", "for_dataset"),
    ("repro.features.representation", "SequenceRepresentation", "transform"),
    ("repro.features.representation", "SequenceRepresentation", "transform_pairs"),
    ("repro.features.statistical", "StatisticalFeatureExtractor", "n_features"),
    ("repro.features.cumul", "CumulFeatureExtractor", "feature_names"),
    ("repro.core.agent", "Amoeba", "load_policy"),
    ("repro.core.agent", "Amoeba", "timesteps_trained"),
    ("repro.core.profiles", "AdversarialProfile", "n_packets"),
    ("repro.core.arms_race", "ArmsRaceResult", "asr_trajectory"),
    ("repro.core.arms_race", "ArmsRaceResult", "accuracy_trajectory"),
    ("repro.core.vec_env", "VectorFlowEnv", "envs"),
    ("repro.core.vec_env", "BatchedEpisodeEncoder", "state_dim"),
    ("repro.core.env", "AdversarialFlowEnv", "done"),
    ("repro.censors.base", "CensorClassifier", "classify"),
    ("repro.censors.tree_models", "DecisionTreeCensor", "importance_category_counts"),
    ("repro.serve.session", "SessionReport", "data_overhead"),
    ("repro.serve.session", "FlowSession", "observation_state"),
    ("repro.serve.session", "FlowSession", "action_state"),
    ("repro.serve.server", "PolicyServer", "n_sessions"),
    ("repro.serve.loadgen", "LoadReport", "as_dict"),
    ("repro.pipeline", "ExperimentData", "max_packet_size"),
    ("repro.eval.ecdf", "ECDF", "quantile"),
    ("repro.attacks.base", "WhiteBoxAttack", "fit"),
]

UNREACHED_FUNCTIONS = [
    ("repro.nn.tensor", "is_row_consistent_matmul"),
    ("repro.nn", "is_row_consistent_matmul"),
    ("repro.ml.metrics", "classification_report"),
    ("repro.ml.metrics", "ClassificationReport"),
    ("repro.flows.flow", "flow_matrix"),
    ("repro.flows.io", "load_dataset"),
    ("repro.flows.network", "apply_conditions"),
    ("repro.core.reward_masking", "expected_queries"),
    ("repro.core", "expected_queries"),
    ("repro.pipeline", "censor_baseline_table"),
    ("repro.utils.rng", "seed_sequence_state"),
    ("repro.utils.rng", "seed_sequence_from_state"),
    ("repro.utils", "seed_sequence_state"),
    ("repro.utils", "seed_sequence_from_state"),
    # One node per DF conv block: the composed graph's pool layer is the oracle's.
    ("repro.nn", "MaxPool1d"),
    ("repro.nn.conv", "MaxPool1d"),
    # One node per PPO loss: the actor's log-density, entropy and MLP are
    # folded into the policy loss, and the critic's MLP is its values node.
    ("repro.nn.functional", "gaussian_log_prob"),
    ("repro.nn.functional", "gaussian_entropy"),
    ("repro.nn.functional", "tanh_mlp"),
    # The two backends are built at import; REPRO_NN_BACKEND picks the default.
    ("repro.nn", "register_backend"),
    ("repro.nn.backend", "register_backend"),
    ("repro.nn", "set_default_backend"),
    ("repro.nn.backend", "set_default_backend"),
]


@pytest.mark.parametrize("module_name,owner,member", RETIRED_MEMBERS)
def test_single_step_twins_are_gone(module_name, owner, member):
    assert not hasattr(getattr(importlib.import_module(module_name), owner), member)


def test_serving_flush_has_no_per_decision_array():
    """A served decision, its request and a queued packet are named tuples of
    Python values: a ``ShapingDecision`` holds no ndarray, and its recorded
    action is the float pair the flush stacks once per batch."""
    import numpy as np

    from repro.core import GaussianActor, StateEncoder
    from repro.serve import DecisionRequest, PolicyServer, ServeConfig, ShapingDecision
    from repro.serve.session import PendingPacket

    for record in (ShapingDecision, DecisionRequest, PendingPacket):
        assert issubclass(record, tuple) and hasattr(record, "_fields")
    encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
    server = PolicyServer(GaussianActor(8, hidden_dims=(4,), rng=1), encoder, ServeConfig(max_batch=2))
    for session_id in ("a", "b"):
        server.open_session(session_id)
        server.submit(session_id, 3000.0, 1.0)
    decisions = server.drain()
    assert decisions
    for decision in decisions:
        assert not any(isinstance(value, np.ndarray) for value in decision)
        assert type(decision.recorded_action) is tuple
        assert [type(value) for value in decision.recorded_action] == [float, float]
    for session_id in ("a", "b"):
        observation = server.session(session_id).current_observation()
        assert type(observation) is tuple and len(observation) == 2


def test_collection_tick_has_no_per_step_object():
    """``VectorFlowEnv.propose`` returns one tick record of per-slot tuples
    and arrays; the per-step ``PendingStep`` object is gone, and ``settle``
    rewards a rollout as arrays with no per-step method of the emulator."""
    import repro.core
    from repro.core import env

    assert not hasattr(env, "PendingStep") and "PendingStep" not in env.__all__
    assert not hasattr(repro.core, "PendingStep") and "PendingStep" not in repro.core.__all__


def test_actor_has_no_tensor_forward():
    """The actor's only training forward is ``log_prob_and_entropy``: the
    ``(mean, log_std)`` forward it used to call is gone, so calling the actor
    reaches ``Module.forward`` and raises."""
    import numpy as np

    from repro import nn
    from repro.core import GaussianActor

    assert "forward" not in vars(GaussianActor)
    with pytest.raises(NotImplementedError):
        GaussianActor(4, rng=0)(nn.Tensor(np.zeros((1, 4))))


@pytest.mark.parametrize("module_name,owner,member", UNREACHED_MEMBERS)
def test_unreached_members_are_gone(module_name, owner, member):
    assert not hasattr(getattr(importlib.import_module(module_name), owner), member)


@pytest.mark.parametrize("module_name,name", UNREACHED_FUNCTIONS)
def test_unreached_functions_are_gone(module_name, name):
    assert not hasattr(importlib.import_module(module_name), name)


# Every class has ``__call__`` (its constructor), so the instances are asked.
@pytest.mark.parametrize(
    "module_name,owner",
    [
        ("repro.features.statistical", "StatisticalFeatureExtractor"),
        ("repro.features.cumul", "CumulFeatureExtractor"),
    ],
)
def test_feature_extractors_have_no_call_twin(module_name, owner):
    extractor = getattr(importlib.import_module(module_name), owner)()
    assert "__call__" not in vars(type(extractor))
    assert not callable(extractor)


def test_retired_knobs_are_gone():
    import dataclasses
    import inspect

    from repro.core import AmoebaConfig, VectorFlowEnv, run_arms_race
    from repro.serve import LoadReport, run_workload

    assert "eval_batch_size" not in {field.name for field in dataclasses.fields(AmoebaConfig)}
    with pytest.raises(TypeError):
        AmoebaConfig(eval_batch_size=4)
    assert "eval_batch_size" not in inspect.signature(run_arms_race).parameters
    # No caller left sessions open, and only the retired serving smoke read
    # the wall time (through ``LoadReport.as_dict``).
    assert "close_sessions" not in inspect.signature(run_workload).parameters
    assert "wall_seconds" not in {field.name for field in dataclasses.fields(LoadReport)}
    with pytest.raises(TypeError):
        VectorFlowEnv([], auto_reset=True)
    metrics = importlib.import_module("repro.eval.metrics")
    for name in ("attack_success_rate", "data_overhead", "time_overhead", "adversarial_flow_overheads"):
        assert not hasattr(metrics, name)
        assert not hasattr(importlib.import_module("repro.eval"), name)


# CI runs no ``benchmarks/bench_*.py`` module, so a call to a retired name
# there would only fail by hand.
RETIRED_CALLS = [
    r"\.encode_state\(",
    r"\.observation_history\(",
    r"\.action_history\(",
    r"\bactor\.act\(",
    r"\bcritic\.value\(",
    r"\benv\.(step|apply|propose)\(",
    r"\.flows_to_score\b",
    r"\bPendingStep\b",
    r"\.prefix_view\(",
    r"_action_components\b",
    r"_current_adversarial_flow\b",
    r"\.last_summary\b",
    r"\b(buffer|buf)\.(add|reset)\(",
    r"\bauto_reset=",
    r"\beval_batch_size\b",
    r"\.predict_labels\(",
    r"\bis_row_consistent_matmul\b",
    r"\.numpy\(\)",
    r"\.sqrt\(\)",
    r"\.predict\(",
    r"\.score\(",
    r"\bn_support_\b",
    r"\binverse_transform\b",
    r"\b(classification_report|ClassificationReport)\b",
    r"\b(absolute_sizes|upstream_bytes|downstream_bytes)\b",
    r"\.total_bytes\b",
    r"\.as_pairs\(",
    r"\.prefix\(",
    r"\bflow_matrix\b",
    r"\b(benign_flows|class_balance|filter_by_label)\b",
    r"\b(load_dataset|apply_conditions)\b",
    r"\b(denormalise_size|denormalise_delay|for_dataset)\b",
    r"\btransform_pairs\b",
    r"\.load_policy\(",
    r"\.timesteps_trained\b",
    r"\bexpected_queries\b",
    r"\b(asr|accuracy)_trajectory\b",
    r"\.envs\b",
    r"\.classify\(",
    r"\bimportance_category_counts\b",
    r"\bserver\.n_sessions\b",
    r"\bcensor_baseline_table\b",
    r"\bseed_sequence_(from_)?state\b",
    # One statistical-feature kernel: the per-flow one and its batch-size switch are gone.
    r"\b_raw_features\b",
    r"\b_BATCH_BREAK_EVEN\b",
    # One performance instrument: the load report's smoke-only surface is gone.
    r"\bwall_seconds\b",
    r"\bclose_sessions\b",
    # One evaluation batch, one noise source.
    r"\b(attack_many|evaluate)\(.*\bbatch_size=",
    r"\bact_batch\(.*\bdeterministic=",
    r"\b_attack_batch\b",
    r"\bfinal_states\b",
    # One node per DF conv block.
    r"\bnn\.MaxPool1d\b",
    # One pair function (the seed bodies of the wrappers stay in the emulator oracle).
    r"(\bcore\.env import .*|\benv\.)\b(make_observation|record_action)\b",
    # One node per PPO loss (the composed bodies stay in the PPO oracle).
    r"\b(F|functional)\.(gaussian_log_prob|gaussian_entropy|tanh_mlp)\(",
]


def test_one_evaluation_batch_and_one_noise_source():
    """``attack_many`` runs every flow in one lockstep batch and draws sampled
    noise per flow from the eval stream; the actor samples only from noise it
    is handed, and the shard result ships no state nobody reads."""
    import dataclasses
    import inspect

    from repro.core import Amoeba, GaussianActor
    from repro.distrib import ShardResult

    for method in (Amoeba.attack_many, Amoeba.evaluate):
        assert "batch_size" not in inspect.signature(method).parameters
    assert not hasattr(Amoeba, "_attack_batch")
    assert list(inspect.signature(GaussianActor.act_batch).parameters) == ["self", "states", "noise"]
    assert not hasattr(GaussianActor(4, rng=0), "_rng")
    assert "final_states" not in {field.name for field in dataclasses.fields(ShardResult)}


@pytest.mark.parametrize("pattern", RETIRED_CALLS)
def test_no_source_calls_a_retired_single_step_name(pattern):
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    files = [
        path
        for folder in ("src", "tests/oracles", "benchmarks", "examples")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    assert files
    needle = re.compile(pattern)
    hits = [
        f"{path.relative_to(root)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if needle.search(line)
    ]
    assert hits == []
