"""repro — reproduction of *Amoeba: Circumventing ML-supported Network
Censorship via Adversarial Reinforcement Learning* (CoNEXT 2023).

Subpackages
-----------
``repro.nn``
    Numpy autodiff neural-network substrate (PyTorch stand-in).
``repro.ml``
    Classical ML substrate (decision tree, random forest, SVM, metrics).
``repro.flows``
    Flow model, synthetic Tor/V2Ray/HTTPS generators, datasets and network
    conditions.
``repro.features``
    Statistical (166-d), CUMUL and sequence feature representations.
``repro.censors``
    The six censoring classifiers (DF, SDAE, LSTM, CUMUL, DT, RF) and the
    gateway that deploys them.
``repro.core``
    Amoeba itself: StateEncoder, adversarial environment, PPO, agent,
    profiles.
``repro.distrib``
    Distributed tier: sharded multi-process rollout collection with
    checkpoint broadcast and replay-based worker restarts.
``repro.serve``
    Serving tier: online policy serving with continuous batching, session
    management, deadline-driven profile fallback and a load generator.
``repro.attacks``
    White-box baselines (CW, NIDSGAN, BAP).
``repro.eval``
    Evaluation metrics, transferability, convergence curves and reporting.
"""

from . import attacks, censors, core, distrib, eval, features, flows, ml, nn, pipeline, serve, utils
from .core import AdversarialResult, Amoeba, AmoebaConfig, EvaluationReport
from .flows import Flow, FlowDataset, FlowLabel, build_tor_dataset, build_v2ray_dataset

__version__ = "1.0.0"

__all__ = [
    "nn",
    "ml",
    "flows",
    "features",
    "censors",
    "core",
    "attacks",
    "eval",
    "pipeline",
    "serve",
    "utils",
    "Amoeba",
    "AmoebaConfig",
    "AdversarialResult",
    "EvaluationReport",
    "Flow",
    "FlowLabel",
    "FlowDataset",
    "build_tor_dataset",
    "build_v2ray_dataset",
    "__version__",
]
