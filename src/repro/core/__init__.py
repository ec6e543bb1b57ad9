"""Amoeba core: configuration, state encoder, environment, PPO and the agent facade."""

from .actor_critic import Critic, GaussianActor, build_mlp
from .agent import AdversarialResult, Amoeba, EvaluationReport
from .arms_race import ArmsRaceResult, ArmsRaceRound, run_arms_race
from .config import AmoebaConfig
from .env import ActionKind, EpisodeSummary
from .ppo import PPOUpdater, PPOUpdateStats
from .profiles import AdversarialProfile, ProfileDatabase, ProfileEmbeddingResult
from .reward_masking import MaskSweepPoint, reward_mask_sweep
from .rollout import RolloutBuffer, compute_gae
from .state_encoder import (
    EncoderState,
    Seq2SeqAutoencoder,
    StateDecoder,
    StateEncoder,
    make_synthetic_flow_dataset,
    pretrain_state_encoder,
    reconstruction_nmae_by_length,
)
from .vec_env import BatchedEpisodeEncoder, VectorFlowEnv

__all__ = [
    "Amoeba",
    "AdversarialResult",
    "EvaluationReport",
    "AmoebaConfig",
    "EpisodeSummary",
    "ActionKind",
    "VectorFlowEnv",
    "BatchedEpisodeEncoder",
    "EncoderState",
    "GaussianActor",
    "Critic",
    "build_mlp",
    "PPOUpdater",
    "PPOUpdateStats",
    "RolloutBuffer",
    "compute_gae",
    "StateEncoder",
    "StateDecoder",
    "Seq2SeqAutoencoder",
    "pretrain_state_encoder",
    "make_synthetic_flow_dataset",
    "reconstruction_nmae_by_length",
    "AdversarialProfile",
    "ProfileDatabase",
    "ProfileEmbeddingResult",
    "MaskSweepPoint",
    "reward_mask_sweep",
    "ArmsRaceRound",
    "ArmsRaceResult",
    "run_arms_race",
]
