"""Censoring classifiers and the gateway that deploys them."""

from .base import DECISION_THRESHOLD, CensorClassifier
from .cumul_svm import CumulSVMClassifier
from .deep_fingerprinting import DeepFingerprintingClassifier
from .gateway import CensorGateway, GatewayDecision, SocketPair
from .lstm_classifier import LSTMClassifier
from .sdae import SDAEClassifier
from .tree_models import DecisionTreeCensor, RandomForestCensor

__all__ = [
    "CensorClassifier",
    "DECISION_THRESHOLD",
    "DeepFingerprintingClassifier",
    "SDAEClassifier",
    "LSTMClassifier",
    "CumulSVMClassifier",
    "DecisionTreeCensor",
    "RandomForestCensor",
    "CensorGateway",
    "SocketPair",
    "GatewayDecision",
]
