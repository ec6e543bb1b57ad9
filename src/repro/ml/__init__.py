"""Classical ML substrate: trees, forests, the RBF-kernel SVM, a scaler and metrics."""

from .decision_tree import DecisionTreeClassifier
from .metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
)
from .random_forest import RandomForestClassifier
from .scaler import StandardScaler
from .svm import KernelSVM, rbf_kernel

__all__ = [
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "KernelSVM",
    "rbf_kernel",
    "StandardScaler",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_matrix",
]
