"""Evaluation: attack metrics, transferability, convergence, ECDFs and reporting."""

from .action_analysis import ActionHistogram, action_histogram, summarise_action_usage
from .convergence import ConvergenceCurve, curve_from_log, queries_to_reach
from .ecdf import ECDF, delay_distribution_summary, empirical_cdf, fraction_below
from .feature_importance import ImportanceBreakdown, cumulative_category_counts
from .metrics import classifier_detection_report
from .reporting import format_percent, format_series, format_table
from .results_io import load_results_json, save_results_json
from .transferability import TransferabilityMatrix, transferability_matrix

__all__ = [
    "classifier_detection_report",
    "TransferabilityMatrix",
    "transferability_matrix",
    "ActionHistogram",
    "action_histogram",
    "summarise_action_usage",
    "ConvergenceCurve",
    "curve_from_log",
    "queries_to_reach",
    "ECDF",
    "empirical_cdf",
    "fraction_below",
    "delay_distribution_summary",
    "ImportanceBreakdown",
    "cumulative_category_counts",
    "format_table",
    "format_percent",
    "format_series",
    "save_results_json",
    "load_results_json",
]
