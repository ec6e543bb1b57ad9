"""Traffic substrate: flow model, synthetic generators, datasets and network conditions."""

from .dataset import DatasetSplits, FlowDataset, build_tor_dataset, build_v2ray_dataset
from .flow import Flow, FlowLabel
from .generators import (
    TCP_MSS,
    TLS_MAX_RECORD,
    TOR_CELL_SIZE,
    FlowGenerator,
    HTTPSFlowGenerator,
    HTTPSRecordFlowGenerator,
    TorFlowGenerator,
    V2RayFlowGenerator,
)
from .io import load_flows_jsonl, save_dataset, save_flows_jsonl
from .network import NetworkCondition

__all__ = [
    "Flow",
    "FlowLabel",
    "FlowGenerator",
    "TorFlowGenerator",
    "HTTPSFlowGenerator",
    "V2RayFlowGenerator",
    "HTTPSRecordFlowGenerator",
    "TCP_MSS",
    "TLS_MAX_RECORD",
    "TOR_CELL_SIZE",
    "FlowDataset",
    "DatasetSplits",
    "build_tor_dataset",
    "build_v2ray_dataset",
    "NetworkCondition",
    "save_flows_jsonl",
    "load_flows_jsonl",
    "save_dataset",
]
