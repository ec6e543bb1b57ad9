"""Reading result files: ``spread``, ``compare`` and ``check``.

A result file is what one ``run.py --workload ...`` invocation writes under
``out/``.  Nothing here imports the program, so these run anywhere.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bootstrap import REPO_ROOT

# A change wins only if it is ahead in at least this share of the pairs ...
WIN_SHARE = 0.9
# ... and by more than this share of the metric's bound: the harness does not
# claim to resolve less.  Peak RSS repeats to 0.1 %, so a 0.2 % shift cleared
# the quartile rule; and two sets of the same code run one after the other
# (not as alternating pairs) sat 4 % apart on a time metric in 10 pairs of
# 10, the host having drifted between them.
RESOLUTION_SHARE_OF_BOUND = 0.2
# ... and a benchmark is steady when a metric's spread is under this share
# of its bound.
STEADY_SHARE = 1.0 / 3.0


def load_manifest(path: Path = REPO_ROOT / "BENCHMARK.json") -> dict:
    with open(path) as handle:
        return json.load(handle)


def load_results(paths: Iterable) -> List[dict]:
    results = []
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        result["path"] = str(path)
        results.append(result)
    return results


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def _by_workload(results: Sequence[dict]) -> Dict[str, List[dict]]:
    """Results per workload, in run order (each records when it started)."""
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for result in sorted(results, key=lambda r: r["started_at"]):
        grouped[result["workload"]].append(result)
    return grouped


def _values(results: Sequence[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def spread_rows(results: Sequence[dict], manifest: dict) -> List[dict]:
    """One row per workload x end-to-end metric over repeated (untraced) runs."""
    rows = []
    gated = {w["name"] for w in manifest["workloads"]}
    for workload, group in _by_workload([r for r in results if not r["trace"]]).items():
        for metric in manifest["end_to_end"]:
            values = _values(group, metric["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = spread_share(values)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "n": len(values),
                    "q1": q1,
                    "median": median,
                    "q3": q3,
                    "spread": spread,
                    "bound": metric["bound"],
                    "steady": workload not in gated
                    or metric["name"] == "setup_s"
                    or spread < metric["bound"] * STEADY_SHARE,
                }
            )
    return rows


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent if parent else float("inf")


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> dict:
    """Compare paired runs of one workload x metric (``bound=None``: ungated).

    * ``regressed`` — the change's median is worse than the parent's by more
      than the bound;
    * ``improved`` — the change is ahead in at least 9/10 of the pairs (ties
      count for neither) *and* the medians differ by more than the distance
      between the parent's own quartiles (and than a tenth of the bound);
    * ``unresolved`` — neither, but the parent's own spread is wider than the
      bound, so "no regression" cannot be told from noise;
    * ``unchanged`` — otherwise; an ungated metric that did not improve is
      ``ungated`` whatever it did.
    """
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if worse_by(p, c, better) < 0)
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_q1, change_median, change_q3 = quartiles(change)
    worse = worse_by(parent_median, change_median, better)
    iqr = parent_q3 - parent_q1
    if bound is not None and worse > bound:
        outcome = "regressed"
    elif (
        pairs
        and wins >= WIN_SHARE * len(pairs)
        and worse < 0
        and abs(change_median - parent_median) > iqr
        and -worse > RESOLUTION_SHARE_OF_BOUND * (bound or 0.0)
    ):
        outcome = "improved"
    elif bound is None:
        outcome = "ungated"
    elif parent_median and iqr / parent_median > bound:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "verdict": outcome,
        "wins": wins,
        "pairs": len(pairs),
        "parent": (parent_q1, parent_median, parent_q3),
        "change": (change_q1, change_median, change_q3),
        "worse_by": worse,
    }


def compare_rows(parent: Sequence[dict], change: Sequence[dict], manifest: dict) -> List[dict]:
    """Pair the two lists per workload in run order; one row per metric."""
    rows = []
    parent_by, change_by = _by_workload(parent), _by_workload(change)
    for workload in parent_by:
        pairs = [
            (p, c)
            for p, c in zip(parent_by.get(workload, []), change_by.get(workload, []))
            if not p["trace"] and not c["trace"]
        ]
        if not pairs:
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
        first_parent, first_change = pairs[0]
        for name, entry in first_parent.get("informational", {}).items():
            if name not in first_change.get("informational", {}):
                continue
            row = verdict(
                [p["informational"][name]["value"] for p, _ in pairs],
                [c["informational"][name]["value"] for _, c in pairs],
                entry["better"],
                None,
            )
            row.update(workload=workload, metric=name, unit=entry["unit"], bound="-")
            rows.append(row)
        same = [p["exact"] == c["exact"] for p, c in pairs if p["inputs"] == c["inputs"]]
        rows.append(
            {
                "workload": workload,
                "metric": "digest",
                "verdict": "no same-input pair" if not same else "equal" if all(same) else "DIFFERENT",
                "pairs": len(same),
            }
        )
    return rows


def check_set(results: Sequence[dict]) -> List[str]:
    """Problems across a set of result files (empty list: all good).

    Every run must be correct; runs of one workload on the same inputs must
    agree exactly on their counters and digests; ``train-sharded`` must
    reproduce ``train-neural`` and ``serve-paced`` must emit the same shaped
    flows as ``serve-saturated`` (batch-composition invariance).
    """
    problems = []
    exact: Dict[tuple, dict] = {}
    for result in results:
        if not result["correct"]:
            problems.append(f"{result['path']}: {result['failed']} failed: {result['failures'][:3]}")
        key = (result["workload"], result["inputs"])
        first = exact.setdefault(key, result)
        if first["exact"] != result["exact"]:
            problems.append(
                f"{result['path']} and {first['path']} disagree on exact outputs: "
                f"{result['exact']} vs {first['exact']}"
            )
    for twin, reference in (("train-sharded", "train-neural"), ("serve-paced", "serve-saturated")):
        for (workload, inputs), result in exact.items():
            if workload != twin:
                continue
            other = exact.get((reference, inputs))
            if other is not None and other["exact"]["digest"] != result["exact"]["digest"]:
                problems.append(
                    f"digest({twin}) != digest({reference}) for seed {result['seed']}: "
                    f"{result['path']} vs {other['path']}"
                )
    return problems


def baseline(first: Sequence[dict], second: Sequence[dict], traced: Sequence[dict], manifest: dict) -> dict:
    """The record checked in as ``baseline.json``: two full sets of the same
    code (for the end-to-end medians and their spread) and a traced set (for
    the per-layer medians and each layer's share of the pass's wall)."""
    import layers

    timed = [family + "_ms" for family in layers.PASS_FAMILIES] + list(layers.ROOT_FAMILIES.values())
    per_layer = {}
    for workload, results in _by_workload(traced).items():
        medians = {
            name: statistics.median(r["layers"][name]["value"] for r in results)
            for name in results[0]["layers"]
        }
        wall = sum(medians[name] for name in timed)
        per_layer[workload] = {
            "runs": len(results),
            "attributed_ms_per_pass": wall,
            "metrics": medians,
            "share_of_pass": {
                name: medians[name] / wall for name in timed if medians[name] / wall >= 0.005
            },
        }

    def informational(results):
        rows = []
        for workload, group in _by_workload([r for r in results if not r["trace"]]).items():
            for name, entry in group[0]["informational"].items():
                values = [r["informational"][name]["value"] for r in group]
                q1, median, q3 = quartiles(values)
                rows.append(
                    {"workload": workload, "metric": name, "unit": entry["unit"], "n": len(values),
                     "q1": q1, "median": median, "q3": q3, "spread": spread_share(values)}
                )  # fmt: skip
        return rows

    reference = first[0]
    return {
        "claim": None,
        "host": reference["host"],
        "backend": reference["program"]["backend"],
        "run_seconds": reference["seconds"],
        "seeds": sorted({r["seed"] for r in first}),
        "end_to_end": {"first_set": spread_rows(first, manifest), "second_set": spread_rows(second, manifest)},
        "informational": informational(first),
        "set_to_set": compare_rows(first, second, manifest),
        "per_layer": per_layer,
    }


def format_rows(rows: Sequence[dict], columns: Sequence[str]) -> str:
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if isinstance(value, (tuple, list)):
            return "/".join(f"{v:.4g}" for v in value)
        return str(value)

    table = [list(columns)] + [[cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(line, widths)) for line in table)
