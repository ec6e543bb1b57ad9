"""Benchmark-owned span recorder and class-level method wrappers.

The traced run attributes wall time to layers *from outside the program*:
``SpanRecorder.install`` replaces public methods of the layers with thin
wrappers that record ``{name, start, end, parent, group}`` spans in memory,
and restores the original attributes on exit.  Nothing under ``src/`` knows
about it and ``repro.obs`` stays disabled.

A span family's **busy** time is the sum of its spans' durations; its
**self** time is busy minus the part covered by child spans, so the self
times of every family under a root span add up to that root's duration.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import weakref
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Wrap", "FamilyTotals", "SpanRecorder"]

@dataclass(frozen=True)
class Wrap:
    """One public callable to wrap: ``owner.attr`` recorded as ``family``.

    ``work(args, kwargs, result)`` optionally returns the amount of work the
    call did (flows scored, bytes broadcast, decisions per flush), so counts
    are taken at the same boundary as the time.
    """

    owner: object  # a class or a module
    attr: str
    family: str
    work: Optional[Callable[[tuple, dict, object], float]] = None


@dataclass(frozen=True)
class FamilyTotals:
    calls: int
    busy_ms: float
    self_ms: float
    work: float


def _disabler(recorder_ref) -> Callable[[], None]:
    def disable() -> None:
        recorder = recorder_ref()
        if recorder is not None:
            recorder.enabled = False

    return disable


class SpanRecorder:
    """In-memory span store; one per run, single-threaded by construction."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.enabled = False
        self.families: List[str] = []
        self._family_ids: Dict[str, int] = {}
        self.groups: List[str] = []
        self._group = -1
        self._family = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._group_of = array("i")
        self._work = array("d")
        self._stack: List[int] = []
        # Rollout workers fork with the wrappers installed; they must not
        # pay for (or grow) a recorder nobody will read.
        os.register_at_fork(after_in_child=_disabler(weakref.ref(self)))

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._start)

    def family_id(self, family: str) -> int:
        if family not in self._family_ids:
            self._family_ids[family] = len(self.families)
            self.families.append(family)
        return self._family_ids[family]

    def begin_group(self, label: str) -> None:
        """Spans opened from now on belong to ``label`` (a set-up or a pass)."""
        self.groups.append(label)
        self._group = len(self.groups) - 1

    def _open(self, family_id: int) -> int:
        index = len(self._start)
        self._family.append(family_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._group_of.append(self._group)
        self._work.append(0.0)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(self._clock())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, family: str) -> Iterator[None]:
        """Record the enclosed block as one span (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        index = self._open(self.family_id(family))
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Record nothing in the enclosed block (untimed work inside a pass)."""
        was_enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was_enabled

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _traced(self, function: Callable, wrap: Wrap) -> Callable:
        family_id = self.family_id(wrap.family)
        work = wrap.work
        recorder = self

        if inspect.isgeneratorfunction(function):
            # A generator does its work on resume, interleaved with its
            # consumer: charge each resume as its own span so the consumer's
            # time between items is not billed to the generator.
            def traced_generator(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    if not recorder.enabled:
                        yield from iterator
                        return
                    index = recorder._open(family_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        recorder._close(index)
                    yield item

            traced = traced_generator
        elif work is None:

            def traced(*args, **kwargs):
                if not recorder.enabled:
                    return function(*args, **kwargs)
                index = recorder._open(family_id)
                try:
                    return function(*args, **kwargs)
                finally:
                    recorder._close(index)

        else:

            def traced(*args, **kwargs):
                if not recorder.enabled:
                    return function(*args, **kwargs)
                index = recorder._open(family_id)
                try:
                    result = function(*args, **kwargs)
                finally:
                    recorder._close(index)
                recorder._work[index] = work(args, kwargs, result)
                return result

        traced.__name__ = getattr(function, "__name__", wrap.attr)
        traced.__wrapped__ = function
        traced.span_family = wrap.family
        return traced

    @contextmanager
    def install(self, wraps: Iterable[Wrap]) -> Iterator["SpanRecorder"]:
        """Install the wrappers, enable recording, and undo both on exit."""
        undo: List[Tuple[object, str, bool, object]] = []
        try:
            for wrap in wraps:
                owned = wrap.attr in vars(wrap.owner)
                original = vars(wrap.owner)[wrap.attr] if owned else getattr(wrap.owner, wrap.attr)
                if isinstance(original, (classmethod, staticmethod)):
                    replacement = type(original)(self._traced(original.__func__, wrap))
                else:
                    replacement = self._traced(original, wrap)
                undo.append((wrap.owner, wrap.attr, owned, original))
                setattr(wrap.owner, wrap.attr, replacement)
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            # An inherited attribute is restored by deleting the override,
            # so the class ends exactly as it started.
            for owner, attr, owned, original in reversed(undo):
                if owned:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _columns(self):
        # Copies: a live buffer view would forbid appending further spans.
        return (
            np.array(self._family, dtype=np.int64),
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
            np.array(self._parent, dtype=np.int64),
            np.array(self._group_of, dtype=np.int64),
            np.array(self._work, dtype=np.float64),
        )

    def totals(self) -> Dict[str, Dict[str, FamilyTotals]]:
        """``{group label: {family: totals}}`` over every closed span."""
        if self._stack:
            raise RuntimeError("totals() called with spans still open")
        if not len(self):
            return {}
        family, start, end, parent, group, work = self._columns()
        duration = (end - start) * 1000.0
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_ms = duration - covered
        n_families = len(self.families)
        cell = group * n_families + family
        size = len(self.groups) * n_families
        calls = np.bincount(cell, minlength=size)
        busy = np.bincount(cell, weights=duration, minlength=size)
        own = np.bincount(cell, weights=self_ms, minlength=size)
        done = np.bincount(cell, weights=work, minlength=size)
        result: Dict[str, Dict[str, FamilyTotals]] = {}
        for group_id, label in enumerate(self.groups):
            row = {}
            for family_id, name in enumerate(self.families):
                index = group_id * n_families + family_id
                if calls[index]:
                    row[name] = FamilyTotals(
                        int(calls[index]), float(busy[index]), float(own[index]), float(done[index])
                    )
            result[label] = row
        return result

    def root_ms(self) -> Dict[str, float]:
        """Total duration of parentless spans per group (the attributed wall)."""
        if not len(self):
            return {}
        _, start, end, parent, group, _ = self._columns()
        roots = parent < 0
        sums = np.bincount(
            group[roots], weights=(end - start)[roots] * 1000.0, minlength=len(self.groups)
        )
        return {label: float(sums[i]) for i, label in enumerate(self.groups)}

    def write_jsonl(self, path, groups: Optional[Sequence[str]] = None) -> int:
        """Write spans (of the named groups, default all) one JSON per line."""
        keep = None if groups is None else {self.groups.index(g) for g in groups}
        written = 0
        with open(path, "w") as handle:
            for index, (family, start, end, parent, group, work) in enumerate(
                zip(self._family, self._start, self._end, self._parent, self._group_of, self._work)
            ):
                if keep is not None and group not in keep:
                    continue
                record = {
                    "id": index,
                    "name": self.families[family],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "pass": self.groups[group],
                    "work": work,
                }
                handle.write(json.dumps(record) + "\n")
                written += 1
        return written
