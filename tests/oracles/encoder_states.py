"""Equivalence oracle: per-environment ``EncoderState`` bookkeeping, verbatim.

Before encoder state became rows of resident slabs everywhere (the training
tracker's slabs, then the serving tier's session table), every environment
and every session held its own :class:`~repro.core.state_encoder.EncoderState`
per stream, and a batched step stacked them into a slab and split the result
back into owning copies.  These are those helpers as they left
``core/state_encoder.py`` -- ``stack_states``, ``split_states``, the
list-of-states branch of ``StateEncoder.step_pairs`` and
``StateEncoder.step_pair`` -- kept as the independent, one-environment-at-a-
time reference that ``tests/test_core_vec_env.py`` and the serving oracle in
:mod:`tests.oracles.serve_reference` compare the slab paths against.  Do not
optimise or "fix" them.  The only edit turns the two methods into functions
taking the encoder first.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.state_encoder import EncoderState, StateEncoder

__all__ = ["stack_states", "split_states", "step_state_list", "step_pair"]


def stack_states(states: Sequence[EncoderState]) -> np.ndarray:
    """Per-environment states as one ``(num_layers, n, hidden_size)`` slab."""
    hidden = [state.hidden for state in states]
    # np.stack(hidden, axis=1) in one C call: join along the hidden axis,
    # then name the per-environment blocks.
    return np.concatenate(hidden, axis=1).reshape(hidden[0].shape[0], len(hidden), -1)


def split_states(slab: np.ndarray) -> List[EncoderState]:
    """One :class:`EncoderState` per slab column, each *owning* its rows: a
    view would keep the whole slab alive and alias the other environments."""
    return [EncoderState(hidden=slab[:, row].copy()) for row in range(slab.shape[1])]


def step_state_list(
    encoder: StateEncoder, pairs: np.ndarray, states: Sequence[EncoderState]
) -> List[EncoderState]:
    """``step_pairs`` on a sequence of states: stacked once on the way in,
    split into states owning their rows on the way out."""
    return split_states(encoder.step_pairs(pairs, stack_states(states)))


def step_pair(encoder: StateEncoder, pair: np.ndarray, state: EncoderState) -> EncoderState:
    """Single-environment convenience wrapper around :func:`step_state_list`."""
    return step_state_list(encoder, np.asarray(pair, dtype=np.float64).reshape(1, 2), [state])[0]
