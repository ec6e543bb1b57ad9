"""Random number management.

Every stochastic component in the library accepts either a seed or a
``numpy.random.Generator`` so experiments are reproducible end to end.

Seed-tree layout
----------------
Child generators are derived through ``numpy.random.SeedSequence`` rather
than by drawing raw integer seeds, so a seed tree can be reproduced on the
other side of a process boundary from a compact, picklable description
(the ``(entropy, spawn_key)`` pair of each node).  The layout used by the
training stack:

* ``Amoeba(rng=seed)`` owns the root generator.  Construction consumes one
  :func:`spawn_rngs` call for ``(actor, critic, ppo, eval)`` in that order.
  The actor and critic streams only initialise weights (the actor owns no
  noise stream); the ppo stream shuffles minibatches.
* The eval stream (stream 3) serves evaluation only, so evaluating never
  moves training.  Its evaluation environments draw their reward-masking
  coin flips from it, and each sampled ``attack_many`` call consumes one
  :func:`spawn_rngs` call on it with one child per flow: flow ``i``'s
  exploration noise comes from child ``i``, so a sampled attack depends on
  the stream's position and on ``i``, never on the other flows of the call.
  Deterministic evaluation spawns nothing.
* Each ``Amoeba.train`` call consumes one :func:`collection_seed_tree`
  call: the root generator contributes a single 63-bit entropy draw, from
  which ``n_envs`` ``SeedSequence`` children are spawned — child ``i``
  governs environment slot ``i``.  Each child spawns two grandchildren:
  ``(env stream, exploration-noise stream)``.  The env stream drives flow
  order and reward-masking draws inside :class:`~repro.core.env.AdversarialFlowEnv`;
  the noise stream drives the Gaussian exploration noise of the policy for
  that slot.
* The sharded rollout engine partitions the *same* per-env pairs into
  contiguous shards of ``n_envs / workers`` slots, so worker ``w`` hosts
  the identical streams environment slots ``w·shard … (w+1)·shard − 1``
  would consume in a single process.  This is what makes sharded
  collection bit-equivalent to single-process vectorized collection.

``SeedSequence`` objects pickle cheaply (entropy + spawn key), which is how
seed trees travel to worker processes.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "spawn_seed_sequences",
    "collection_seed_tree",
]

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, generator or ``None``."""
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_seed_sequences(rng: RngLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent ``SeedSequence`` children from ``rng``.

    The parent generator contributes one 63-bit entropy draw; the children
    are ``SeedSequence(entropy).spawn(count)``, so they can be rebuilt in
    another process from their ``(entropy, spawn_key)`` state alone.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(rng)
    entropy = int(parent.integers(0, 2**63 - 1))
    return np.random.SeedSequence(entropy).spawn(count)


def spawn_rngs(rng: RngLike, count: int) -> list:
    """Derive ``count`` independent child generators from ``rng``."""
    return [np.random.default_rng(seq) for seq in spawn_seed_sequences(rng, count)]


def collection_seed_tree(
    rng: RngLike, n_envs: int
) -> List[Tuple[np.random.SeedSequence, np.random.SeedSequence]]:
    """Per-environment ``(env stream, noise stream)`` seed pairs.

    One pair per environment slot, derived as described in the module-level
    seed-tree layout.  Both rollout collection paths — the single-process
    inline shard and sharded multi-process — build their environment and
    exploration-noise generators from this tree (as does the per-environment
    test oracle in ``tests/oracles/sequential_collection.py``), which is what
    keeps their trajectories bit-identical.
    """
    return [tuple(child.spawn(2)) for child in spawn_seed_sequences(rng, n_envs)]
