"""Model persistence: save / load module state dicts as ``.npz`` archives.

Used to snapshot trained censoring classifiers, the pre-trained StateEncoder
and Amoeba policies so experiments can reuse them without retraining.

Checkpoint compatibility
------------------------
Recurrent cells historically stored one weight matrix and bias per gate
(``…w_xr`` / ``…w_xz`` / ``…w_xn`` for a GRU cell); they now store packed
``…w_x`` / ``…w_h`` / ``…b`` matrices with the gate blocks concatenated
along the output axis (GRU gate order ``r, z, n``; LSTM ``i, f, g, o``).
:func:`pack_legacy_recurrent` folds a legacy per-gate state dict into the
packed layout and is applied automatically by :func:`load_state_dict`, so
old ``.npz`` snapshots keep loading unchanged.  Packing only triggers when a
parameter prefix carries the *complete* gate set of one cell type, which
keeps unrelated parameters that merely share a suffix untouched.
"""

from __future__ import annotations

import io
import json
import struct
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

__all__ = [
    "CheckpointError",
    "save_state_dict",
    "load_state_dict",
    "state_dict_to_bytes",
    "state_dict_from_bytes",
    "metadata_from_bytes",
    "load_metadata",
    "load_prefixed_state",
    "split_prefixed_state",
    "pack_legacy_recurrent",
]

# (packed leaf name, legacy leaf names in packed column order, concat axis)
_LEGACY_GATE_GROUPS = (
    # GRU: gates r, z, n
    ("w_x", ("w_xr", "w_xz", "w_xn"), 1),
    ("w_h", ("w_hr", "w_hz", "w_hn"), 1),
    ("b", ("b_r", "b_z", "b_n"), 0),
    # LSTM: gates i, f, g, o
    ("w_x", ("w_xi", "w_xf", "w_xg", "w_xo"), 1),
    ("w_h", ("w_hi", "w_hf", "w_hg", "w_ho"), 1),
    ("b", ("b_i", "b_f", "b_g", "b_o"), 0),
)


def pack_legacy_recurrent(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Fold legacy per-gate recurrent parameters into the packed layout.

    For every parameter prefix (e.g. ``gru.cell0.``) that carries a complete
    per-gate group — all three GRU gates or all four LSTM gates of one kind —
    the per-gate entries are concatenated into the corresponding packed
    parameter (``w_x`` / ``w_h`` / ``b``).  State dicts already in the packed
    layout pass through unchanged.
    """
    packed = dict(state)
    for packed_leaf, legacy_leaves, axis in _LEGACY_GATE_GROUPS:
        prefixes = {
            key[: -len(legacy_leaves[0])]
            for key in state
            if key.endswith(legacy_leaves[0])
        }
        for prefix in prefixes:
            legacy_keys = [f"{prefix}{leaf}" for leaf in legacy_leaves]
            if not all(key in packed for key in legacy_keys):
                continue
            packed[f"{prefix}{packed_leaf}"] = np.concatenate(
                [np.asarray(packed[key]) for key in legacy_keys], axis=axis
            )
            for key in legacy_keys:
                del packed[key]
    return packed

PathLike = Union[str, Path]

_META_KEY = "__meta__"


class CheckpointError(ValueError):
    """A checkpoint that cannot be read back (empty, truncated, corrupt, not
    an archive) or served; the message names the file or the parameter."""


_END_OF_CENTRAL_DIRECTORY = b"PK\x05\x06"


def _check_members(archive: zipfile.ZipFile, data: bytes) -> None:
    """Refuse an archive whose members are not all there and intact: a
    damaged length field can make ``zipfile`` list fewer members than the
    end record counts, and a ``.npy`` header must pass its CRC before numpy
    parses it."""
    members = archive.infolist()
    (total,) = struct.unpack_from("<H", data, data.rfind(_END_OF_CENTRAL_DIRECTORY) + 10)
    if len(members) != total:
        raise ValueError(f"its central directory lists {len(members)} of {total} members")
    for member in members:
        archive.read(member)  # raises BadZipFile on a CRC mismatch


@contextmanager
def _archive(data: bytes, source: str) -> Iterator[np.lib.npyio.NpzFile]:
    """The open ``.npz`` archive of ``data``, every member present and intact;
    what reading a damaged one raises is a :class:`CheckpointError`."""
    try:
        archive = np.load(io.BytesIO(data))
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with archive:
            _check_members(archive.zip, data)
            yield archive
    except (
        zipfile.BadZipFile, NotImplementedError, EOFError, OSError, ValueError, KeyError,
        struct.error, zlib.error, tokenize.TokenError,
        RuntimeError,  # zipfile on a member whose encryption flag is set
    ) as error:  # fmt: skip
        raise CheckpointError(
            f"{source} is not a readable checkpoint ({type(error).__name__}: {error})"
        ) from error


def _state(data: bytes, source: str) -> Dict[str, np.ndarray]:
    with _archive(data, source) as archive:
        state = {key: archive[key] for key in archive.files if key != _META_KEY}
    return pack_legacy_recurrent(state)


def _metadata(data: bytes, source: str) -> dict:
    with _archive(data, source) as archive:
        if _META_KEY not in archive.files:
            return {}  # an archive older than the metadata
        metadata = json.loads(archive[_META_KEY].tobytes())
        if not isinstance(metadata, dict):
            raise ValueError("its metadata is not a JSON object")
    return metadata


def _read_file(path: PathLike) -> Tuple[bytes, str]:
    """A file's bytes and name, with numpy's implicit ``.npz`` suffix
    applied when the bare path is absent."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    return path.read_bytes(), str(path)


def save_state_dict(state: Dict[str, np.ndarray], path: PathLike, metadata: Optional[dict] = None) -> Path:
    """Save a state dict (mapping of parameter name to array) to ``path``.

    The on-disk archive is byte-for-byte the :func:`state_dict_to_bytes`
    payload (mirroring numpy's ``.npz`` suffix handling), so disk and
    broadcast checkpoints stay interchangeable by construction.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(state_dict_to_bytes(state, metadata))
    return path


def load_state_dict(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_state_dict`.

    Legacy per-gate recurrent parameters are transparently folded into the
    packed layout (see :func:`pack_legacy_recurrent`).  Disk archives and
    broadcast payloads share one parser; a file that cannot be read raises
    :class:`CheckpointError` naming it.
    """
    return _state(*_read_file(path))


def load_metadata(path: PathLike) -> dict:
    """Return the JSON metadata stored alongside a state dict, if any."""
    return _metadata(*_read_file(path))


def state_dict_to_bytes(state: Dict[str, np.ndarray], metadata: Optional[dict] = None) -> bytes:
    """Serialize a state dict to an in-memory ``.npz`` byte string.

    The payload is identical to what :func:`save_state_dict` writes to disk,
    so the two forms are interchangeable.  Used for broadcasting checkpoints
    to rollout workers without touching the filesystem.
    """
    buffer = io.BytesIO()
    payload = {key: np.asarray(value) for key, value in state.items()}
    payload[_META_KEY] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    )
    np.savez(buffer, **payload)
    return buffer.getvalue()


def state_dict_from_bytes(data: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`state_dict_to_bytes`.

    Like :func:`load_state_dict`, legacy per-gate recurrent parameters are
    transparently folded into the packed layout.  A payload that cannot be
    read raises :class:`CheckpointError`.
    """
    return _state(data, "checkpoint payload")


def metadata_from_bytes(data: bytes) -> dict:
    """Return the JSON metadata stored in a :func:`state_dict_to_bytes` payload."""
    return _metadata(data, "checkpoint payload")


def load_prefixed_state(state: Dict[str, np.ndarray], modules) -> None:
    """Load a combined, name-prefixed state dict into its modules.

    ``modules`` is a sequence of ``(prefix, module)`` pairs; each module
    receives the entries whose keys start with ``"<prefix>."`` (prefix
    stripped).  This is the single parser of the combined checkpoint layout
    (``actor.* / critic.* / encoder.*``) shared by policy loading from disk
    and worker-side checkpoint broadcasts.
    """
    for prefix, module in modules:
        module.load_state_dict(
            {
                name[len(prefix) + 1 :]: value
                for name, value in state.items()
                if name.startswith(f"{prefix}.")
            }
        )


def split_prefixed_state(state: Dict[str, np.ndarray]) -> Dict[str, Dict[str, np.ndarray]]:
    """Group a combined state dict by its first name component.

    The read-side counterpart of :func:`load_prefixed_state` for callers
    that reconstruct modules from checkpoint *shapes* instead of loading
    into pre-built ones (e.g. the serving tier rebuilding an actor/encoder
    pair from an ``Amoeba.save_policy`` archive): ``{"actor.body.w": a,
    "encoder.gru.b": b}`` becomes ``{"actor": {"body.w": a}, "encoder":
    {"gru.b": b}}``.  Keys without a dot are rejected — the combined layout
    always prefixes.
    """
    groups: Dict[str, Dict[str, np.ndarray]] = {}
    for key, value in state.items():
        prefix, dot, leaf = key.partition(".")
        if not dot or not leaf:
            raise ValueError(f"state key {key!r} carries no '<prefix>.' component")
        groups.setdefault(prefix, {})[leaf] = value
    return groups
