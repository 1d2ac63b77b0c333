"""Stable content fingerprints for cache keys.

The pipeline cache is content-addressed: a scored table is stored under
a key derived from *what was scored* (the exact edge table) and *how*
(the backbone method's code identity plus every score-relevant
parameter). Two fingerprints therefore collide exactly when rescoring
would reproduce the same ``ScoredEdges`` bit for bit, which is what
makes serving cached scores safe.

Fingerprints are hex SHA-256 digests over a canonical byte encoding:

* :func:`fingerprint_table` hashes the directedness flag, node count,
  labels and the raw ``src``/``dst``/``weight`` arrays (row order
  included — ``EdgeTable`` construction already canonicalizes order, and
  derived tables such as ``subset`` outputs are distinct content), in
  the layout :func:`fingerprint_columns` writes for every reader;
* :func:`fingerprint_method` hashes the method's class identity and its
  public configuration (``vars``), skipping knobs that change wall-clock
  but never scores (``workers``);
* :func:`fingerprint_score_request` combines both into the store key.

``_SCHEMA_VERSION`` is baked into every digest; bump it whenever the
encoding (or the serialized ``ScoredEdges`` layout in
:mod:`repro.pipeline.store`) changes, and stale cache entries simply
stop being found instead of being misread.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from ..backbones.base import BackboneMethod
from ..graph.edge_table import EdgeTable

PathLike = Union[str, Path]

#: Version tag mixed into every fingerprint (see module docstring).
_SCHEMA_VERSION = 1

#: Method attributes that never influence scores, only execution speed.
_EXECUTION_ONLY_KEYS = frozenset({"workers"})


def canonical_json(payload: object) -> str:
    """Serialize ``payload`` deterministically (sorted keys, exact floats).

    ``json.dumps`` uses ``repr`` for floats, which round-trips IEEE-754
    doubles exactly, so equal configurations always produce equal text.
    Numpy scalars are converted to their Python equivalents first.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_coerce_scalar)


def _coerce_scalar(value: object) -> object:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not fingerprintable")


def fingerprint_columns(directed: bool, n_nodes: int,
                        labels: Optional[Sequence[str]],
                        pieces: Iterable[object]) -> str:
    """Hex digest of a table from its header fields and column bytes.

    ``pieces`` hold the bytes of the canonical int64 ``src``, int64
    ``dst`` and float64 ``weight`` columns, in that order and split
    anywhere: :func:`fingerprint_table` passes its three arrays, pass 1
    of :mod:`repro.stream` its column files piece by piece, and the
    two readers of one table get one digest.
    """
    digest = hashlib.sha256()
    digest.update(f"repro.table/v{_SCHEMA_VERSION}".encode())
    digest.update(b"D" if directed else b"U")
    digest.update(np.int64(n_nodes).tobytes())
    if labels is not None:
        digest.update(canonical_json(list(labels)).encode())
    else:
        digest.update(b"<unlabeled>")
    for piece in pieces:
        digest.update(piece)
    return digest.hexdigest()


def fingerprint_table(table: EdgeTable) -> str:
    """Hex digest of an edge table's full content."""
    return fingerprint_columns(
        table.directed, table.n_nodes, table.labels,
        (np.ascontiguousarray(table.src, dtype=np.int64),
         np.ascontiguousarray(table.dst, dtype=np.int64),
         np.ascontiguousarray(table.weight, dtype=np.float64)))


def method_config(method: BackboneMethod) -> Dict[str, object]:
    """Score-relevant configuration of a method instance.

    Every public instance attribute participates except the
    execution-only knobs in ``_EXECUTION_ONLY_KEYS`` and the method's
    own ``extraction_only_params`` (e.g. NC's ``delta`` or k-core's
    ``k``, which shape the filter phase but never the scores — so
    different strictness settings share one cached scored table).
    Methods without instance state (NT, MST, DF) map to an empty
    configuration.
    """
    state = getattr(method, "__dict__", None) or {}
    skipped = _EXECUTION_ONLY_KEYS.union(
        getattr(method, "extraction_only_params", ()))
    return {key: value for key, value in state.items()
            if not key.startswith("_") and key not in skipped}


def fingerprint_method(method: BackboneMethod) -> str:
    """Hex digest of a method's class identity and configuration."""
    cls = type(method)
    identity = {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "code": getattr(method, "code", "??"),
        "config": method_config(method),
        "schema": _SCHEMA_VERSION,
    }
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


def fingerprint_score_request(table: EdgeTable, method: BackboneMethod,
                              table_fingerprint: Optional[str] = None
                              ) -> str:
    """Store key for "``method.score(table)``": table x method digest.

    Callers looping many methods over one table pass the precomputed
    ``table_fingerprint`` so the O(edges) table hash runs once per
    sweep instead of once per method.
    """
    combined = hashlib.sha256()
    combined.update(f"repro.score/v{_SCHEMA_VERSION}".encode())
    if table_fingerprint is None:
        table_fingerprint = fingerprint_table(table)
    combined.update(table_fingerprint.encode())
    combined.update(fingerprint_method(method).encode())
    return combined.hexdigest()


#: Chunk size for streaming file digests.
_FILE_CHUNK_BYTES = 1 << 20


def fingerprint_file(path: PathLike,
                     chunk_bytes: int = _FILE_CHUNK_BYTES) -> str:
    """Hex digest of a file's raw bytes, streamed chunk by chunk.

    This is the cheap half of file-input caching: hashing a
    million-edge CSV costs one sequential read (no parsing, no
    decompression — the compressed bytes of a ``.gz`` identify it).
    Combined with a stored binding to the parsed table's
    :func:`fingerprint_table` and summary (see
    :meth:`repro.pipeline.store.ScoreStore.source_binding`), a request
    over an already-seen file derives its cache keys and kept-share
    base without the file being parsed at all.
    """
    digest = hashlib.sha256()
    digest.update(f"repro.file/v{_SCHEMA_VERSION}".encode())
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def fingerprint_source_request(file_fingerprint: str,
                               directed: bool = True,
                               delimiter: str = ",",
                               labels: Optional[Iterable[str]] = None,
                               format: Optional[str] = None) -> str:
    """Key for "the table parsed from this file with these options".

    Two source requests collide exactly when parsing would produce
    the same ``EdgeTable``, so a stored ``source -> table
    fingerprint`` binding under this key is safe to trust.
    """
    options = {
        "directed": bool(directed),
        "delimiter": delimiter,
        "labels": None if labels is None else list(labels),
        "format": format,
        "schema": _SCHEMA_VERSION,
    }
    digest = hashlib.sha256()
    digest.update(f"repro.source/v{_SCHEMA_VERSION}".encode())
    digest.update(file_fingerprint.encode())
    digest.update(canonical_json(options).encode())
    return digest.hexdigest()


def fingerprint_arrays(arrays: Iterable[Optional[np.ndarray]]) -> str:
    """Payload digest over a sequence of (possibly absent) arrays.

    Used by the store to detect corrupted or tampered on-disk entries:
    the digest written at ``put`` time must match the digest of the
    arrays read back at ``get`` time.
    """
    digest = hashlib.sha256()
    digest.update(f"repro.payload/v{_SCHEMA_VERSION}".encode())
    for array in arrays:
        if array is None:
            digest.update(b"<absent>")
            continue
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(np.int64(array.size).tobytes())
        digest.update(array.tobytes())
    return digest.hexdigest()
