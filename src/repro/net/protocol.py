"""Wire format for the ``repro.net`` socket KV service.

One request/response exchange is a pair of *frames*. A frame is::

    magic   4 bytes   b"RKV1"
    hlen    uint32 BE length of the JSON header
    plen    uint64 BE length of the binary payload (0 when absent)
    header  hlen bytes, UTF-8 JSON object
    payload plen bytes, raw

The header carries everything JSON-serializable (op, key, metadata,
result); the payload carries npz bytes untouched. Whenever a payload
is present the header also carries its SHA-256 under
``payload_sha256`` and both sides verify it, so a flipped bit in
flight surfaces as a retryable :class:`FrameError` instead of a
corrupt cache entry at rest.

Size ceilings (:data:`MAX_HEADER_BYTES`, :data:`MAX_PAYLOAD_BYTES`)
bound what a single frame may ask either side to allocate — a
malformed or hostile peer cannot request a 2**64-byte read.

A KV record travels with its payload as the frame body, flagged by
``has_payload`` (``None``, a negative entry, is not ``b""``):
:func:`pack_record` and :func:`unpack_record`. A reply carries its
op's result, or ``found`` plus the record for :data:`RECORD_OPS`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Dict, Optional, Tuple

#: Frame magic; bump with the struct layout, not the header schema.
MAGIC = b"RKV1"

_PREFIX = struct.Struct(">4sIQ")

#: Ceiling on the JSON header: ops, keys and metadata are small.
MAX_HEADER_BYTES = 4 * 1024 * 1024

#: Ceiling on one payload (score arrays, fetched edge tables).
MAX_PAYLOAD_BYTES = 4 * 1024 * 1024 * 1024


class FrameError(Exception):
    """Malformed, truncated or digest-mismatched frame."""


def payload_digest(payload: bytes) -> str:
    """Hex SHA-256 of a frame payload."""
    return hashlib.sha256(payload).hexdigest()


def encode_frame(header: Dict[str, Any],
                 payload: Optional[bytes] = None) -> bytes:
    """Serialize one frame; stamps ``payload_sha256`` when needed."""
    if payload:
        header = dict(header)
        header["payload_sha256"] = payload_digest(payload)
    body = payload or b""
    head = json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(head) > MAX_HEADER_BYTES:
        raise FrameError(f"header too large ({len(head)} bytes)")
    if len(body) > MAX_PAYLOAD_BYTES:
        raise FrameError(f"payload too large ({len(body)} bytes)")
    return _PREFIX.pack(MAGIC, len(head), len(body)) + head + body


def read_exact(read, n: int) -> bytes:
    """Read exactly ``n`` bytes via ``read(k)`` or raise.

    ``read`` is any ``socket.makefile("rb").read``-style callable; a
    short read means the peer hung up mid-frame, which callers treat
    as a transient fault.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = read(remaining)
        if not chunk:
            raise FrameError(
                f"connection closed mid-frame ({n - remaining}/{n} "
                "bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def decode_frame(read) -> Tuple[Dict[str, Any], bytes]:
    """Read one frame from ``read``; returns ``(header, payload)``.

    Verifies the magic, the size ceilings and — when a payload is
    present — its digest against ``header["payload_sha256"]``.
    Raises :class:`FrameError` on any violation and ``EOFError`` when
    the stream is already at EOF (clean peer shutdown between
    frames).
    """
    first = read(_PREFIX.size)
    if not first:
        raise EOFError("connection closed")
    prefix = first if len(first) == _PREFIX.size else \
        first + read_exact(read, _PREFIX.size - len(first))
    magic, hlen, plen = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if hlen > MAX_HEADER_BYTES:
        raise FrameError(f"header too large ({hlen} bytes)")
    if plen > MAX_PAYLOAD_BYTES:
        raise FrameError(f"payload too large ({plen} bytes)")
    try:
        header = json.loads(read_exact(read, hlen).decode("utf-8"))
    except ValueError as error:
        raise FrameError(f"undecodable frame header: {error}") from error
    if not isinstance(header, dict):
        raise FrameError("frame header is not a JSON object")
    payload = read_exact(read, plen) if plen else b""
    if payload:
        expected = header.get("payload_sha256")
        actual = payload_digest(payload)
        if expected != actual:
            raise FrameError(
                f"payload digest mismatch (header {expected!r}, "
                f"body {actual})")
    return header, payload


#: Ops whose result is one record, or ``None`` when the key is absent.
RECORD_OPS = ("get", "peek")


def pack_record(record: Dict[str, Any]) -> Tuple[Dict[str, Any], bytes]:
    """``(header part, frame body)`` of a record; see the module doc."""
    head = dict(record, has_payload=record.get("payload") is not None)
    return head, head.pop("payload", None) or b""


def unpack_record(head: Dict[str, Any], body: bytes) -> Dict[str, Any]:
    """The record :func:`pack_record` sent as ``head`` and ``body``."""
    record = dict(head)
    record["payload"] = body if record.pop("has_payload", False) else None
    return record


def pack_result(op: str, result) -> Tuple[Dict[str, Any], bytes]:
    """The reply header and frame body carrying ``op``'s ``result``."""
    if op not in RECORD_OPS:
        return {"ok": True, "result": result}, b""
    if result is None:
        return {"ok": True, "found": False}, b""
    head, body = pack_record(result)
    return {"ok": True, "found": True, "record": head}, body


def unpack_result(op: str, reply: Dict[str, Any], body: bytes):
    """The result :func:`pack_result` sent for ``op``."""
    if op in RECORD_OPS and reply.get("found"):
        return unpack_record(reply["record"], body)
    return reply.get("result")
