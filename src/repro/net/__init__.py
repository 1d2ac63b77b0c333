"""``repro.net`` — a real networked transport for the score cache.

The pieces, bottom-up:

- :mod:`repro.net.protocol` — length-prefixed binary frames with
  end-to-end payload digests.
- :class:`SocketKVServer` — a threaded stdlib-socket KV server run
  in-process or as its own process (``python -m repro.net.server``).
  It hands every data op to one
  :class:`~repro.pipeline.backends.InMemoryKVServer`, the op table
  the in-memory transport runs.
- :class:`SocketKVTransport` — the client side, plugging into the
  existing ``KVBackend`` retry/timeout/degradation machinery, so
  ``ScoreStore("kv://host:port")`` gives two independent processes
  one warm shared cache.
- :func:`put_object` / :func:`get_object` — whole files (edge
  tables) as digest-verified KV records, feeding the
  ``flow("kv://host:port/edges.npz")`` remote sources.
- :class:`ChaosProxy` — scripted socket-level fault injection
  (:class:`Drop` / :class:`Stall` / :class:`Truncate`) for testing
  the retry and degradation paths against real network failures.
"""

from .faults import ChaosProxy, Drop, Stall, Truncate
from .objects import (OBJECT_SCHEMA, ObjectIntegrityError, get_object,
                      put_object)
from .protocol import FrameError
from .server import SocketKVServer
from .transport import SocketKVTransport

__all__ = [
    "ChaosProxy",
    "Drop",
    "FrameError",
    "OBJECT_SCHEMA",
    "ObjectIntegrityError",
    "SocketKVServer",
    "SocketKVTransport",
    "Stall",
    "Truncate",
    "get_object",
    "put_object",
]
