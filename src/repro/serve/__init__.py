"""repro.serve — the long-lived backbone daemon and its resilience kit.

The flow layer (:mod:`repro.flow`) made a batch of backbone requests
one declarative, deduplicated call; this package keeps that machinery
*running*: :class:`BackboneDaemon` is a stdlib-only HTTP service with a
persistent warm :class:`~repro.pipeline.store.ScoreStore`, a worker
pool, and a batcher that coalesces queued requests from different
clients into single scoring passes. :class:`ServeClient`
talks to it; :func:`serve_isolated` is the batch engine the daemon
runs (usable standalone), answering every plan, compile errors
included, in its own slot; :mod:`repro.serve.faults` is the chaos
harness that proves the degradation story:

===========================  =======================================
failure                      degradation
===========================  =======================================
cache backend unreachable    memory-only recompute, ``degraded`` flag
worker process killed        serial retry of the lost shards
one plan's scoring fails     structured error for that plan only
malformed plan artifact      structured error for that slot only
unreadable source, unknown   structured error for that plan's slot;
method or bad parameter      same-source batchmates still share one
                             hash and parse
request deadline expires     504 to that client; batch still warms
                             the store; daemon unaffected
slow / stalled client        socket read timeout frees the handler
===========================  =======================================
"""

import sys
from types import ModuleType

from ..flow import serve as _serve_batch
from .client import ServeClient, ServeError
from .daemon import PROTOCOL_VERSION, BackboneDaemon, DeadlineExceeded
from .engine import serve_isolated

__all__ = [
    "BackboneDaemon", "DeadlineExceeded", "PROTOCOL_VERSION",
    "ServeClient", "ServeError", "serve_isolated",
]


class _CallableServeModule(ModuleType):
    """Keep ``from repro import serve; serve(plans)`` working.

    Importing this subpackage rebinds the ``serve`` attribute on the
    ``repro`` package from the flow-level batch function to this
    module (standard submodule-import behaviour), which would make
    the established entry point order-dependent. Making the module
    itself callable means both spellings hold at once:
    ``repro.serve(plans)`` executes a batch, ``repro.serve.
    BackboneDaemon`` keeps one running.
    """

    def __call__(self, plans, store=None, workers=None):
        return _serve_batch(plans, store=store, workers=workers)


sys.modules[__name__].__class__ = _CallableServeModule
