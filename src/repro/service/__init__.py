"""The compile service: a long-lived asyncio daemon over the symbolic core.

``repro serve`` turns the compiler from a CLI into a serving system: an
HTTP/JSON daemon (stdlib ``asyncio`` streams, zero hard dependencies)
exposing the whole pipeline -- compile, explore, execute, verify,
fuzz-replay -- over a content-addressed design store keyed by
``design_fingerprint``.  Concurrent identical compiles coalesce onto one
in-flight derivation, requests carry configurable timeouts whose
cancellation never corrupts the shared memo/caches, and ``/stats``
surfaces per-endpoint latency histograms plus every cache counter in the
stack.

Layout:

* :mod:`repro.service.daemon`    -- HTTP front door, routing, lifecycle;
* :mod:`repro.service.store`     -- content-addressed design store +
  request coalescing;
* :mod:`repro.service.metrics`   -- counters and latency histograms;
* :mod:`repro.service.client`    -- a minimal asyncio JSON client (tests,
  the benchmark, and scripting against a running daemon).
"""

from repro.service.client import ServiceClient
from repro.service.daemon import CompileService, ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.store import DesignStore

__all__ = [
    "CompileService",
    "DesignStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
]
