"""Low-latency ExD encode service (see :mod:`repro.serve.app`).

The package splits the daemon into three testable layers:

* :mod:`repro.serve.protocol` — wire schemas and :class:`ServeError`;
* :mod:`repro.serve.registry` — versioned multi-tenant dictionary
  store with per-generation Gram matrices and atomic default hot-swap;
* :mod:`repro.serve.batcher` — the continuous batcher that coalesces
  concurrent single-column encodes into shared-``G`` Batch-OMP calls;
* :mod:`repro.serve.app` — the stdlib asyncio HTTP front.
"""

from repro.serve.app import ServeApp
from repro.serve.batcher import MAX_BATCH_LIMIT, MicroBatcher
from repro.serve.protocol import (
    EncodeRequest,
    EncodeResult,
    ServeError,
    parse_encode_request,
    parse_vector,
)
from repro.serve.registry import DictionaryRegistry, Generation

__all__ = [
    "MAX_BATCH_LIMIT",
    "DictionaryRegistry",
    "EncodeRequest",
    "EncodeResult",
    "Generation",
    "MicroBatcher",
    "ServeApp",
    "ServeError",
    "parse_encode_request",
    "parse_vector",
]
