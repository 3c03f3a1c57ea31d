"""Sweep service: content-addressed persistence + an async job layer.

The pieces (see ``docs/service.md`` for the full tour):

:mod:`repro.service.store`
    :class:`SweepResultStore` — a disk-backed, content-addressed store of
    sweep results keyed by structural graph fingerprints, shared across
    processes and sessions.  Plug one into
    :class:`~repro.pipeline.Session` (``result_store=``) for a persistent
    tier under the in-memory sweep cache; ``SweepService(store=)``
    attaches it to the service's session.

:mod:`repro.service.jobs`
    :class:`SweepService` — an asyncio front that coalesces duplicate
    in-flight points across concurrent clients (each novel point
    simulates exactly once), hands the rest to the session's memory →
    store → simulation walk, and streams per-point results.

:mod:`repro.service.audit`
    ``python -m repro.service.audit`` — walk a store's shards, census
    valid/corrupt/version-mismatched entries, optionally quarantine the
    corrupt ones (:meth:`SweepResultStore.audit`).

:mod:`repro.service.fakes`
    In-memory store/worker fakes for tests and experiments.
"""

from .jobs import JobCancelled, PointOutcome, SessionWorker, SweepJob, SweepService
from .store import (
    QUARANTINE_DIR,
    STORE_VERSION,
    ResultStore,
    StoreAudit,
    SweepResultStore,
    content_address,
    decode_result,
    encode_result,
    normalize_key,
)

__all__ = [
    "JobCancelled",
    "PointOutcome",
    "QUARANTINE_DIR",
    "ResultStore",
    "STORE_VERSION",
    "SessionWorker",
    "StoreAudit",
    "SweepJob",
    "SweepResultStore",
    "SweepService",
    "content_address",
    "decode_result",
    "encode_result",
    "normalize_key",
]
