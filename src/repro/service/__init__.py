"""Sharded sweep scheduling and a queryable result store.

``repro.service`` promotes figure reproduction from "script + process
pool + directory of JSON files" to a *service*:

:mod:`~repro.service.manifest`
    A sweep request (figure tag, topology, routings, patterns, loads,
    replication seeds, simulation config) decomposed into
    content-addressed :class:`~repro.network.parallel.WorkUnit`\\ s
    keyed by :func:`repro.network.cache.point_key`.

:mod:`~repro.service.store`
    :class:`~repro.service.store.ResultStore` -- the on-disk point
    records of :class:`~repro.network.cache.SweepCache` (atomic writes,
    self-healing invalidation) plus a schema'd manifest index with a
    query API: by figure tag, routing and a load ceiling.  Queries
    never simulate.

:mod:`~repro.service.scheduler`
    The sweep runner of :mod:`repro.network.parallel` (worker pool with
    heartbeats, per-unit timeouts, bounded retries with backoff)
    configured as a job: an append-only crash journal and the indexed
    store, so a killed service resumes a partial sweep without
    recomputing completed points.

:mod:`~repro.service.client`
    :class:`~repro.service.client.ServiceExecutor` -- a drop-in
    :class:`~repro.network.parallel.SweepExecutor` whose batches are
    such jobs.  Setting ``REPRO_SWEEP_SERVICE`` to a service root
    directory turns every figure script and benchmark that calls
    :func:`repro.experiments.base.experiment_executor` into a service
    client with no code changes.

The CLI front end lives in :mod:`repro.serve` (``python -m repro.serve
submit|status|query|gc``).  See ``docs/sweeps.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..network.parallel": ("SchedulerOptions", "ServiceError"),
    ".client": ("ServiceExecutor",),
    ".manifest": ("MANIFEST_SCHEMA_VERSION", "SweepManifest", "TopologySpec"),
    ".store": ("ResultStore", "StoredPoint"),
})
