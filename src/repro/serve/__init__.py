"""CLI front end of the sweep service (``python -m repro.serve``).

Verbs (see ``docs/sweeps.md``):

``submit``
    Decompose a figure preset or an explicit ``--manifest`` file into
    content-addressed work units, run them through the sharded,
    journaled scheduler, and report live progress.  Re-submitting an
    already computed sweep performs zero simulation calls.
``status``
    Narrate every submitted job from its crash journal: done/failed
    counts, attempts burned, serial-fallback diagnostics.
``query``
    Filter the result store's index by figure tag and routing -- never
    simulates.
``gc``
    Drop temp litter and stale records, rebuild the index.

The implementation lives in :mod:`repro.serve.__main__`; the library
layer is :mod:`repro.service`.
"""
