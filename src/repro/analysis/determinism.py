"""Determinism digest: a stable hash over a run's simulation-derived state.

:meth:`~repro.harness.experiment.ExperimentSummary.fingerprint` already
collects every simulation-derived field of a run (and excludes the
wall-clock diagnostics); this module reduces that tuple to a short hex
digest so two runs can be compared — and reported — at a glance.  The
``repro check`` CLI runs the same seeded experiment twice and requires
the digests to be byte-identical, which is the guarantee the process-pool
runner and the figure harness lean on.
"""

from __future__ import annotations

import hashlib


def fingerprint_digest(summary) -> str:
    """SHA-256 hex digest of ``repr(summary.fingerprint())``.

    The ``repr`` is hashed as the chunks of ``summary.fingerprint_text()``
    arrive, so digesting allocates one chunk at a time instead of a boxed
    copy of every timestamp and its text.  Floats ``repr`` round-trip
    exactly, so equal fingerprints imply equal digests and vice versa.
    """
    digest = hashlib.sha256()
    for chunk in summary.fingerprint_text():
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()
