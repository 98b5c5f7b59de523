"""The execution backend's name, for readers that record it.

The executor (:mod:`repro.engine.executor`) and the tracer
(:mod:`repro.whynot.tracing`) run every partition and every SA group in
the calling process.  Multi-core serving runs whole requests in parallel
instead (``serve --processes N``, :mod:`repro.api.sharded`).
"""

from __future__ import annotations


def default_backend_name() -> str:
    """The backend every run uses, ``"serial"`` (the only one).

    Kept for readers that record it, such as benchmark notes.
    """
    return "serial"
