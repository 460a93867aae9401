"""Shared-memory batch handoff for process-mode ingest (DESIGN.md §17).

Process-mode feeding previously shipped every produced batch back through
the ``ProcessPoolExecutor`` result pipe -- a full pickle round trip per
batch. This module replaces the payload with a tiny
:class:`ShmBatchHandle`: the producer encodes the batch into one named
``multiprocessing.shared_memory`` segment and only the handle (name +
column layout) crosses the pipe; the parent attaches, **unlinks
immediately** (the mapping survives; the name cannot leak), and rebuilds
the batch as zero-copy views.

The layout and the segment helpers are the data plane's one batch codec,
:mod:`repro.preprocessing.shm`, shared with the parallel engine: the
segment name is registered with the parent's resource tracker (workers
are forked after ``ensure_running``), and exactly one ``unlink`` per name
retires it -- either :func:`decode_batch` on delivery or
:func:`dispose_handle` on any path that discards an undecoded handle
(drop-oldest eviction, lease teardown, spilled-file cleanup).

Availability is probed once per feeder: POSIX ``/dev/shm``, fork start
method, and not opted out via ``RAP_DISABLE_SHM_INGEST``. When
unavailable the feeder transparently falls back to the pickle path.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from multiprocessing import shared_memory

from ..preprocessing.data import Batch
from ..preprocessing.shm import (
    _decode_input_batch,
    _release_fd,
    attach_segment,
    batch_layout,
    leaked_segments,
    unlink_segment,
    write_batch,
)

__all__ = [
    "DISABLE_ENV",
    "SHM_PREFIX",
    "ShmBatchHandle",
    "decode_batch",
    "dispose_handle",
    "encode_batch",
    "shm_available",
]

DISABLE_ENV = "RAP_DISABLE_SHM_INGEST"
SHM_PREFIX = "rap-ing"

_handle_ids = itertools.count()


def shm_available() -> bool:
    """True when the shared-memory handoff can be used safely.

    Requires POSIX ``/dev/shm`` (name-based sweeps need it), the ``fork``
    start method (workers must inherit the parent's resource tracker so
    registrations retire in one place), and no ``RAP_DISABLE_SHM_INGEST``
    opt-out.
    """
    if os.environ.get(DISABLE_ENV):
        return False
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX
        return False
    return multiprocessing.get_start_method(allow_none=True) in (None, "fork")


class ShmBatchHandle:
    """Picklable pointer to one encoded batch: segment name + layout."""

    def __init__(self, name: str, layout: dict, nbytes: int) -> None:
        self.name = name
        self.layout = layout
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShmBatchHandle({self.name!r}, {len(self.layout)} columns, {self.nbytes} bytes)"


def encode_batch(batch: Batch, prefix: str = SHM_PREFIX) -> ShmBatchHandle:
    """Copy ``batch`` into a fresh named segment (producer side).

    The layout comes from the data plane's one batch codec
    (:mod:`repro.preprocessing.shm`), the same one the parallel engine
    writes its input segment with, so decode is the exact same
    trusted-view reconstruction.
    """
    layout, placements, nbytes = batch_layout(batch, {*batch.dense, *batch.sparse})
    seg_name = f"{prefix}-{os.getpid()}-{next(_handle_ids)}"
    seg = shared_memory.SharedMemory(name=seg_name, create=True, size=max(nbytes, 1))
    try:
        write_batch(seg.buf, placements)
    finally:
        # The producer never reads the segment back; drop its mapping
        # (the parent holds the only long-lived attachment).
        seg.close()
    return ShmBatchHandle(seg_name, layout, nbytes)


def decode_batch(handle: ShmBatchHandle) -> Batch:
    """Attach, unlink, and rebuild the batch as zero-copy views (parent).

    Unlinking up front retires the name (and its resource-tracker
    registration) the moment the batch is delivered; the mapping -- and
    therefore every column view -- stays valid until the views die.
    """
    shm = attach_segment(handle.name)
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with a sweep
        pass
    batch = _decode_input_batch(shm, handle.layout)
    _release_fd(shm)
    return batch


def dispose_handle(handle: ShmBatchHandle) -> bool:
    """Unlink an undecoded handle's segment (drop/teardown paths)."""
    return unlink_segment(handle.name)


def leaked_ingest_segments() -> list[str]:
    """Names under ``/dev/shm`` from the ingest handoff (for leak tests)."""
    return leaked_segments(SHM_PREFIX + "-")
