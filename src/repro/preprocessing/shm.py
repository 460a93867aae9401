"""One shared-memory batch codec for the data plane (DESIGN.md §17).

Both shared-memory handoffs -- the multi-core engine's input segment
(:mod:`repro.preprocessing.parallel`) and process-mode ingest
(:mod:`repro.ingest.shmio`) -- place a batch's columns in a named
segment with the same layout and rebuild it on the other side as
zero-copy views:

- :func:`batch_layout` places the named columns (sorted by name, each
  array cache-line aligned) and returns the picklable ``layout`` the
  reader needs plus the ``(array, offset)`` placements the writer copies;
- :func:`write_batch` copies the placements into a segment's buffer;
- :func:`_decode_input_batch` rebuilds the batch from a segment and its
  layout as trusted views.

The segment helpers below keep the lifecycle leak-proof: every name
carries its owner's prefix, exactly one ``unlink`` retires it, and a
prefix sweep of ``/dev/shm`` covers crashes.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Batch, DenseColumn, SparseColumn

__all__ = [
    "attach_segment",
    "batch_layout",
    "leaked_segments",
    "unlink_segment",
    "write_batch",
]

_ALIGN = 64  # cache-line align every allocation inside a segment
_SHM_DIR = Path("/dev/shm")


def _align(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------------------
# Batch layout
# ----------------------------------------------------------------------


def batch_layout(
    batch: Batch, names: Iterable[str]
) -> tuple[dict[str, tuple], list[tuple[np.ndarray, int]], int]:
    """Place ``names``' columns of ``batch`` in one segment.

    Returns ``(layout, placements, nbytes)``: ``layout`` maps each name
    to ``("dense", dtype, offset, length)`` or ``("sparse", offsets_off,
    offsets_len, values_dtype, values_off, values_len, hash_size)``;
    ``placements`` lists every array with its byte offset; ``nbytes`` is
    the segment size the layout needs.
    """
    layout: dict[str, tuple] = {}
    placements: list[tuple[np.ndarray, int]] = []
    cursor = 0

    def place(arr: np.ndarray) -> int:
        nonlocal cursor
        offset = cursor
        placements.append((arr, offset))
        cursor += _align(arr.nbytes)
        return offset

    for name in sorted(names):
        col = batch.dense.get(name)
        if col is not None:
            layout[name] = ("dense", col.values.dtype.str, place(col.values), len(col.values))
            continue
        col = batch.sparse[name]
        layout[name] = (
            "sparse",
            place(col.offsets),
            len(col.offsets),
            col.values.dtype.str,
            place(col.values),
            len(col.values),
            col.hash_size,
        )
    return layout, placements, cursor


def write_batch(buf, placements: list[tuple[np.ndarray, int]]) -> None:
    """Copy :func:`batch_layout`'s placements into a segment buffer."""
    for arr, offset in placements:
        if arr.nbytes:
            view = np.frombuffer(buf, dtype=arr.dtype, count=len(arr), offset=offset)
            np.copyto(view, arr)


def _decode_input_batch(shm, layout: dict[str, tuple]) -> Batch:
    """Rebuild a batch from ``shm`` and its layout as zero-copy views."""
    dense = {}
    sparse = {}
    for name, entry in layout.items():
        if entry[0] == "dense":
            _, dtype, offset, length = entry
            arr = np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=length, offset=offset)
            dense[name] = DenseColumn.trusted(name, arr)
        else:
            _, o_off, o_len, v_dtype, v_off, v_len, hash_size = entry
            offsets = np.frombuffer(shm.buf, dtype=np.int64, count=o_len, offset=o_off)
            if v_len:
                values = np.frombuffer(
                    shm.buf, dtype=np.dtype(v_dtype), count=v_len, offset=v_off
                )
            else:
                values = np.empty(0, dtype=np.dtype(v_dtype))
            sparse[name] = SparseColumn.trusted(name, offsets, values, hash_size)
    batch = Batch.__new__(Batch)
    batch.dense = dense
    batch.sparse = sparse
    batch._nbytes = None
    return batch


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------


def _noop() -> None:
    pass


def _defuse(shm: shared_memory.SharedMemory) -> shared_memory.SharedMemory:
    """Disarm ``shm.close`` so GC never raises on live numpy views.

    Readers hand out zero-copy views whose lifetime they do not control
    (lease semantics: valid until the next execute). If the
    ``SharedMemory`` object is collected while such a view is alive,
    ``__del__`` -> ``close`` raises ``BufferError: cannot close exported
    pointers exist``. Shadowing ``close`` keeps the mapping alive until
    the views (which hold the buffer via their ``base`` chain) die, at
    which point the mmap closes itself; the *unlink* side is unaffected.
    """
    shm.close = _noop
    return shm


def _release_fd(shm: shared_memory.SharedMemory) -> None:
    """Close a defused segment's file descriptor (the mmap outlives it)."""
    fd = getattr(shm, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover
            pass
        shm._fd = -1


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment for zero-copy reads.

    Attaching re-registers the name with the resource tracker, which is
    harmless: the tracker's cache is a set, so the single registration is
    cleared by whoever calls ``unlink`` -- exactly once per name.
    """
    return _defuse(shared_memory.SharedMemory(name=name))


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of a (possibly already gone) segment by name.

    ``SharedMemory.unlink`` also unregisters the name from the resource
    tracker, retiring the registration made at creation time.
    """
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with another unlink
        pass
    try:
        seg.close()
    except BufferError:  # pragma: no cover
        pass
    return True


def leaked_segments(prefix: str) -> list[str]:
    """Names under ``/dev/shm`` carrying ``prefix`` (for leak tests)."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-POSIX fallback
        return []
    return sorted(p.name for p in _SHM_DIR.glob(prefix + "*"))


def _sweep_prefix(prefix: str) -> int:
    """Unlink every segment whose name starts with ``prefix``."""
    removed = 0
    for name in leaked_segments(prefix):
        if unlink_segment(name):
            removed += 1
    return removed
