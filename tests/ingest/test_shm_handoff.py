"""Shared-memory batch handoff for process-mode ingest (DESIGN.md §17).

Covers the encode/decode round trip, the exactly-one-unlink lifecycle on
every path a handle can take (delivered, dropped by overload policy,
abandoned mid-epoch, spilled to disk), and the transparent pickle
fallback when shared memory is unavailable.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.ingest import PipelinedFeeder, QueueConfig
from repro.ingest.queue import BackpressureQueue
from repro.ingest.shmio import (
    ShmBatchHandle,
    decode_batch,
    dispose_handle,
    encode_batch,
    leaked_ingest_segments,
    shm_available,
)
from repro.ingest.sources import SyntheticSource
from repro.preprocessing import KAGGLE_SCHEMA, Batch, SparseColumn, SyntheticCriteoDataset

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared-memory handoff unavailable on this host"
)


def _assert_no_leaks() -> None:
    # Unlinks happen in the parent; nothing here is asynchronous, but the
    # final worker exits can lag a beat on slow CI.
    for _ in range(50):
        if not leaked_ingest_segments():
            return
        time.sleep(0.1)
    assert leaked_ingest_segments() == []


def _assert_batches_equal(a, b) -> None:
    assert set(a.dense) == set(b.dense) and set(a.sparse) == set(b.sparse)
    for name in a.dense:
        x, y = a.dense[name].values, b.dense[name].values
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    for name in a.sparse:
        x, y = a.sparse[name], b.sparse[name]
        assert x.hash_size == y.hash_size
        assert np.array_equal(x.offsets, y.offsets)
        assert np.array_equal(x.values, y.values)


def _empty_first_sparse_column(batch):
    """``batch`` with its first sparse column emptied (every row has no ids)."""
    name = sorted(batch.sparse)[0]
    col = batch.sparse[name]
    sparse = dict(batch.sparse)
    sparse[name] = SparseColumn(name, np.zeros_like(col.offsets), col.values[:0], col.hash_size)
    return Batch(dense=batch.dense, sparse=sparse)


@pytest.mark.parametrize("empty_sparse", [False, True], ids=["synthetic", "empty-sparse-column"])
def test_encode_decode_round_trip(empty_sparse):
    batch = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=3).batch(128, index=0)
    if empty_sparse:
        batch = _empty_first_sparse_column(batch)
    handle = encode_batch(batch)
    assert handle.nbytes > 0
    out = decode_batch(handle)
    _assert_batches_equal(batch, out)
    # decode unlinked the name eagerly: nothing left to sweep, and a
    # second dispose is a harmless no-op.
    assert not dispose_handle(handle)
    _assert_no_leaks()


def test_dispose_without_decode_unlinks():
    batch = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=5).batch(64, index=0)
    handle = encode_batch(batch)
    assert dispose_handle(handle)
    _assert_no_leaks()


def test_process_feeder_delivers_identical_batches():
    src = SyntheticSource(KAGGLE_SCHEMA, batch_size=64, num_batches=5, seed=7)
    ref = [src(i) for i in range(5)]
    with PipelinedFeeder(src, mode="process", workers=2, depth=2) as feeder:
        assert feeder.shm_handoff
        got = list(feeder)
        assert len(got) == 5
        for r, g in zip(ref, got):
            _assert_batches_equal(r, g)
        # Multi-use lifecycle survives the shm path too.
        assert len(list(feeder)) == 5
    _assert_no_leaks()


@pytest.mark.parametrize("policy", ["block", "drop_oldest", "spill_to_disk"])
def test_abandoned_epoch_leaks_nothing(policy):
    src = SyntheticSource(KAGGLE_SCHEMA, batch_size=64, num_batches=8, seed=11)
    feeder = PipelinedFeeder(
        src,
        mode="process",
        workers=2,
        depth=3,
        queue=QueueConfig(capacity=2, policy=policy),
    )
    it = iter(feeder)
    next(it)
    it.close()  # consumer walks away mid-epoch
    feeder.close()
    _assert_no_leaks()


def test_futures_mode_abandon_leaks_nothing():
    src = SyntheticSource(KAGGLE_SCHEMA, batch_size=64, num_batches=8, seed=13)
    feeder = PipelinedFeeder(src, mode="process", workers=2, depth=3)
    it = iter(feeder)
    next(it)
    it.close()
    feeder.close()
    _assert_no_leaks()


def test_queue_dispose_hook_on_drop_and_drain():
    disposed = []
    q = BackpressureQueue(2, policy="drop_oldest", dispose=disposed.append)
    q.put("a")
    q.put("b")
    q.put("c")  # evicts "a"
    assert disposed == ["a"]
    q.drain_and_discard()
    assert disposed == ["a", "b", "c"]


def test_queue_dispose_hook_covers_spill_files(tmp_path):
    disposed = []
    q = BackpressureQueue(
        2,
        policy="spill_to_disk",
        high_watermark=2,
        spill_dir=str(tmp_path),
        dispose=disposed.append,
    )
    for item in ("a", "b", "c", "d"):
        q.put(item)
    assert q.stats().spills == 2
    q.drain_and_discard()
    assert sorted(disposed) == ["a", "b", "c", "d"]
    assert not list(tmp_path.glob("spill-*.pkl"))


def test_pickle_fallback_when_disabled():
    code = (
        "import os\n"
        "os.environ['RAP_DISABLE_SHM_INGEST'] = '1'\n"
        "from repro.ingest import PipelinedFeeder\n"
        "from repro.ingest.sources import SyntheticSource\n"
        "from repro.preprocessing import KAGGLE_SCHEMA\n"
        "src = SyntheticSource(KAGGLE_SCHEMA, batch_size=32, num_batches=3, seed=1)\n"
        "f = PipelinedFeeder(src, mode='process', workers=1)\n"
        "assert f.shm_handoff is False\n"
        "assert len(list(f)) == 3\n"
        "f.close()\n"
    )
    src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src_dir), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_handle_is_picklable():
    batch = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=17).batch(32, index=0)
    handle = encode_batch(batch)
    try:
        import pickle

        clone = pickle.loads(pickle.dumps(handle))
        assert isinstance(clone, ShmBatchHandle)
        assert clone.name == handle.name and clone.layout == handle.layout
    finally:
        dispose_handle(handle)
    _assert_no_leaks()
