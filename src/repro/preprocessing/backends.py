"""Pluggable kernel backends for the compiled engine (ROADMAP item 3).

The compiled engine (:mod:`repro.preprocessing.engine`) dispatches every
fused step to a module-level kernel in :mod:`repro.preprocessing.ops`.
This module puts a *backend registry* in front of that dispatch: at
compile time each step asks the selected backend for its kernel, and the
backend answers either an accelerated implementation (numba / numexpr)
or the reference numpy kernel.

Design rules, in priority order:

1. **Bit-identity is non-negotiable.** A backend may only accelerate a
   kernel when its result is *structurally guaranteed* to equal the numpy
   reference for every input: integer arithmetic (sigridhash's splitmix64
   mix, mapid's affine remap, clamp, firstx, ngram's rolling hash),
   comparison-only float work (bucketize's binary search, onehot's
   clip+scale with a single rounding), and fillnull's NaN/inf replacement.
   Transcendental kernels (logit, boxcox) stay on numpy because SIMD and
   scalar libm may disagree in the last ulp. The property-based
   equivalence suite enforces the contract for every backend it can
   import.
2. **Graceful degradation.** When the requested library is not importable
   the backend silently resolves every kernel to numpy and records why;
   when a jit compile fails *at runtime* the call falls back to numpy for
   good and bumps ``fallbacks``. Nothing above this module needs a
   ``try: import numba``.
3. **Determinism.** Backend selection is a pure function of
   ``(backend name, kernel name, library availability)`` -- no timing
   heuristics -- so two compiles of the same program always pick the same
   kernels.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from . import ops as _ops
from .data import lengths_from_offsets, offsets_from_lengths

__all__ = [
    "KernelBackend",
    "BACKEND_NAMES",
    "available_backends",
    "resolve_backend",
]

#: Kernel entry points a backend may accelerate (names match ``ops.py``).
KERNEL_NAMES = (
    "fillnull_kernel",
    "cast_kernel",
    "logit_kernel",
    "boxcox_kernel",
    "onehot_kernel",
    "bucketize_kernel",
    "sigridhash_kernel",
    "clamp_kernel",
    "mapid_kernel",
    "firstx_kernel",
    "ngram_kernel",
)

#: Valid ``--kernel-backend`` values ("auto" picks the best importable).
BACKEND_NAMES = ("auto", "numpy", "numba", "numexpr")


class KernelBackend:
    """A named kernel table with per-kernel numpy fallback.

    ``kernel(name)`` always returns a callable with the reference
    signature; ``accelerates(name)`` says whether that callable is a
    non-numpy implementation. ``fallbacks`` counts runtime jit failures
    that were silently demoted to numpy.
    """

    def __init__(
        self,
        name: str,
        requested: str,
        table: dict[str, Callable] | None = None,
        unavailable_reason: str | None = None,
    ) -> None:
        self.name = name
        self.requested = requested
        self.unavailable_reason = unavailable_reason
        self._table = table or {}
        self.fallbacks = 0

    def kernel(self, kernel_name: str) -> Callable:
        accelerated = self._table.get(kernel_name)
        if accelerated is not None:
            return accelerated
        return getattr(_ops, kernel_name)

    def accelerates(self, kernel_name: str) -> bool:
        return kernel_name in self._table

    @property
    def accelerated_kernels(self) -> tuple[str, ...]:
        return tuple(sorted(self._table))

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "requested": self.requested,
            "accelerated_kernels": list(self.accelerated_kernels),
            "fallbacks": self.fallbacks,
            "unavailable_reason": self.unavailable_reason,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelBackend({self.name!r}, accelerates={list(self._table)})"


def _guarded(backend: KernelBackend, compile_fn: Callable[[], Callable], reference: Callable) -> Callable:
    """Wrap a lazily-compiled kernel with a permanent numpy fallback.

    The accelerated implementation is built on first call (so importing
    this module never pays jit time); if building or the first call
    raises, every subsequent call uses the numpy reference and the
    backend's ``fallbacks`` counter is bumped once.
    """
    lock = threading.Lock()
    state: dict[str, Callable | None] = {"impl": None, "failed": None}

    def call(*args, **kwargs):
        impl = state["impl"]
        if impl is None:
            with lock:
                impl = state["impl"]
                if impl is None:
                    try:
                        impl = compile_fn()
                    except Exception:
                        impl = reference
                        backend.fallbacks += 1
                    state["impl"] = impl
        if state["failed"] is None:
            try:
                return impl(*args, **kwargs)
            except ValueError:
                raise  # argument validation, identical on every backend
            except Exception:
                if impl is reference:
                    raise
                state["failed"] = True
                backend.fallbacks += 1
        return reference(*args, **kwargs)

    return call


# ----------------------------------------------------------------------
# numba backend
#
# Element-loop re-implementations of the exactly-reproducible kernels.
# Every loop replicates the numpy reference's arithmetic order and
# rounding behaviour (documented inline where it is subtle). Each wrapper
# keeps the reference signature, ``take`` included; element loops need no
# scratch, so they ignore it.
# ----------------------------------------------------------------------


def _build_numba_table(backend: KernelBackend) -> dict[str, Callable]:
    import numba  # noqa: F401 -- availability probe; raises ImportError when absent

    def make_sigridhash():
        from numba import njit

        @njit(cache=True)
        def loop(vals, salt, max_value, out):
            mult = np.uint64(0x9E3779B97F4A7C15)
            m2 = np.uint64(0xBF58476D1CE4E5B9)
            s = np.uint64(salt)
            mod = np.uint64(max_value)
            for i in range(vals.shape[0]):
                h = vals[i] * mult + s
                h ^= h >> np.uint64(29)
                h *= m2
                h ^= h >> np.uint64(32)
                out[i] = h % mod

        def sigridhash(values, salt, max_value, out=None, take=None):
            if out is None:
                out = np.empty(values.shape[0], dtype=np.int64)
            loop(_ops._as_uint64(np.ascontiguousarray(values)), salt, max_value, _ops._as_uint64(out))
            return out

        return sigridhash

    def make_mapid():
        from numba import njit

        @njit(cache=True)
        def loop(vals, multiplier, offset, table_size, out):
            mult = np.uint64(multiplier)
            off = np.uint64(offset)
            mod = np.uint64(table_size)
            for i in range(vals.shape[0]):
                out[i] = (vals[i] * mult + off) % mod

        def mapid(values, multiplier, offset, table_size, out=None, take=None):
            if out is None:
                out = np.empty(values.shape[0], dtype=np.int64)
            loop(
                _ops._as_uint64(np.ascontiguousarray(values)),
                multiplier,
                offset,
                table_size,
                _ops._as_uint64(out),
            )
            return out

        return mapid

    def make_clamp():
        from numba import njit

        @njit(cache=True)
        def loop(vals, lower, upper, out):
            for i in range(vals.shape[0]):
                v = vals[i]
                if v < lower:
                    v = lower
                elif v > upper:
                    v = upper
                out[i] = v

        def clamp(values, lower, upper, out=None, take=None):
            if lower > upper:
                raise ValueError("Clamp lower bound exceeds upper bound")
            if out is None:
                out = np.empty(values.shape[0], dtype=values.dtype)
            loop(values, lower, upper, out)
            return out

        return clamp

    def make_bucketize():
        from numba import njit

        # bisect_right over sorted borders == searchsorted(side="right");
        # NaN maps to 0.0 and +/-inf to the float64 extremes exactly like
        # np.nan_to_num before the search.
        @njit(cache=True)
        def loop(vals, borders, out):
            fmax = np.finfo(np.float64).max
            n = borders.shape[0]
            for i in range(vals.shape[0]):
                x = vals[i]
                if np.isnan(x):
                    x = 0.0
                elif x == np.inf:
                    x = fmax
                elif x == -np.inf:
                    x = -fmax
                lo = 0
                hi = n
                while lo < hi:
                    mid = (lo + hi) // 2
                    if x < borders[mid]:
                        hi = mid
                    else:
                        lo = mid + 1
                out[i] = lo

        def bucketize(values, borders, out=None):
            if out is None:
                out = np.empty(values.shape[0], dtype=np.int64)
            loop(
                np.ascontiguousarray(values, dtype=np.float64),
                np.asarray(borders, dtype=np.float64),
                out,
            )
            return out

        return bucketize

    def make_onehot():
        from numba import njit

        # One float64 multiply then C-style truncation -- the identical
        # single-rounding sequence the numpy reference performs.
        @njit(cache=True)
        def loop(vals, num_classes, out):
            top = num_classes - 1
            for i in range(vals.shape[0]):
                x = vals[i]
                if np.isnan(x):
                    x = 0.0
                if x < 0.0:
                    x = 0.0
                elif x > 1.0:
                    x = 1.0
                idx = np.int64(x * num_classes)
                if idx > top:
                    idx = top
                out[i] = idx

        def onehot(values, num_classes, out=None):
            if out is None:
                out = np.empty(values.shape[0], dtype=np.int64)
            loop(np.ascontiguousarray(values, dtype=np.float64), num_classes, out)
            return out

        return onehot

    def make_fillnull():
        from numba import njit

        # float32 conversion first, then NaN -> fill and +/-inf -> float32
        # extremes: the exact np.nan_to_num(values.astype(float32)) map.
        @njit(cache=True)
        def loop(vals, fill, out):
            fmax = np.finfo(np.float32).max
            for i in range(vals.shape[0]):
                x = np.float32(vals[i])
                if np.isnan(x):
                    x = fill
                elif x == np.inf:
                    x = fmax
                elif x == -np.inf:
                    x = -fmax
                out[i] = x

        def fillnull(values, fill_value, out=None):
            if out is None:
                out = np.empty(values.shape[0], dtype=np.float32)
            loop(np.ascontiguousarray(values), np.float32(fill_value), out)
            return out

        return fillnull

    def make_firstx():
        from numba import njit

        @njit(cache=True)
        def loop(offsets, values, x, out_offsets, out_values):
            pos = 0
            for r in range(offsets.shape[0] - 1):
                start = offsets[r]
                end = min(offsets[r + 1], start + x)
                for j in range(start, end):
                    out_values[pos] = values[j]
                    pos += 1

        def firstx(offsets, values, x, out_offsets=None, out_values=None):
            if x <= 0:
                raise ValueError("FirstX needs x >= 1")
            lengths = lengths_from_offsets(offsets)
            out_offsets = offsets_from_lengths(np.minimum(lengths, x), out=out_offsets)
            nnz = int(out_offsets[-1])
            if out_values is None:
                out_values = np.empty(nnz, dtype=values.dtype)
            loop(offsets, values, x, out_offsets, out_values[:nnz])
            return out_offsets, out_values

        return firstx

    def make_ngram():
        from numba import njit

        # Per-window rolling hash h = ((v0*p + v1)*p + v2)... in uint64 --
        # the same left-fold the vectorized reference computes.
        @njit(cache=True)
        def loop(offsets, vals, n, mod, out_values):
            prime = np.uint64(1_000_003)
            m = np.uint64(mod)
            pos = 0
            for r in range(offsets.shape[0] - 1):
                start = offsets[r]
                end = offsets[r + 1]
                for w in range(start, end - n + 1):
                    h = np.uint64(0)
                    for t in range(n):
                        h = h * prime + vals[w + t]
                    out_values[pos] = h % m
                    pos += 1

        def ngram(offsets, values, n, out_hash_size, out_offsets=None, out_values=None, take=None):
            if n < 1:
                raise ValueError("Ngram needs n >= 1")
            lengths = lengths_from_offsets(offsets)
            out_offsets = offsets_from_lengths(np.maximum(lengths - n + 1, 0), out=out_offsets)
            nnz = int(out_offsets[-1])
            if nnz == 0:
                empty = values[:0] if out_values is None else out_values[:0]
                return out_offsets, empty
            if out_values is None:
                out_values = np.empty(nnz, dtype=np.int64)
            loop(
                offsets,
                _ops._as_uint64(np.ascontiguousarray(values)),
                n,
                out_hash_size,
                _ops._as_uint64(out_values[:nnz]),
            )
            return out_offsets, out_values

        return ngram

    builders = {
        "sigridhash_kernel": (make_sigridhash, _ops.sigridhash_kernel),
        "mapid_kernel": (make_mapid, _ops.mapid_kernel),
        "clamp_kernel": (make_clamp, _ops.clamp_kernel),
        "bucketize_kernel": (make_bucketize, _ops.bucketize_kernel),
        "onehot_kernel": (make_onehot, _ops.onehot_kernel),
        "fillnull_kernel": (make_fillnull, _ops.fillnull_kernel),
        "firstx_kernel": (make_firstx, _ops.firstx_kernel),
        "ngram_kernel": (make_ngram, _ops.ngram_kernel),
    }
    return {
        name: _guarded(backend, build, reference)
        for name, (build, reference) in builders.items()
    }


# ----------------------------------------------------------------------
# numexpr backend
#
# numexpr's VM only guarantees bit-identity for comparison/select work,
# so acceleration is restricted to clamp (int64 compares + copies).
# ----------------------------------------------------------------------


def _build_numexpr_table(backend: KernelBackend) -> dict[str, Callable]:
    import numexpr  # noqa: F401 -- availability probe

    def make_clamp():
        import numexpr as ne

        def clamp(values, lower, upper, out=None, take=None):
            if lower > upper:
                raise ValueError("Clamp lower bound exceeds upper bound")
            if out is None:
                out = np.empty(values.shape[0], dtype=values.dtype)
            ne.evaluate(
                "where(v < lo, lo, where(v > hi, hi, v))",
                local_dict={
                    "v": values,
                    "lo": values.dtype.type(lower),
                    "hi": values.dtype.type(upper),
                },
                out=out,
            )
            return out

        return clamp

    return {"clamp_kernel": _guarded(backend, make_clamp, _ops.clamp_kernel)}


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------

_LIBRARY_BUILDERS = {"numba": _build_numba_table, "numexpr": _build_numexpr_table}


def _import_error(library: str) -> str | None:
    try:
        __import__(library)
        return None
    except Exception as exc:  # ImportError, or a broken install
        return f"{type(exc).__name__}: {exc}"


def available_backends() -> dict[str, bool]:
    """Importability of every named backend (numpy/auto are always on)."""
    out = {"numpy": True, "auto": True}
    for library in _LIBRARY_BUILDERS:
        out[library] = _import_error(library) is None
    return out


def resolve_backend(backend: "str | KernelBackend | None") -> KernelBackend:
    """Resolve a backend name to a ready :class:`KernelBackend`.

    ``None``/"numpy" give the reference table; "numba"/"numexpr" give the
    accelerated table when the library imports and otherwise degrade to a
    numpy table whose ``unavailable_reason`` says why; "auto" prefers
    numba, then numexpr, then numpy.
    """
    if isinstance(backend, KernelBackend):
        return backend
    requested = backend or "numpy"
    if requested not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {requested!r}; expected one of {BACKEND_NAMES}"
        )
    if requested == "numpy":
        return KernelBackend("numpy", requested)
    candidates = ["numba", "numexpr"] if requested == "auto" else [requested]
    reasons = []
    for library in candidates:
        reason = _import_error(library)
        if reason is None:
            resolved = KernelBackend(library, requested)
            resolved._table = _LIBRARY_BUILDERS[library](resolved)
            return resolved
        reasons.append(f"{library} unavailable ({reason})")
    return KernelBackend("numpy", requested, unavailable_reason="; ".join(reasons))
