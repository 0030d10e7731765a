"""Settings below numpy, reached through `ctypes`: `one_blas_thread` caps
numpy's OpenBLAS at one thread for a block, `pin_malloc` pins glibc's
allocator thresholds for good, `trim_malloc` returns its free heap memory,
and `flush_subnormals` flushes subnormals to zero in one thread for a block.
Each is a no-op where its library or platform is missing, and none changes
an output bit. `usable_cores` counts the cores that the despeckle and Adam
workers may spread over.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import platform
import threading
from contextlib import contextmanager

import numpy as np


def usable_cores() -> int:
    """Cores this process may run on (all of them where affinity is not exposed)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _functions(path, *names):
    """The named functions of the shared library at `path` (None: this process), or None."""
    try:
        lib = ctypes.CDLL(path)
        return tuple(getattr(lib, name) for name in names)
    except (OSError, AttributeError):
        return None


def _find_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        found = _functions(path, "scipy_openblas_get_num_threads64_",
                           "scipy_openblas_set_num_threads64_")
        if found:
            found[0].restype = ctypes.c_int
            return found
    return None


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's mallopt parameter numbers


@functools.cache   # once per process; racing first calls repeat the same setting
def pin_malloc() -> bool:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 128 MiB.

    The setting is process-wide and cannot be undone: it holds for every
    allocation in the process from then on. Returns whether glibc's `mallopt`
    accepted both values; False, having done nothing, where there is none.
    """
    found = _functions(None, "mallopt")
    if found is None:
        return False
    mallopt, = found
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 128 << 20) == 1)


def trim_malloc() -> None:
    """Hand glibc's free heap memory back to the system; a no-op without `malloc_trim`."""
    found = _functions(None, "malloc_trim")
    if found:
        found[0].argtypes, found[0].restype = (ctypes.c_size_t,), ctypes.c_int
        found[0](0)


_BLAS = _find_openblas()
_blas_cap_lock = threading.Lock()
_blas_cap = {"depth": 0, "saved": 1}


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS at one thread; the last overlapping caller restores it.
    Yields whether the cap holds: False, having done nothing, without OpenBLAS."""
    if _BLAS is None:
        yield False
        return
    get, set_ = _BLAS
    with _blas_cap_lock:
        if _blas_cap["depth"] == 0:
            _blas_cap["saved"] = get()
            set_(1)
        _blas_cap["depth"] += 1
    try:
        yield True
    finally:
        with _blas_cap_lock:
            _blas_cap["depth"] -= 1
            if _blas_cap["depth"] == 0:
                set_(_blas_cap["saved"])


_Fenv = ctypes.c_uint32 * 8   # glibc's x86-64 fenv_t: 32 bytes, __mxcsr the last word
_FTZ_DAZ = 0x8040
_FENV = (_functions("libm.so.6", "fegetenv", "fesetenv")
         if platform.machine() == "x86_64" else None)   # elsewhere fenv_t differs
for _fn in _FENV or ():
    _fn.argtypes, _fn.restype = (ctypes.POINTER(_Fenv),), ctypes.c_int


@contextmanager
def flush_subnormals():
    """Run the block with FTZ|DAZ in this thread's MXCSR; yields whether they were set.

    SSE/AVX arithmetic then reads and writes subnormals as zero, about 19 times
    faster on x86. Other threads are untouched; the saved environment comes back
    on exit, normal or not."""
    saved = _Fenv()
    if _FENV is None or _FENV[0](saved) != 0:
        yield False
        return
    flushed = _Fenv(*saved)
    flushed[7] |= _FTZ_DAZ
    _FENV[1](flushed)
    try:
        yield True
    finally:
        _FENV[1](saved)
