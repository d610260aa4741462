"""One BLAS thread for the calling thread while a solve runs.

OpenBLAS splits a large enough product or factorization over threads, and
the split changes the order of its sums, so the last bits of an iterate,
and with them the trace and the solution file, would depend on the
machine's thread count.  The OpenBLAS builds bundled with the numpy and
scipy wheels (under `numpy.libs` and `scipy.libs`) export
`openblas_set_num_threads_local`, which sets the count for the calling
thread and returns the previous one.  Where no such library is loaded,
or it lacks the symbol (another BLAS, an older OpenBLAS), the context
does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Tuple

import numpy
import scipy


@functools.lru_cache(maxsize=None)
def _thread_setters() -> Tuple[Callable[[int], int], ...]:
    """openblas_set_num_threads_local of each bundled OpenBLAS that the
    process has loaded; a library not yet loaded is not loaded here."""
    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return ()
    setters = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=mode | os.RTLD_LAZY)
            except OSError:
                continue
            setter = getattr(lib, "openblas_set_num_threads_local", None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = ctypes.c_int
                setters.append(setter)
    return tuple(setters)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with one BLAS thread, and restore the count after."""
    setters = _thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)
