"""Cap the thread pool of the BLAS library numpy links against.

numpy wheels bundle OpenBLAS with a thread pool sized to the machine.
The resample kernels behind ``RandomResizedCrop`` (and the model's
forward pass) are matmuls, so on a loader with several worker threads
every caller fans out onto the same cores: the cores are oversubscribed
and a matmul's wall time swings with whatever else runs. PyTorch's
DataLoader avoids the same effect by giving each worker one intra-op
thread; :func:`blas_thread_limit` does the same for a block of code.

The limit is process-wide (OpenBLAS keeps one setting). Without a
bundled OpenBLAS exposing the setter the helpers do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from typing import Iterator, Optional, Tuple

import numpy

#: (setter, getter) symbol pairs: numpy >= 2 wheels, then numpy 1.x.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)

_api: Optional[Tuple[object, object]] = None
_probed = False


def _find_api() -> Optional[Tuple[object, object]]:
    libs_dir = os.path.join(
        os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs"
    )
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            # numpy already loaded this file, so this returns its handle.
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return setter, getter
    return None


def _blas_api() -> Optional[Tuple[object, object]]:
    global _api, _probed
    if not _probed:
        _api = _find_api()
        _probed = True
    return _api


def blas_threads() -> Optional[int]:
    """The BLAS thread count now in force, or None if it is not
    controllable."""
    api = _blas_api()
    return None if api is None else int(api[1]())


@contextlib.contextmanager
def blas_thread_limit(num_threads: int) -> Iterator[None]:
    """Run the block with BLAS limited to ``num_threads``, then restore
    the previous count."""
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    api = _blas_api()
    if api is None:
        yield
        return
    setter, getter = api
    previous = int(getter())
    setter(num_threads)
    try:
        yield
    finally:
        setter(previous)
