"""Desk-scale 3D semantic scene graph prediction with oracle-assisted training."""

import ctypes
import glob
import os

import numpy as np

__version__ = "0.1.0"


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on a single thread.

    sg3d's matrices are at most a few hundred rows by 64 columns. The
    stacked point-encoder matmuls cross OpenBLAS's threading threshold,
    where the thread hand-off costs more than the arithmetic, and they
    slow down sharply while another process keeps a core busy. An
    environment variable set here would come too late whenever numpy was
    imported first, so the library is told directly. A no-op when numpy
    does not ship its own scipy-openblas.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


_pin_blas_threads()
