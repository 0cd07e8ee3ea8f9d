import glob
import os
import subprocess
import sys

import numpy as np
import pytest

import sg3d

NUMPY_LIBS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
OPENBLAS = glob.glob(os.path.join(NUMPY_LIBS, "libscipy_openblas64_*.so"))

PROBE = f"""
import ctypes, numpy
lib = ctypes.CDLL({OPENBLAS[0] if OPENBLAS else ''!r})
before = lib.scipy_openblas_get_num_threads64_()
import sg3d
print(before, lib.scipy_openblas_get_num_threads64_())
"""


@pytest.mark.skipif(not OPENBLAS, reason="numpy does not ship its own scipy-openblas")
def test_import_pins_openblas_to_one_thread():
    # numpy is imported first, as in the test modules, so an environment
    # variable set by sg3d would come too late; the pin must still hold
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.path.dirname(os.path.dirname(sg3d.__file__)))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert int(out[1]) == 1, out
