"""Test-session set-up that must run before numpy is imported.

The drag tests solve many small dense systems.  A multi-threaded BLAS
spins extra threads against the test process on such sizes and makes
the suite's wall time vary, so BLAS runs on one thread unless the
environment already says otherwise.  Subprocesses that tests start
inherit the setting.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
