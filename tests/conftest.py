"""Test-session set-up: BLAS runs one thread.

preflab's matrices are small, so a second BLAS thread only spins, and a
spinning thread makes wall-clock budgets such as A7's depend on whatever
else the machine runs. pytest loads this file before any test module
imports numpy; a value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
