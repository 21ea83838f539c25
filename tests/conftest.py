"""Pin the BLAS thread pools to one thread for the test run.

The tests multiply small matrices, where extra BLAS threads add CPU time
and no speed.  The variables must be set before numpy is first imported,
which is why they live here.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
