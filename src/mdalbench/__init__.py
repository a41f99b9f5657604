"""Multi-domain active learning benchmark engine."""

import os

# No matrix here is large enough for a second BLAS thread to pay, and an idle
# OpenBLAS helper thread spins on CPU the program never uses. The BLAS
# libraries read these once, when numpy loads them, so this only takes
# effect when mdalbench is imported before numpy; a value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
