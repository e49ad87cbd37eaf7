"""Desk-scale numerical experiments with reproducing kernels and weighted
composition operators: certified section norms, positivity certificates, and
reproducible batch experiments.

Import from the submodules (``kernelcomp.series``, ``kernelcomp.operators``,
``kernelcomp.kernels``, ``kernelcomp.dbr``, ``kernelcomp.ball``,
``kernelcomp.sampling``, ``kernelcomp.cli``); the package root keeps only
``__version__`` and ``BallPoly``.
"""

import os

# one BLAS thread unless set, as some reports' bytes follow the thread count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

from .series import BallPoly  # noqa: E402, F401
