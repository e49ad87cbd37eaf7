"""Desk-scale numerical experiments with reproducing kernels and weighted
composition operators: certified section norms, positivity certificates, and
reproducible batch experiments.

Import from the submodules (``kernelcomp.series``, ``kernelcomp.operators``,
``kernelcomp.kernels``, ``kernelcomp.dbr``, ``kernelcomp.ball``,
``kernelcomp.sampling``, ``kernelcomp.cli``); the package root keeps only
``__version__`` and ``BallPoly``.
"""

__version__ = "0.1.0"

from .series import BallPoly  # noqa: F401
