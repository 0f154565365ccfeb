"""The single-lamp solver kernel: ``solve_batch`` solves many problems at
once and ``solve_single`` is its batch of one, both from ``_ref``, the one
numpy implementation.  Callers reach ``solve_single`` through this module
(``_kernels.solve_single``), so it can be wrapped here.
"""

from ._ref import solve_batch, solve_single

__all__ = ["solve_single", "solve_batch"]
