"""The single-lamp solver kernel: ``solve_single`` solves one problem, the
batch of one of ``_ref.solve_batch``, the one numpy implementation.
Callers reach it through this module (``_kernels.solve_single``), so it can
be wrapped here.
"""

from ._ref import solve_single

__all__ = ["solve_single"]
