"""Drivers that regenerate the paper's tables and figures; used by the
``april`` CLI and the tests that hold the paper's claims.

The grid-shaped drivers (Table 3, the speedup curves) submit their
cells through the :mod:`repro.exp` experiment engine: parallel workers,
a content-addressed result cache, and typed failed cells.
"""

from repro.harness.speedup import render_speedup, run_speedup
from repro.harness.table3 import render_table3, run_table3

__all__ = ["render_speedup", "render_table3", "run_speedup", "run_table3"]
