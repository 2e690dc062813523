"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  To keep
the suite runnable on a laptop, the default node counts are scaled down from
the paper's (hundreds instead of thousands of nodes); set the environment
variable ``CONTINU_BENCH_SCALE=paper`` to run at the paper's sizes (slow —
expect tens of minutes).  The benchmarked callables return the data they
produce, and each benchmark also prints a short summary of the regenerated
rows/series; the assertions in each ``test_bench_fig*`` /
``test_bench_table_theory`` module state the paper's shape they must match.
"""

from __future__ import annotations

import os

#: "small" (default) or "paper".
SCALE = os.environ.get("CONTINU_BENCH_SCALE", "small")


def scaled(small_value, paper_value):
    """Pick the small or paper-scale variant of a parameter."""
    return paper_value if SCALE == "paper" else small_value
