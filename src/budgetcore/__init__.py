"""Core allocations for participatory budgeting.

Solvers for the group-fairness (core) allocation problem over divisible
budgets, brute-force core verification oracles, a saturating-utility heuristic,
a manipulation-resistant randomized mechanism, and vote aggregation/analysis
utilities, plus a batch CLI.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
