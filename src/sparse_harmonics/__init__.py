"""Dyadic and sparse machinery with a weighted-inequality experiment harness.

Everything operates on uniform 1-D grids, where a function on the domain
stands for its zero extension.  See the README for the CLI entry points.
"""

__version__ = "0.1.0"
