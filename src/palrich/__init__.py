"""palrich: palindromic richness, factor complexity, and Rauzy graph toolkit.

A word is rich when it packs the maximum number of distinct palindromic
factors, one new palindrome per letter.  This package builds the exact
machinery around that notion: factor indices with per-length complexity,
palindromic trees, the three Rauzy graph tiers, verdict experiments for the
identity P(n) + P(n+1) = C(n+1) - C(n) + 2, and exact counting tables.
"""

__version__ = "0.1.0"
