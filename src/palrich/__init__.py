"""palrich: palindromic richness, factor complexity, and Rauzy graph toolkit.

A word is rich when it packs the maximum number of distinct palindromic
factors, one new palindrome per letter.  This package builds the exact
machinery around that notion: factor indices with per-length complexity,
palindromic trees, the three Rauzy graph tiers, verdict experiments for the
identity P(n) + P(n+1) = C(n+1) - C(n) + 2, and exact counting tables.
"""

from .words import (
    Alphabet,
    BINARY,
    TERNARY,
    Morphism,
    Word,
    fixed_point,
    morphic_image,
    periodic_word,
    s_word,
)
from .factors import (
    FactorIndex,
    build_index,
    finite_complexity,
    image_factor_sets,
    is_closed_under_reversal,
    morphic_factor_sets,
    periodic_factor_sets,
    s_word_factor_sets,
)
from .palindromes import (
    Eertree,
    RichnessReport,
    is_rich_by_count,
    is_rich_by_returns,
    is_rich_incremental,
)
from .rauzy import (
    RauzyGraph,
    ReducedRauzyGraph,
    SimplePath,
    SuperReducedRauzyGraph,
    build_rauzy,
    is_tree,
    palindromic_path_condition,
    path_counting_identity,
    reduce,
    reduced_graphs,
    specials_by_order,
    super_reduce,
)
from .analysis import (
    ComplexityProfile,
    TheoremReport,
    Theorem2Report,
    profile_from_index,
    theorem1_experiment,
    theorem2_check,
)
from .counting import (
    CountTable,
    count_rich,
    enumerate_balanced,
    sturmian_count,
    sturmian_palindrome_count,
    sturmian_palindrome_enumeration_oracle,
    totient,
)
from .generators import REGISTRY, WordFamily, get_family

__version__ = "0.1.0"
