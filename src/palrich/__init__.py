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
    episturmian_word,
    fixed_point,
    is_palindrome,
    morphic_image,
    palindromic_closure,
    periodic_word,
    reverse,
    s_word,
)
from .factors import (
    CompleteReturns,
    FactorIndex,
    SpecialFactorReport,
    build_index,
    complete_returns,
    complexity_difference_identity,
    factor_complexity,
    finite_complexity,
    image_factor_sets,
    is_closed_under_reversal,
    morphic_factor_sets,
    periodic_factor_sets,
    recurrence_probe,
    s_word_factor_sets,
    special_factors,
)
from .palindromes import (
    Eertree,
    RichnessReport,
    check_alternation,
    check_v2reverse,
    is_rich_by_count,
    is_rich_by_returns,
    is_rich_incremental,
    longest_palindromic_suffix,
    palindromic_complexity,
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
    path_label,
    path_reversal_facts,
    reduce,
    reduced_graphs,
    specials_by_order,
    super_reduce,
)
from .analysis import (
    ComplexityProfile,
    TheoremReport,
    Theorem2Report,
    cassaigne_formula_check,
    corollary_eventual_period2,
    corollary_periodicity,
    equality_II_check,
    inequality_bound_check,
    profile,
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
    verify_c_identity,
)
from .generators import REGISTRY, WordFamily, get_family

__version__ = "0.1.0"
