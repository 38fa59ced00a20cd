"""Theorem-level verifiers tying factors, palindromes and graphs together.

The central object is the complexity profile: aligned arrays C(0..N+1) and
P(0..N+1) with the per-order slack

    slack(n) = (C(n+1) - C(n) + 2) - (P(n) + P(n+1)),

which is zero at every order exactly for rich words among those whose factor
set is closed under reversal.  The experiment harness cross-checks three
verdicts per word, which ``TheoremReport`` holds side by side: richness,
the slack being identically zero, and the graph-side conditions
(palindromic connecting paths, super-reduced graph a tree).  A
disagreement is a discrepancy, unless only the sample is non-rich: its
defect may show only past the checked orders, so that run is inconclusive
(see ``TheoremReport.discrepancies``).

Every generator family has exact factor sets, so C, P, reversal closure
and the graphs of every order describe the infinite word itself, and its
index holds no prefix of it.  Only the richness verdicts read a finite
prefix, the sample of ``WordFamily.sample`` (at most 4,096 letters): the
incremental scan of its eertree and the eertree-free complete-return sweep
judge that same word and must agree on every fact they report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import NotAPalindrome
from .factors import FactorIndex, finite_complexity, is_closed_under_reversal
from .palindromes import (
    Eertree,
    RichnessReport,
    is_rich_by_count,
    is_rich_by_returns,
    is_rich_incremental,
)
from .words import Word

# Only theorem1_experiment and _order_record run rauzy, and they import it
# themselves, so `verify --word` runs neither rauzy nor generators.
if TYPE_CHECKING:
    from .generators import WordFamily
    from .rauzy import CarriedGraph


class ComplexityProfile(NamedTuple):
    """Aligned complexity arrays with per-order equality slack.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    n_max: int
    C: tuple[int, ...]  # lengths 0..n_max+1
    P: tuple[int, ...]
    slack: tuple[int, ...]  # orders 0..n_max
    reversal_closed: bool | None
    closure_witness: Word | None

    def equality(self, n: int) -> bool:
        return self.slack[n] == 0


def profile_from_index(idx: FactorIndex) -> ComplexityProfile:
    """Profile of every order 0..idx.n_max, read from the index.

    C and P come from the index's sorted windows, reversal closure from its
    one derived set F_{n_max+1}.
    """
    n_max = idx.n_max
    C = tuple(idx.complexity(n) for n in range(n_max + 2))
    P = tuple(idx.palindrome_counts())
    slack = tuple(
        (C[n + 1] - C[n] + 2) - (P[n] + P[n + 1]) for n in range(n_max + 1)
    )
    closed, witness = is_closed_under_reversal(idx)
    return ComplexityProfile(n_max, C, P, slack, closed, witness)


# -- Theorem for finite palindromes -----------------------------------------


class Theorem2Report(NamedTuple):
    """The three richness verdicts on a finite palindrome, with the identity rows.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    count_ok: bool
    returns_ok: bool
    identity_ok: bool
    identity_rows: tuple[tuple[int, int, int], ...]  # (i, lhs, rhs)

    @property
    def agree(self) -> bool:
        return self.count_ok == self.returns_ok == self.identity_ok


def theorem2_check(w: Word) -> Theorem2Report:
    """Equivalence of the three richness properties on a finite palindrome.

    i) the word contains |w|+1 distinct palindromes; ii) complete returns to
    palindromic factors are palindromes; iii) P(i)+P(i+1) = C(i+1)-C(i)+2
    for 0 <= i <= |w|, with C and P of the finite word and both counting 0
    at length |w|+1.

    One eertree of w gives i) and P per length, with P(0) = 1 for the empty
    word.  C(0..|w|) comes from the suffix array and LCP array of w
    (:func:`finite_complexity`), so no per-length factor set is built.  The
    complete-return sweep builds no tree and stays the independent verdict
    for ii).
    """
    if not w.is_palindrome():
        raise NotAPalindrome(f"{w!r} is not a palindrome")
    tree = Eertree.build(w)
    count_ok = is_rich_by_count(tree)
    returns_ok = is_rich_by_returns(w).rich
    m = len(w)
    C = finite_complexity(w) + [0]
    by_length = tree.nodes_by_length()
    P = [1] + [by_length.get(i, 0) for i in range(1, m + 1)] + [0]
    rows = []
    identity_ok = True
    for i in range(m + 1):
        lhs = P[i] + P[i + 1]
        rhs = C[i + 1] - C[i] + 2
        rows.append((i, lhs, rhs))
        if lhs != rhs:
            identity_ok = False
    return Theorem2Report(count_ok, returns_ok, identity_ok, tuple(rows))


# -- Theorem experiment on infinite-word generators --------------------------


class OrderRecord(NamedTuple):
    """The graph-side verdicts of one order n.

    C(n), P(n), the slack and the equality of order n are read from the
    report's profile (``TheoremReport.profile``), not copied here.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    n: int
    periodic_route: bool
    condition1: bool
    condition2: bool

    @property
    def conditions(self) -> bool:
        return self.condition1 and self.condition2


class TheoremReport(NamedTuple):
    """Cross-checked verdict triangle for one word generator.

    The three legs are siblings: ``rich``, ``equality_all`` and
    ``conditions_all``.  C, P, the slack, n_max and the reversal closure
    are read from ``profile``, the profile of the family's index;
    ``orders`` holds the graph-side verdicts of its orders 0..n_max.

    ``incremental`` and ``by_returns`` are the eertree and the
    complete-return verdicts on the one sample.  A prefix adds a new
    palindrome exactly when its longest palindromic suffix is new
    (Droubay, Justin and Pirillo, TCS 2001), and that is what each sweep
    tests per position: the eertree by creating a node, the returns sweep
    by finding no earlier occurrence (an unmet hash or a failed search).
    So on the same word both report the same richness, first failing
    prefix and defect (``sweeps_agree``).

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    description: str
    prefix_length: int
    profile: ComplexityProfile
    incremental: RichnessReport
    by_returns: RichnessReport
    orders: tuple[OrderRecord, ...]
    rich_expected: bool | None = None

    @property
    def rich(self) -> bool:
        return self.incremental.rich

    @property
    def sweeps_agree(self) -> bool:
        a, b = self.incremental, self.by_returns
        return (a.rich, a.first_violation_prefix, a.defect) == (
            b.rich, b.first_violation_prefix, b.defect
        )

    @property
    def equality_all(self) -> bool:
        return all(s == 0 for s in self.profile.slack)

    @property
    def conditions_all(self) -> bool:
        return all(r.conditions for r in self.orders)

    @property
    def triangle_consistent(self) -> bool:
        return self.rich == self.equality_all == self.conditions_all

    def discrepancies(self) -> tuple[str, ...]:
        """Hard failures; an open triangle counts only on a reversal-closed word.

        Nor does it count when only the sample is non-rich: the sample's
        non-rich factor is a factor of the word, so by the theorem the
        equality fails at some order, which may lie past n_max.

        The known richness counts only where the sample can refute it: a rich
        word has no non-rich prefix, but a non-rich word has rich prefixes.
        """
        problems = []
        if not self.sweeps_agree:
            problems.append(
                "richness checkers disagree: "
                f"incremental={self.incremental.rich} "
                f"returns={self.by_returns.rich}"
            )
        past_n_max = not self.rich and self.equality_all and self.conditions_all
        closed = self.profile.reversal_closed
        if closed and not self.triangle_consistent and not past_n_max:
            problems.append(
                f"verdict triangle open: rich={self.rich} "
                f"equality={self.equality_all} conditions={self.conditions_all}"
            )
        if closed:
            for r in self.orders:
                equality = self.profile.equality(r.n)
                if equality != r.conditions:
                    problems.append(
                        f"order {r.n}: equality={equality} but "
                        f"conditions=({r.condition1},{r.condition2})"
                    )
        if self.rich_expected and not self.rich:
            problems.append("expected rich=True, observed False")
        return tuple(problems)


def _order_record(cg: CarriedGraph, prof: ComplexityProfile) -> OrderRecord:
    from . import rauzy

    n = cg.n
    periodic_route = not cg.vertices
    if periodic_route:
        # No specials means C(n+1) = C(n); equality then says
        # P(n) + P(n+1) = 2, the purely periodic signature.
        cond1 = cond2 = prof.P[n] + prof.P[n + 1] == 2
    else:
        cond1 = rauzy.palindromic_path_condition(cg)
        cond2 = rauzy.is_tree(cg)
    return OrderRecord(n, periodic_route, cond1, cond2)


def theorem1_experiment(
    family: WordFamily,
    n_max: int,
    *,
    prefix_cap: int | None = None,
) -> TheoremReport:
    """Run the full verdict triangle for one word family.

    C, P, reversal closure and the graphs read :meth:`WordFamily.index`,
    built from the exact factor set alone.  Richness runs on the family's
    sample of ``prefix_cap`` letters, at most (and by default)
    ``generators.RICHNESS_SAMPLE_CAP`` (:meth:`WordFamily.sample`): the
    incremental scan of its eertree and the eertree-free complete-return
    sweep both read the whole sample, so a defect past it goes unseen; the
    report keeps both verdicts.  The reduced Rauzy graphs of orders
    0..n_max come from one pass of :func:`rauzy.carried_graphs`, each
    carried from the one before; no order builds its full Rauzy graph or
    its super-reduced graph.  Each order reads both conditions off the
    carried counts and records only the verdicts the reports and
    :meth:`TheoremReport.discrepancies` read.
    """
    from . import rauzy

    idx = family.index(n_max)
    prof = profile_from_index(idx)
    sample = family.sample(prefix_cap)
    incremental = is_rich_incremental(Eertree.build(sample))
    by_returns = is_rich_by_returns(sample)
    orders = tuple(
        _order_record(cg, prof) for cg in rauzy.carried_graphs(idx, prof.reversal_closed)
    )
    return TheoremReport(
        family.describe(), len(sample), prof, incremental, by_returns, orders,
        family.rich_expected,
    )
