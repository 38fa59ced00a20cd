"""Theorem-level verifiers tying factors, palindromes and graphs together.

The central object is the complexity profile: aligned arrays C(0..N+1) and
P(0..N+1) with the per-order slack

    slack(n) = (C(n+1) - C(n) + 2) - (P(n) + P(n+1)),

which is zero at every order exactly for rich words among those whose factor
set is closed under reversal.  The experiment harness cross-checks three
verdicts per word: richness, the slack being identically zero, and the
graph-side conditions (palindromic connecting paths, super-reduced graph a
tree).  A disagreement is a discrepancy, unless only the sample is non-rich:
its defect may show only past the checked orders, so that run is
inconclusive (see ``TheoremReport.discrepancies``).

Every generator family has exact factor sets, so C, P, reversal closure
and the graphs of every order describe the infinite word itself, and its
index holds no prefix of it.  Only the richness verdicts read a finite
prefix, the sample of ``WordFamily.sample`` (at most 4,096 letters): the
incremental scan of its eertree and the eertree-free complete-return sweep
judge that same word and must agree on every fact they report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    from .rauzy import ReducedRauzyGraph


@dataclass(frozen=True)
class ComplexityProfile:
    """Aligned complexity arrays with per-order equality slack."""

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
    P = tuple(idx.palindrome_count(n) for n in range(n_max + 2))
    slack = tuple(
        (C[n + 1] - C[n] + 2) - (P[n] + P[n + 1]) for n in range(n_max + 1)
    )
    closed, witness = is_closed_under_reversal(idx, n_max + 1)
    return ComplexityProfile(n_max, C, P, slack, closed, witness)


# -- Theorem for finite palindromes -----------------------------------------


@dataclass(frozen=True)
class Theorem2Report:
    word: Word
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
    return Theorem2Report(w, count_ok, returns_ok, identity_ok, tuple(rows))


# -- Theorem experiment on infinite-word generators --------------------------


@dataclass(frozen=True)
class OrderRecord:
    """The verdicts of one order n, as the reports read them."""

    n: int
    C_n: int
    P_n: int
    slack: int
    equality: bool
    periodic_route: bool
    condition1: bool
    condition2: bool

    @property
    def conditions(self) -> bool:
        return self.condition1 and self.condition2


@dataclass(frozen=True)
class RichnessVerdicts:
    """The eertree and the complete-return verdicts on one sample.

    A prefix adds a new palindrome exactly when its longest palindromic
    suffix is new (Droubay, Justin and Pirillo, TCS 2001), and that is what
    each sweep tests per position: the eertree by creating a node, the
    returns sweep by finding no earlier occurrence (an unmet hash or a
    failed search).  So on the same word both report the same richness,
    first failing prefix and defect.
    """

    incremental: RichnessReport
    by_returns: RichnessReport

    @property
    def agree(self) -> bool:
        a, b = self.incremental, self.by_returns
        return (a.rich, a.first_violation_prefix, a.defect) == (
            b.rich, b.first_violation_prefix, b.defect
        )

    @property
    def rich(self) -> bool:
        return self.incremental.rich


@dataclass(frozen=True)
class TheoremReport:
    """Cross-checked verdict triangle for one word generator."""

    description: str
    n_max: int
    prefix_length: int
    closure_ok: bool
    closure_witness: Word | None
    richness: RichnessVerdicts
    orders: tuple[OrderRecord, ...]
    rich_expected: bool | None = None

    @property
    def equality_all(self) -> bool:
        return all(r.equality for r in self.orders)

    @property
    def conditions_all(self) -> bool:
        return all(r.conditions for r in self.orders)

    @property
    def triangle_consistent(self) -> bool:
        return self.richness.rich == self.equality_all == self.conditions_all

    def discrepancies(self) -> tuple[str, ...]:
        """Hard failures; an open triangle counts only on a reversal-closed word.

        Nor does it count when only the sample is non-rich: the sample's
        non-rich factor is a factor of the word, so by the theorem the
        equality fails at some order, which may lie past n_max.
        """
        problems = []
        if not self.richness.agree:
            problems.append(
                "richness checkers disagree: "
                f"incremental={self.richness.incremental.rich} "
                f"returns={self.richness.by_returns.rich}"
            )
        past_n_max = not self.richness.rich and self.equality_all and self.conditions_all
        if self.closure_ok and not self.triangle_consistent and not past_n_max:
            problems.append(
                f"verdict triangle open: rich={self.richness.rich} "
                f"equality={self.equality_all} conditions={self.conditions_all}"
            )
        if self.closure_ok:
            for r in self.orders:
                if r.equality != r.conditions:
                    problems.append(
                        f"order {r.n}: equality={r.equality} but "
                        f"conditions=({r.condition1},{r.condition2})"
                    )
        if self.rich_expected is not None and self.richness.rich != self.rich_expected:
            problems.append(
                f"expected rich={self.rich_expected}, observed {self.richness.rich}"
            )
        return tuple(problems)


def _order_record(rg: ReducedRauzyGraph, prof: ComplexityProfile) -> OrderRecord:
    from . import rauzy

    n = rg.n
    periodic_route = rg.no_specials
    if periodic_route:
        # No specials means C(n+1) = C(n); equality then says
        # P(n) + P(n+1) = 2, the purely periodic signature.
        cond1 = cond2 = prof.P[n] + prof.P[n + 1] == 2
    else:
        sg = rauzy.super_reduce(rg)
        cond1, _ = rauzy.palindromic_path_condition(rg)
        cond2 = rauzy.is_tree(sg)
    return OrderRecord(
        n=n,
        C_n=prof.C[n],
        P_n=prof.P[n],
        slack=prof.slack[n],
        equality=prof.equality(n),
        periodic_route=periodic_route,
        condition1=cond1,
        condition2=cond2,
    )


def theorem1_experiment(
    family: WordFamily,
    n_max: int = 30,
    *,
    prefix_cap: int | None = None,
) -> TheoremReport:
    """Run the full verdict triangle for one word family.

    C, P, reversal closure and the graphs read :meth:`WordFamily.index`,
    built from the exact factor set alone.  Richness runs on the family's
    sample of ``prefix_cap`` letters, at most (and by default)
    ``generators.RICHNESS_SAMPLE_CAP`` (:meth:`WordFamily.sample`): the
    incremental scan of its eertree and the eertree-free complete-return
    sweep both read the whole sample, so a defect past it goes unseen.  The
    reduced Rauzy graphs of orders 0..n_max come from one pass of
    :func:`rauzy.reduced_graphs`, each evolved from the one before; no order
    builds its full Rauzy graph.  Each order super-reduces its graph and
    records only the verdicts the reports and
    :meth:`TheoremReport.discrepancies` read.
    """
    from . import rauzy

    idx = family.index(n_max)
    prof = profile_from_index(idx)
    closed, witness = prof.reversal_closed, prof.closure_witness
    sample = family.sample() if prefix_cap is None else family.sample(prefix_cap)
    richness = RichnessVerdicts(
        incremental=is_rich_incremental(Eertree.build(sample)),
        by_returns=is_rich_by_returns(sample),
    )
    orders = tuple(
        _order_record(rg, prof) for rg in rauzy.reduced_graphs(idx)
    )
    return TheoremReport(
        description=family.describe(),
        n_max=n_max,
        prefix_length=len(sample),
        closure_ok=closed,
        closure_witness=witness,
        richness=richness,
        orders=orders,
        rich_expected=family.rich_expected,
    )
