"""Statements of the paper and of its background that the tests assert.

Each function checks one statement on concrete data read through the
package's own routes: factor indexes, Rauzy graphs, complexity profiles and
the counting formulas.  No command runs them, so they live beside the
oracles.  A helper that reads positions takes the word's bytes.
"""

from collections import Counter
from dataclasses import dataclass

from palrich.counting import sturmian_count, sturmian_palindrome_count
from palrich.errors import NotApplicable, OutOfRange, PalrichError
from palrich.factors import FactorIndex, morphic_factor_sets
from palrich.words import Morphism, Word

from oracles import occurrences


class FactorAbsent(PalrichError):
    """The given word does not occur as a factor of the source."""


class PalindromicInput(PalrichError):
    """The operation is defined only for non-palindromic inputs."""


class NotAWalk(PalrichError):
    """The vertex sequence is not a walk in the graph."""


class WindowTooShort(PalrichError):
    """The computed range is too short for the requested detection."""


# -- factors -------------------------------------------------------------------


def complexity_difference_identity(idx, n: int) -> tuple[int, int]:
    """C(n+1)-C(n) versus the degree sum over special factors.

    Returns (C(n+1)-C(n), sum over special v of deg+(v)-1).  The two agree
    whenever every length-n factor extends to the right inside the index,
    which holds for the exact sets of an infinite word; in a finite word the
    final length-n suffix may have no right extension.
    """
    if not 0 <= n < idx.n_max:
        raise OutOfRange(f"identity needs n < n_max = {idx.n_max}")
    lhs = idx.complexity(n + 1) - idx.complexity(n)
    right = idx.right_extensions(n)
    left = idx.left_extensions(n)
    rhs = sum(
        len(right[u]) - 1
        for u in set(idx.factors(n))
        if len(right[u]) >= 2 or len(left[u]) >= 2
    )
    return lhs, rhs


def recurrence_probe(data: bytes, n: int, min_occurrences: int) -> bool:
    """True iff every factor of data of length <= n occurs min_occurrences times.

    A necessary-condition probe on a finite prefix, not a proof of
    recurrence of the generated infinite word.
    """
    for m in range(1, n + 1):
        counts = Counter(data[i : i + m] for i in range(len(data) - m + 1))
        if any(c < min_occurrences for c in counts.values()):
            return False
    return True


# -- spans between a factor and its reversal -----------------------------------


def check_v2reverse(data: bytes, v: bytes) -> tuple[bool, bytes | None]:
    """Spans from v to the next reversal of v must be palindromes.

    Scans occurrences of v and of its reversal in position order; every span
    from an occurrence of v to the next following occurrence of the reversal,
    with neither word occurring strictly between, is checked.  For
    palindromic v this is exactly complete-return checking.  Returns the
    first failing span as witness.
    """
    if data.find(v) < 0:
        raise FactorAbsent(f"{v!r} does not occur in the source")
    r = v[::-1]
    if v == r:
        occ = occurrences(data, v)
        for a, b in zip(occ, occ[1:]):
            span = data[a : b + len(v)]
            if span != span[::-1]:
                return False, span
        return True, None
    events = sorted([(pos, 0) for pos in occurrences(data, v)]
                    + [(pos, 1) for pos in occurrences(data, r)])
    for (pos_a, kind_a), (pos_b, kind_b) in zip(events, events[1:]):
        if kind_a == 0 and kind_b == 1:
            span = data[pos_a : pos_b + len(v)]
            if span != span[::-1]:
                return False, span
    return True, None


def check_alternation(data: bytes, v: bytes) -> bool:
    """Occurrences of a non-palindromic v and its reversal must alternate."""
    if v == v[::-1]:
        raise PalindromicInput("alternation applies to non-palindromic factors")
    if data.find(v) < 0:
        raise FactorAbsent(f"{v!r} does not occur in the source")
    events = sorted([(pos, 0) for pos in occurrences(data, v)]
                    + [(pos, 1) for pos in occurrences(data, v[::-1])])
    return all(a[1] != b[1] for a, b in zip(events, events[1:]))


# -- complexity profiles --------------------------------------------------------


def inequality_bound_check(p) -> bool:
    """Slack is non-negative at every order, given reversal closure."""
    if p.reversal_closed is not True:
        raise NotApplicable(
            "the two-sided palindromic complexity bound assumes reversal closure"
        )
    return all(s >= 0 for s in p.slack)


def corollary_periodicity(p, periodic_hint: bool) -> bool:
    """P(n)+P(n+1) = 2 happens somewhere iff the word is periodic.

    The hint states the known periodicity of the generator; the check
    validates the biconditional on the computed range.
    """
    hit = any(p.P[n] + p.P[n + 1] == 2 for n in range(p.n_max + 1))
    return hit == periodic_hint


def corollary_eventual_period2(p) -> bool:
    """Eventual 2-periodicity of P must match eventual affinity of C.

    Both are detected on the computed window: the trailing segment where
    P(n) = P(n+2), and the trailing segment of constant C(n+1) - C(n), each
    required to span at least four orders to count as "eventual".
    """
    if p.n_max < 8:
        raise WindowTooShort("need n_max >= 8 to judge eventual behavior")
    start_p = p.n_max - 1
    while start_p > 0 and p.P[start_p - 1] == p.P[start_p + 1]:
        start_p -= 1
    p_periodic = start_p <= p.n_max - 4
    diffs = [p.C[n + 1] - p.C[n] for n in range(p.n_max + 1)]
    start_c = len(diffs) - 1
    while start_c > 0 and diffs[start_c - 1] == diffs[start_c]:
        start_c -= 1
    c_affine = start_c <= len(diffs) - 5
    return p_periodic == c_affine


# -- the quadratic-complexity fixed point ---------------------------------------


@dataclass(frozen=True)
class CassaigneRow:
    n: int
    c_diff: int
    pal_sum_minus_2: int
    formula_value: int

    @property
    def holds(self) -> bool:
        return self.c_diff == self.pal_sum_minus_2 == self.formula_value


@dataclass(frozen=True)
class CassaigneCheck:
    n_max: int
    rows: tuple[CassaigneRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.rows)


def cassaigne_formula_check(n_max: int = 50) -> CassaigneCheck:
    """Both equalities of the complexity chain for the a -> aab fixed point.

    Checks, for 1 <= n <= n_max,

        P(n) + P(n+1) - 2 = C(n+1) - C(n) = n + 1 - #{k > 0 : 2^k + k - 2 < n}

    with C and P read from an index of the exact morphic factor set (long
    b-runs put the needed factors exponentially deep into the word, out of
    reach of any prefix scan).
    """
    m = Morphism.parse("a->aab,b->b")
    idx = FactorIndex(m.alphabet, morphic_factor_sets(m, "a", n_max + 1))
    C = [idx.complexity(n) for n in range(n_max + 2)]
    P = idx.palindrome_counts()
    rows = []
    for n in range(1, n_max + 1):
        bracket = 0
        k = 1
        while 2**k + k - 2 < n:
            bracket += 1
            k += 1
        rows.append(CassaigneRow(n, C[n + 1] - C[n], P[n] + P[n + 1] - 2, n + 1 - bracket))
    return CassaigneCheck(n_max, tuple(rows))


# -- counting formulas -----------------------------------------------------------


def verify_c_identity(n_max: int) -> bool:
    """p(2n) + p(2n+1) = c(2n+1) - c(2n) + 2 for all n up to n_max."""
    if n_max < 1:
        raise OutOfRange("n_max must be at least 1")
    for n in range(n_max + 1):
        lhs = sturmian_palindrome_count(2 * n) + sturmian_palindrome_count(2 * n + 1)
        rhs = sturmian_count(2 * n + 1) - sturmian_count(2 * n) + 2
        if lhs != rhs:
            return False
    return True


# -- Rauzy graphs ----------------------------------------------------------------


def is_strongly_connected(g) -> bool:
    if not g.vertices:
        return False
    fwd = {v: set() for v in g.vertices}
    back = {v: set() for v in g.vertices}
    for e in g.edges:
        fwd[e[:-1]].add(e[1:])
        back[e[1:]].add(e[:-1])
    for adj in (fwd, back):
        seen = {g.vertices[0]}
        stack = [g.vertices[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(g.vertices):
            return False
    return True


def _walk_label(vertices, g) -> bytes:
    """The label of a walk in g; every edge must be an out-edge of its start.

    The edges out of a are a + c for the letters c of ``g.right[a]``.
    """
    if not vertices:
        raise NotAWalk("a walk needs at least one vertex")
    for v in vertices:
        if v not in g.right:
            raise NotAWalk(f"{v!r} is not a vertex of the order-{g.n} graph")
    label = bytearray(vertices[0])
    for a, b in zip(vertices, vertices[1:]):
        if a[1:] != b[:-1]:
            raise NotAWalk(f"vertices {a!r} and {b!r} do not overlap")
        if not b or b[-1] not in g.right[a]:
            raise NotAWalk(f"no edge {a + b[-1:]!r} in the order-{g.n} graph")
        label.append(b[-1])
    return bytes(label)


def path_label(vertices, g):
    """Label of a walk: the first vertex extended by one letter per edge.

    Satisfies both factorizations: first vertex plus trailing letters equals
    leading letters plus last vertex.
    """
    return Word(g.alphabet, _walk_label(tuple(vertices), g))


def path_reversal_facts(g, walk) -> tuple[bool, bool]:
    """(reversal exists in the graph, walk is invariant under reversal).

    The reversal of a walk reverses the vertex order and each vertex word;
    it need not exist when the factor set is not closed under reversal.
    """
    raw = tuple(walk)
    _walk_label(raw, g)  # validates the walk
    mirrored = tuple(v[::-1] for v in reversed(raw))
    try:
        _walk_label(mirrored, g)
    except NotAWalk:
        return False, mirrored == raw
    return True, mirrored == raw
