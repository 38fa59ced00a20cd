"""Exact counting: totient sums, balanced-word oracles, rich-word tables.

The closed formulas count finite Sturmian words and Sturmian palindromes:

    c(n) = 1 + sum_{i=1..n} (n+1-i) phi(i)
    p(n) = 1 + sum_{i=0..ceil(n/2)-1} phi(n-2i)

Finite Sturmian words are realized for oracle purposes as balanced binary
words, enumerated depth-first; a new letter is checked against the windows
that end at it, since every other window belongs to the balanced prefix.
One search to the top length gives every shorter length as its prefixes.
Rich words have no known counting formula; ``count_rich`` enumerates them
exactly with one depth-first search that counts every length up to n in a
single pass, pruned by the one-new-palindrome-per-letter property, which is
hereditary, so the pruning is sound.  Its oracle ``count_rich_naive`` is one
unpruned sweep over all k^n words, counting every shorter length on the
way.  Both keep the eertree of the current word in their own flat arrays,
laid out like ``Eertree``'s, and share no code.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import OutOfRange, TooLarge, UnsupportedAlphabet
from .words import Alphabet, Word

BALANCED_BUDGET = 22
RICH_BUDGETS = {2: 24, 3: 18, 4: 14}


def totient(i: int) -> int:
    """Euler's phi via trial-division factorization.

    >>> totient(12)
    4
    """
    if i < 1:
        raise OutOfRange("totient is defined for positive integers")
    result = i
    n = i
    d = 2
    while d * d <= n:
        if n % d == 0:
            result -= result // d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        result -= result // n
    return result


def sturmian_count(n: int) -> int:
    """Number of finite Sturmian (balanced binary) words of length n."""
    if n < 0:
        raise OutOfRange("length must be non-negative")
    return 1 + sum((n + 1 - i) * totient(i) for i in range(1, n + 1))


def sturmian_palindrome_count(n: int) -> int:
    """Number of Sturmian palindromes of length n; p(0) = 1 by convention."""
    if n < 0:
        raise OutOfRange("length must be non-negative")
    return 1 + sum(totient(n - 2 * i) for i in range((n + 1) // 2))


def enumerate_balanced(n: int) -> list[Word]:
    """All balanced binary words of length n, in lexicographic order.

    Depth-first with prefix pruning; prefixes of balanced words are
    balanced, so cutting unbalanced prefixes loses nothing.  The search
    keeps, per window length l, the least and greatest a-count lo[l] and
    hi[l] over the windows of the balanced prefix u, and tests uc only on
    the windows that end at the new letter c.  Proof: every other window of
    uc is a window of u, so uc is balanced iff each new window's a-count x
    satisfies hi[l] - 1 <= x <= lo[l] + 1, one test per length.  That is
    O(|u|) per node instead of a sweep of all windows; the bounds a child
    widens are restored when the search backtracks.
    """
    if n < 0:
        raise OutOfRange("length must be non-negative")
    if n > BALANCED_BUDGET:
        raise TooLarge(f"balanced enumeration is budgeted to n <= {BALANCED_BUDGET}")
    alphabet = Alphabet("ab")
    if n == 0:
        return [Word(alphabet)]
    out: list[Word] = []
    prefix = bytearray(n)
    ones = [0] * (n + 1)  # ones[i]: the a-count of prefix[:i]
    lo = [0] * (n + 1)  # lo[l], hi[l]: bounds over the length-l windows
    hi = [0] * (n + 1)

    def dfs(m: int) -> None:
        if m == n:
            out.append(Word(alphabet, bytes(prefix)))
            return
        for c in (0, 1):
            total = ones[m] + (c == 0)
            # The new length-l window is prefix[m + 1 - l : m + 1].
            for l in range(1, m + 1):
                x = total - ones[m + 1 - l]
                if x > lo[l] + 1 or x < hi[l] - 1:
                    break
            else:
                saved = lo[1 : m + 1], hi[1 : m + 1]
                for l in range(1, m + 1):
                    x = total - ones[m + 1 - l]
                    if x < lo[l]:
                        lo[l] = x
                    elif x > hi[l]:
                        hi[l] = x
                lo[m + 1] = hi[m + 1] = ones[m + 1] = total
                prefix[m] = c
                dfs(m + 1)
                lo[1 : m + 1], hi[1 : m + 1] = saved

    dfs(0)
    return out


def balanced_levels(n: int) -> list[set[bytes]]:
    """The balanced binary words of each length 0..n, from one search to n.

    The balanced words of length m <= n are the distinct m-prefixes of
    those of length n.  Proof: prefixes of balanced words are balanced, and
    a balanced word is a factor of a Sturmian word x (Lothaire 2002, Prop.
    2.1.17), so it extends letter by letter to factors of x of every
    length, all balanced since x is.
    """
    words = [w.data for w in enumerate_balanced(n)]
    return [{w[:m] for w in words} for m in range(n + 1)]


def sturmian_palindrome_enumeration_oracle(n: int) -> list[int]:
    """[p(0), ..., p(n)]: the balanced binary palindromes of each length."""
    return [sum(1 for w in level if w == w[::-1]) for level in balanced_levels(n)]


# Alphabet size -> [R(0), ..., R(d)] from the deepest pruned search so far.
_RICH_COUNTS: dict[int, list[int]] = {}


def count_rich(alphabet_size: int, n: int) -> int:
    """Exact number of rich words of length n over the given alphabet.

    One pruned depth-first search counts the rich words of every length up
    to n at once; the counts are cached per alphabet size, so a shorter
    request reads the cache and only a longer one searches again.
    """
    if alphabet_size not in RICH_BUDGETS:
        raise UnsupportedAlphabet("rich-word counting supports alphabets of 2..4")
    if n < 0:
        raise OutOfRange("length must be non-negative")
    if n > RICH_BUDGETS[alphabet_size]:
        raise TooLarge(
            f"rich enumeration over {alphabet_size} letters is budgeted to "
            f"n <= {RICH_BUDGETS[alphabet_size]}"
        )
    counts = _RICH_COUNTS.get(alphabet_size)
    if counts is None or len(counts) <= n:
        counts = _RICH_COUNTS[alphabet_size] = _rich_counts(alphabet_size, n)
    return counts[n]


def _rich_counts(k: int, depth: int) -> list[int]:
    """[R(0), ..., R(depth)] over k letters from one pruned search.

    The search keeps the eertree of the current word in flat arrays.  A word
    is rich iff every prefix adds a new palindrome, so an extension that
    creates no node is cut with its whole subtree.  On a rich path the node
    created by letter i is node i+2 and is the longest palindromic suffix, so
    undoing a letter only clears its one transition.  Richness is preserved
    by letter permutations: the first letter is fixed and the counts of
    non-empty words multiplied by k.
    """
    if depth < 2:
        return [1, k][: depth + 1]
    found = [0] * (depth + 1)
    # buf[i + 1] is letter i; buf[0] is a sentinel no letter equals, so the
    # suffix-link walks need no bounds test (the length -1 root reads the
    # letter being added and always fits).
    buf = bytearray([k]) * (depth + 1)
    length = [-1, 0] + [0] * depth
    link = [0] * (depth + 2)
    trans = [0] * ((depth + 2) * k)  # trans[node * k + c]; 0 = no edge
    letters = range(k)
    # The first letter: node 2 = "a", a child of the length -1 root.
    buf[1] = 0
    length[2] = 1
    link[2] = 1
    trans[0] = 2

    def extend(pos: int) -> None:
        # The word has pos letters; its longest palindromic suffix is node pos+1.
        found[pos] += 1
        to_leaf = pos + 1 == depth
        new = pos + 2
        for c in letters:
            buf[pos + 1] = c
            cur = pos + 1
            while buf[pos - length[cur]] != c:
                cur = link[cur]
            slot = cur * k + c
            if trans[slot]:
                continue
            if to_leaf:
                found[depth] += 1
                continue
            if cur:
                suffix = link[cur]
                while buf[pos - length[suffix]] != c:
                    suffix = link[suffix]
                link[new] = trans[suffix * k + c]
            else:
                link[new] = 1
            length[new] = length[cur] + 2
            trans[slot] = new
            extend(pos + 1)
            trans[slot] = 0

    extend(1)
    return [1] + [f * k for f in found[1:]]


def count_rich_naive(alphabet_size: int, n: int) -> list[int]:
    """Exhaustive oracle: [R_k(0), ..., R_k(n)], the words with |w| + 1 palindromes.

    One unpruned depth-first sweep over all k^n words, with no letter
    symmetry, counting every shorter length on the way.  The sweep keeps the
    eertree of the current word in its own flat arrays, laid out like
    ``Eertree``'s: a sentinel in front of the letters, then per node its
    length, suffix link and k transition slots.  Nodes are numbered by a
    creation counter, so a word of length d with ``nodes`` nodes has
    nodes - 2 distinct non-empty palindromes and is counted when
    nodes == d + 2.  Undoing a letter clears the one slot it filled, if
    any; the counter falls back with the recursion.  It shares no code with
    the pruned search of ``count_rich``.
    """
    if alphabet_size not in RICH_BUDGETS:
        raise UnsupportedAlphabet("rich-word counting supports alphabets of 2..4")
    if n < 0:
        raise OutOfRange("length must be non-negative")
    if n > 16:
        raise TooLarge("the naive sweep is budgeted to n <= 16")
    k = alphabet_size
    counts = [0] * (n + 1)
    # buf[i + 1] is letter i; buf[0] is a sentinel no letter equals, so the
    # suffix-link walks need no bounds test.
    buf = bytearray([k]) * (n + 1)
    length = [-1, 0] + [0] * n
    link = [0] * (n + 2)
    trans = [0] * ((n + 2) * k)  # trans[node * k + c]; 0 = no edge
    letters = range(k)

    def sweep(pos: int, last: int, nodes: int) -> None:
        # The word has pos letters, longest palindromic suffix node last.
        counts[pos] += nodes == pos + 2
        if pos == n:
            return
        for c in letters:
            buf[pos + 1] = c
            cur = last
            while buf[pos - length[cur]] != c:
                cur = link[cur]
            slot = cur * k + c
            child = trans[slot]
            if child:
                sweep(pos + 1, child, nodes)
                continue
            if cur:
                suffix = link[cur]
                while buf[pos - length[suffix]] != c:
                    suffix = link[suffix]
                link[nodes] = trans[suffix * k + c]
            else:
                link[nodes] = 1
            length[nodes] = length[cur] + 2
            trans[slot] = nodes
            sweep(pos + 1, nodes, nodes + 1)
            trans[slot] = 0

    sweep(0, 1, 2)
    return counts


@dataclass(frozen=True)
class CountTable:
    """A counting table keyed by length, with provenance."""

    kind: str  # sturmian | sturmian-palindrome | rich | balanced-oracle
    alphabet_size: int
    values: dict[int, int]
    provenance: str  # formula | enumeration

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "count", "provenance"])
        for n in sorted(self.values):
            writer.writerow([n, self.values[n], self.provenance])
        return buf.getvalue()

    def to_dict(self) -> dict:
        """The JSON payload, in its key order."""
        return {
            "kind": self.kind,
            "alphabet_size": self.alphabet_size,
            "provenance": self.provenance,
            "values": [
                {"n": n, "count": self.values[n]} for n in sorted(self.values)
            ],
        }


def sturmian_table(n_max: int) -> CountTable:
    return CountTable(
        "sturmian",
        2,
        {n: sturmian_count(n) for n in range(n_max + 1)},
        "formula",
    )


def sturmian_palindrome_table(n_max: int) -> CountTable:
    return CountTable(
        "sturmian-palindrome",
        2,
        {n: sturmian_palindrome_count(n) for n in range(n_max + 1)},
        "formula",
    )


def balanced_oracle_table(n_max: int) -> CountTable:
    return CountTable(
        "balanced-oracle",
        2,
        dict(enumerate(map(len, balanced_levels(n_max)))),
        "enumeration",
    )


def rich_table(alphabet_size: int, n_max: int) -> CountTable:
    # Asking for n_max first runs the one search; the shorter lengths read
    # its cache.
    top = count_rich(alphabet_size, n_max)
    values = {n: count_rich(alphabet_size, n) for n in range(n_max)}
    values[n_max] = top
    return CountTable("rich", alphabet_size, values, "enumeration")
