"""Palindromic structure: the eertree and the richness checks.

The eertree (palindromic tree of Rubinchik and Shur) keeps one node per
distinct palindromic factor plus two roots, and yields in one left-to-right
pass the longest palindromic suffix of every prefix and the count of distinct
palindromes per length: ``Eertree.nodes_by_length`` is P(n) for every n >= 1,
which the finite-palindrome check reads instead of scanning factor sets.  A
word is rich exactly when every position creates a new node.  Both eertree
verdicts, the per-position scan and the palindrome count, read a built tree.
The tree is built in one pass and never changes; the rich-word searches of
:mod:`palrich.counting`, which grow and shrink one word letter by letter,
keep their own arrays in the same layout.

The tree lives in flat lists of ints, not one object per node: lengths,
suffix links, and k transition slots per node, where 0 means "no edge"
because the length -1 root (node 0) is no node's child.  ``build`` walks
the suffix links over a copy of the word with a sentinel letter in front,
so no walk tests its bounds.  The transitions grow by k slots per created
node, so they take (nodes + 2)·k slots, not |w|·k: on the 4,096-letter
richness samples the whole tree takes at most 0.42 MiB under
``tracemalloc``, and on a 65,536-letter prefix 6.5-7.1 MiB.

The complete-return sweep checks richness without the eertree, testing
one return explicitly per letter, and validates the eertree-based
verdicts on the same word.  It reads the longest palindromic suffix of
every prefix from Manacher's algorithm (J. ACM 1975), a linear scan of the
palindrome radius at every centre followed by one monotone pointer over
the centres, and it searches for an earlier occurrence of that suffix only
when the hash of an earlier longest suffix matches: a palindrome first
occurs where it is the longest palindromic suffix (Droubay, Justin and
Pirillo, TCS 2001), so an unmatched hash means a new palindrome.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import Alphabet, Word


class Eertree:
    """Palindromic tree in flat arrays; ``build`` is its one constructor.

    Node 0 is the virtual root of length -1, node 1 the empty root.  Every
    other node is a distinct non-empty palindromic factor of the word,
    numbered in creation order.  ``alphabet`` is the word's alphabet and
    ``data`` its own bytes, not a copy.  ``_len`` and ``_link`` hold each
    node's length and suffix link, and ``node_at`` the longest palindromic
    suffix node of every prefix.  The transitions are one flat list of k
    slots per node (k the alphabet size): ``_trans[node * k + c]`` is the
    child c·node·c, or 0 for no edge, which is unambiguous because node 0
    is never a child.  A created node appends its k empty slots, so the
    list holds (nodes + 2)·k entries however long the word is.
    """

    @classmethod
    def build(cls, w: Word) -> "Eertree":
        """The tree of w in one left-to-right pass.

        The walks read a copy of w with a sentinel in front: ``buf[pos + 1]``
        is letter pos and ``buf[0]`` is k, which no letter equals.  So the
        letter before a palindromic suffix x of w[:pos] is
        ``buf[pos - |x|]``, a suffix spanning all of w[:pos] meets the
        sentinel and never grows, and the length -1 root reads the letter
        being added and always fits; no walk needs a bounds test.
        """
        k = w.alphabet.size
        data = w.data
        buf = bytes((k,)) + data
        length, link, trans = [-1, 0], [0, 0], [0] * (2 * k)
        node_at: list[int] = []
        row = [0] * k
        last = 1
        for pos, c in enumerate(data):
            # The longest palindromic suffix x of w[:pos] that c extends.
            cur = last
            while buf[pos - length[cur]] != c:
                cur = link[cur]
            slot = cur * k + c
            nxt = trans[slot]
            if not nxt:
                nxt = len(length)
                if cur:
                    suffix = link[cur]
                    while buf[pos - length[suffix]] != c:
                        suffix = link[suffix]
                    link.append(trans[suffix * k + c])
                else:
                    link.append(1)
                length.append(length[cur] + 2)
                trans += row
                trans[slot] = nxt
            node_at.append(nxt)
            last = nxt
        t = cls()
        t.alphabet, t.data, t.node_at = w.alphabet, data, node_at
        t._len, t._link, t._trans = length, link, trans
        return t

    def __len__(self):
        return len(self.data)

    @property
    def node_count(self) -> int:
        """Number of distinct non-empty palindromic factors."""
        return len(self._len) - 2

    def nodes_by_length(self) -> dict[int, int]:
        """Count of distinct palindromic factors per positive length."""
        counts: dict[int, int] = {}
        for l in self._len[2:]:
            counts[l] = counts.get(l, 0) + 1
        return counts


class RichnessReport(NamedTuple):
    """Verdict of a richness check with diagnostics.

    ``rich`` holds iff the defect is 0 iff no prefix fails to contribute a
    new palindrome.  When present, ``witness`` is a (palindrome, complete
    return) pair where the return is not a palindrome.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    rich: bool
    first_violation_prefix: int | None
    witness: tuple[Word, Word] | None
    defect: int


def _incremental_witness(t: Eertree, i: int) -> tuple[Word, Word]:
    # At the first violating position the longest palindromic suffix p has an
    # earlier occurrence; the span from the latest one is a complete return
    # to p, and it cannot be a palindrome (it would beat p as a suffix).
    data = t.data
    node = t.node_at[i - 1]
    l = t._len[node]
    p = data[i - l : i]
    start = data.rfind(p, 0, i - 1)
    assert start >= 0
    alpha = t.alphabet
    return Word(alpha, p), Word(alpha, data[start:i])


def is_rich_incremental(t: Eertree) -> RichnessReport:
    """Richness of the tree's word: every position must add a palindrome.

    Nodes are numbered in creation order, so while every position adds one
    the node made at position i is node i + 2, and the first prefix that
    adds none ends at the first i with ``node_at[i] != i + 2``.
    """
    violation = None
    for i, node in enumerate(t.node_at):
        if node != i + 2:
            violation = i + 1
            break
    defect = len(t) - t.node_count
    if violation is None:
        return RichnessReport(True, None, None, defect)
    return RichnessReport(False, violation, _incremental_witness(t, violation), defect)


def _longest_palindromic_suffixes(data: bytes) -> list[int]:
    """q(e), the length of the longest palindromic suffix of data[:e], for e = 1..|data|.

    Manacher's algorithm runs over t, the letters interleaved with a
    separator and closed by two distinct sentinels, so every palindrome of
    the word, of either parity, is an odd palindrome of t centred on a
    letter or a separator.  ``rad[i]`` is the radius of the longest
    palindrome of t centred at i, which is also the length of the word's
    palindrome it covers; a centre inside the rightmost palindrome found so
    far starts from its mirror's radius, so the scan is linear.

    The palindromes around one centre are nested, so a palindrome centred
    at i ends at letter j exactly when i + rad[i] reaches the separator
    2j + 3 after it, and the longest such one has the leftmost such centre.
    A centre that falls short of one end falls short of every later end,
    so one pointer walks the centres left to right over all ends; it never
    passes the centre 2j + 2 of the letter itself, whose radius is at least 1.
    """
    n = len(data)
    t = [-1] * (2 * n + 3)
    t[0], t[-1] = -2, -3
    t[2 : 2 * n + 2 : 2] = data
    rad = [0] * len(t)
    centre = right = 0
    for i in range(1, 2 * n + 2):
        r = min(right - i, rad[2 * centre - i]) if i < right else 0
        while t[i + r + 1] == t[i - r - 1]:
            r += 1
        rad[i] = r
        if i + r > right:
            centre, right = i, i + r
    out = []
    i = 1
    for end in range(3, 2 * n + 3, 2):
        while i + rad[i] < end:
            i += 1
        out.append(end - i)
    return out


def is_rich_by_returns(w: Word) -> RichnessReport:
    """Every complete return to a palindrome is a palindrome, in one sweep.

    A complete return to q is a factor that starts and ends with q and holds
    exactly two occurrences of it; each one is named by its final occurrence
    of q.  The sweep walks the end positions e = 1..|w| and checks at each
    only the return to the longest palindromic suffix of w[:e], whose
    length Manacher's algorithm gives for every e in one linear pass
    (``_longest_palindromic_suffixes``).  The return is found by one
    ``rfind`` for the previous occurrence of that palindrome; the
    palindrome is new exactly when there is none, which gives the defect
    and the first violating prefix from the same sweep.

    Checking only the longest suffix loses no failing return.  Let r be a
    non-palindromic complete return to q ending at e where q is not the
    longest palindromic suffix of w[:e], and let q' be the next longer
    palindromic suffix.

    (A) q is a suffix of the palindrome q', hence also its prefix, so q
        ends at e - (|q'| - |q|) as well: the return r starts at or after
        the start of q', and, as r is not a palindrome, it is a proper
        suffix of q'.
    (M) Mirroring q' maps r onto a proper prefix of q', which is a complete
        return to the reversal of q, that is to q, is not a palindrome, and
        starts strictly before r.

    So the earliest-starting failing return to any palindrome q ends at a
    position where q is the longest palindromic suffix, and the sweep
    checks it.  Hence the word is rich iff no checked return fails, and the
    witness, the least (palindrome, start) pair over the checked failures,
    is the lexicographically least palindrome with a non-palindromic
    complete return together with its earliest such return.  No eertree is
    involved, so the verdict is independent of the eertree-based ones.

    Most ``rfind`` calls are skipped by the first-occurrence lemma (Droubay,
    Justin and Pirillo): a palindrome p first occurs ending at a position e
    where it is the longest palindromic suffix of w[:e].  Proof: a longer
    palindromic suffix s of w[:e] has p as a suffix, so, being a
    palindrome, also as a prefix, and p would occur ending at e - |s| + |p|,
    before e.  So the sweep keeps the hashes of the longest suffixes met so
    far, and a longest suffix whose hash is not among them has never
    occurred: it is new, and no ``rfind`` runs.  A hash that is among them
    runs the ``rfind`` as before, so a collision costs one search, never a
    wrong verdict.  Hashes, not the palindromes, are kept: the palindromes
    of a periodic sample would take megabytes.

    The cost is O(|w|) for Manacher, plus a slice and a hash of each longest
    suffix, plus an ``rfind`` for each one met before.  On a 2-vCPU x86 host
    a^4096 takes about 8 ms, and the 4,096-letter richness samples of the
    word families 6-10 ms each; the most is thue-morse's, whose repeated
    suffixes each run a search.
    """
    data = w.data
    seen = set()  # hashes of the longest palindromic suffixes met so far
    new_palindromes = 0
    violation = None
    least = None  # (palindrome, start, end) of the least failing return
    for e, q in enumerate(_longest_palindromic_suffixes(data), 1):
        pal = data[e - q : e]
        key = hash(pal)
        if key not in seen:
            seen.add(key)
            new_palindromes += 1
            continue
        start = data.rfind(pal, 0, e - 1)
        if start < 0:
            new_palindromes += 1
            continue
        if violation is None:
            violation = e
        span = data[start:e]
        if span != span[::-1] and (least is None or (pal, start) < least[:2]):
            least = (pal, start, e)
    witness = None
    if least is not None:
        pal, start, end = least
        witness = (Word(w.alphabet, pal), Word(w.alphabet, data[start:end]))
    return RichnessReport(least is None, violation, witness, len(data) - new_palindromes)


def is_rich_by_count(t: Eertree) -> bool:
    """True iff the tree's word w has |w|+1 distinct palindromes, the empty one included."""
    return t.node_count == len(t)
