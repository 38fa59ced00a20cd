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
verdicts on the same word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Alphabet, Word


class Eertree:
    """Palindromic tree in flat arrays, made by ``build``.

    Node 0 is the virtual root of length -1, node 1 the empty root.  Every
    other node is a distinct non-empty palindromic factor of the word,
    numbered in creation order.  ``_len`` and ``_link`` hold each node's
    length and suffix link, and ``node_at`` the longest palindromic suffix
    node of every prefix.  The transitions are one flat list of k slots per
    node (k the alphabet size): ``_trans[node * k + c]`` is the child
    c·node·c, or 0 for no edge, which is unambiguous because node 0 is never
    a child.  A created node appends its k empty slots, so the list holds
    (nodes + 2)·k entries however long the word is.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._k = alphabet.size
        self.data = bytearray()
        self._len = [-1, 0]
        self._link = [0, 0]
        self._trans = [0] * (2 * self._k)
        self.node_at: list[int] = []  # per position: longest palindromic suffix node

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
        t = cls(w.alphabet)
        k = t._k
        data = w.data
        t.data[:] = data
        buf = bytes((k,)) + data
        length, link, trans = t._len, t._link, t._trans
        node_at = t.node_at
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


@dataclass(frozen=True)
class RichnessReport:
    """Verdict of a richness check with diagnostics.

    ``rich`` holds iff the defect is 0 iff no prefix fails to contribute a
    new palindrome.  When present, ``witness`` is a (palindrome, complete
    return) pair where the return is not a palindrome.
    """

    rich: bool
    first_violation_prefix: int | None
    witness: tuple[Word, Word] | None
    defect: int


def _incremental_witness(t: Eertree, i: int) -> tuple[Word, Word]:
    # At the first violating position the longest palindromic suffix p has an
    # earlier occurrence; the span from the latest one is a complete return
    # to p, and it cannot be a palindrome (it would beat p as a suffix).
    data = bytes(t.data)
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


def is_rich_by_returns(w: Word) -> RichnessReport:
    """Every complete return to a palindrome is a palindrome, in one sweep.

    A complete return to q is a factor that starts and ends with q and holds
    exactly two occurrences of it; each one is named by its final occurrence
    of q.  The sweep walks the end positions e = 1..|w| and keeps S_e, the
    lengths of the palindromic suffixes of w[:e] in descending order:
    L is in S_e iff L-2 is in S_{e-1} and w[e-L] = w[e-1], where the empty
    word (length 0) and a root of length -1 always belong to S_{e-1}.  At
    each e only the return to the longest element of S_e is checked, by one
    ``rfind`` for the previous occurrence of that palindrome.  The longest
    palindromic suffix is new exactly when that ``rfind`` fails, which gives
    the defect and the first violating prefix from the same sweep.

    Checking only the longest suffix loses no failing return.  Let r be a
    non-palindromic complete return to q ending at e where q is not the
    longest element of S_e, and let q' be the next longer element.

    (A) q is a suffix of the palindrome q', hence also its prefix, so q
        ends at e - (|q'| - |q|) as well: the return r starts at or after
        the start of q', and, as r is not a palindrome, it is a proper
        suffix of q'.
    (M) Mirroring q' maps r onto a proper prefix of q', which is a complete
        return to the reversal of q, that is to q, is not a palindrome, and
        starts strictly before r.

    So the earliest-starting failing return to any palindrome q ends at a
    position where q is the longest element of S_e, and the sweep checks it.
    Hence the word is rich iff no checked return fails, and the witness, the
    least (palindrome, start) pair over the checked failures, is the
    lexicographically least palindrome with a non-palindromic complete
    return together with its earliest such return.  No eertree is involved,
    so the verdict is independent of the eertree-based ones.

    The S_e lists sum to the number of palindrome occurrences in w, which is
    about |w|^2 / 2 for a^n: a^4096 takes about 1.8 s on a 2-vCPU x86 host.
    The word families of the package have far fewer.
    """
    data = w.data
    # No letter equals the sentinel, so a suffix spanning all of w[:e-1]
    # never grows; it also lets the empty word grow only when e >= 2.
    padded = b"\xff" + data
    chain = [0, -1]  # S_0 plus the two roots, descending
    new_palindromes = 0
    violation = None
    least = None  # (palindrome, start, end) of the least failing return
    for e, c in enumerate(data, 1):
        chain = [l + 2 for l in chain if padded[e - 1 - l] == c]
        chain += (0, -1)
        q = chain[0]
        pal = data[e - q : e]
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
