"""Exact counting: totient sums, balanced-word oracles, rich-word counts.

The closed formulas count finite Sturmian words and Sturmian palindromes:

    c(n) = 1 + sum_{i=1..n} (n+1-i) phi(i)
    p(n) = 1 + sum_{i=0..ceil(n/2)-1} phi(n-2i)

Finite Sturmian words are realized for oracle purposes as balanced binary
words, enumerated depth-first as bytes; a new letter is checked against the
windows that end at it, since every other window belongs to the balanced
prefix.  One search to the top length gives every shorter length as its
prefixes.  Every function returns plain ints and bytes; ``palrich count``
writes the tables.
Rich words have no known counting formula; ``count_rich`` enumerates them
exactly with one depth-first search that counts every length up to n in a
single pass, pruned by the one-new-palindrome-per-letter property, which is
hereditary, so the pruning is sound.  Its oracle ``count_rich_naive`` is one
unpruned sweep over all k^n words, counting every shorter length on the
way.  Both keep the eertree of the current word in their own flat arrays:
per node its length and suffix link, and one row of transitions per letter
(``rows[c][node]``, where ``Eertree`` keeps k slots per node), so a letter's
lookups index one list.  They share no code.
"""

from __future__ import annotations

from .errors import OutOfRange, TooLarge, UnsupportedAlphabet

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


def enumerate_balanced(n: int) -> list[bytes]:
    """All balanced words of length n over {0, 1}, in lexicographic order.

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
    if n == 0:
        return [b""]
    out: list[bytes] = []
    prefix = bytearray(n)
    ones = [0] * (n + 1)  # ones[i]: the a-count of prefix[:i]
    lo = [0] * (n + 1)  # lo[l], hi[l]: bounds over the length-l windows
    hi = [0] * (n + 1)

    def dfs(m: int) -> None:
        if m == n:
            out.append(bytes(prefix))
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
    words = enumerate_balanced(n)
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

    The search keeps the eertree of the current word in flat arrays, with
    one row of transitions per letter: ``rows[c][node]`` is the node
    c·node·c, 0 if there is none.  A word is rich iff every prefix adds a
    new palindrome, so an extension that creates no node is cut with its
    whole subtree.  On a rich path the node created by letter i is node i+2
    and is the longest palindromic suffix, so undoing a letter only clears
    its one transition.  Richness is preserved by letter permutations: the
    first letter is fixed and the counts of non-empty words multiplied by k.

    Lemma: on a rich path of length pos, let pre be the letter just before
    the longest palindromic suffix P = node pos+1, if P is not the whole
    word.  Then appending pre creates the node pre·P·pre, and appending any
    other letter c reaches its palindrome by the suffix-link walk from
    link[P].  Proof: P was created by the last letter, and a node's
    children are created by later letters, so P has no child yet; pre·P·pre
    is a palindromic suffix of the word plus pre, the longest one since a
    longer one would give a palindromic suffix of the word longer than P,
    and it is not a node.  For c != pre the walk cannot stop at P, whose
    preceding letter is pre, so it continues at link[P].

    Every word of length at most 2 is rich, so the counts below length 3
    are [1, k, k*k].  From depth 3 the frame at length depth-2 counts the
    last two levels itself: it builds each child's node, then counts the
    child's letters that would create a node, with no node built for them.
    """
    if depth < 3:
        return [1, k, k * k][: depth + 1]
    found = [0] * (depth + 1)
    # buf[i + 1] is letter i; buf[0] is a sentinel no letter equals, so the
    # suffix-link walks need no bounds test (the length -1 root reads the
    # letter being added and always fits).
    buf = bytearray([k]) * (depth + 1)
    length = [-1, 0] + [0] * depth
    link = [0] * (depth + 2)
    rows = [[0] * (depth + 2) for _ in range(k)]
    letters = range(k)
    last = depth - 2
    # The first letter: node 2 = "a", a child of the length -1 root.
    buf[1] = 0
    length[2] = 1
    link[2] = 1
    rows[0][0] = 2

    def extend(pos: int) -> None:
        # The word has pos letters; its longest palindromic suffix is node
        # pos+1, made by the last letter.
        found[pos] += 1
        top = pos + 1
        new = pos + 2
        back = link[top]
        pre = buf[pos - length[top]]
        for c in letters:
            buf[top] = c
            row = rows[c]
            if c == pre:
                cur = top
            else:
                cur = back
                while buf[pos - length[cur]] != c:
                    cur = link[cur]
                if row[cur]:
                    continue
            if cur:
                suffix = link[cur]
                while buf[pos - length[suffix]] != c:
                    suffix = link[suffix]
                link[new] = row[suffix]
            else:
                link[new] = 1
            length[new] = length[cur] + 2
            row[cur] = new
            if pos < last:
                extend(top)
            else:
                # The child has depth-1 letters and its newest node is new;
                # by the lemma its letter before new makes a node, and
                # each other letter d does iff the walk from link[new]
                # ends at a node with no child d.
                found[top] += 1
                grand = buf[top - length[new]]
                start = link[new]
                made = grand < k
                for d in letters:
                    if d != grand:
                        buf[depth] = d
                        node = start
                        while buf[top - length[node]] != d:
                            node = link[node]
                        made += not rows[d][node]
                found[depth] += made
            row[cur] = 0

    extend(1)
    return [1] + [f * k for f in found[1:]]


def count_rich_naive(alphabet_size: int, n: int) -> list[int]:
    """Exhaustive oracle: [R_k(0), ..., R_k(n)], the words with |w| + 1 palindromes.

    One unpruned depth-first sweep over all k^n words, with no letter
    symmetry, counting every shorter length on the way.  The sweep keeps the
    eertree of the current word in its own flat arrays: a sentinel in front
    of the letters, per node its length and suffix link, and one row of
    transitions per letter, ``rows[c][node]``.  Nodes are numbered by a
    creation counter, so a word of length d with ``nodes`` nodes has
    nodes - 2 distinct non-empty palindromes and is counted when
    nodes == d + 2.  Undoing a letter clears the one slot it filled, if
    any; the counter falls back with the recursion.  The frame at length
    n - 1 knows before its letter loop that its children are the last
    level, and counts each of them from the suffix walk and one slot probe,
    with no node built.  The sweep is budgeted to n <= 16 and to at most
    4^12 words of length n.  It shares no code with the pruned search of
    ``count_rich``.
    """
    if alphabet_size not in RICH_BUDGETS:
        raise UnsupportedAlphabet("rich-word counting supports alphabets of 2..4")
    if n < 0:
        raise OutOfRange("length must be non-negative")
    if n > 16 or alphabet_size**n > 4**12:
        raise TooLarge("the naive sweep is budgeted to n <= 16 and k^n <= 4^12 words")
    if n == 0:
        return [1]
    k = alphabet_size
    counts = [0] * (n + 1)
    # buf[i + 1] is letter i; buf[0] is a sentinel no letter equals, so the
    # suffix-link walks need no bounds test.
    buf = bytearray([k]) * (n + 1)
    length = [-1, 0] + [0] * n
    link = [0] * (n + 2)
    rows = [[0] * (n + 2) for _ in range(k)]
    letters = range(k)
    last = n - 1

    def sweep(pos: int, top: int, nodes: int) -> None:
        # The word has pos letters, longest palindromic suffix node top.
        counts[pos] += nodes == pos + 2
        if pos == last:
            # A word of length n is counted where it ends: its letter adds
            # a node exactly when the slot is empty.
            for c in letters:
                buf[n] = c
                cur = top
                while buf[pos - length[cur]] != c:
                    cur = link[cur]
                counts[n] += nodes + (not rows[c][cur]) == n + 2
            return
        for c in letters:
            buf[pos + 1] = c
            row = rows[c]
            cur = top
            while buf[pos - length[cur]] != c:
                cur = link[cur]
            child = row[cur]
            if child:
                sweep(pos + 1, child, nodes)
                continue
            if cur:
                suffix = link[cur]
                while buf[pos - length[suffix]] != c:
                    suffix = link[suffix]
                link[nodes] = row[suffix]
            else:
                link[nodes] = 1
            length[nodes] = length[cur] + 2
            row[cur] = nodes
            sweep(pos + 1, nodes, nodes + 1)
            row[cur] = 0

    sweep(0, 1, 2)
    return counts
