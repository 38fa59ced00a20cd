"""Exact factor bookkeeping for finite words and for infinite words.

A :class:`FactorIndex` of depth D answers every order 0..n_max = D - 1,
and that is the one order rule of the package.  Everything at order n reads
factors of lengths n and n+1 only: the order-n Rauzy graph has F_n as
vertices and F_{n+1} as edges, and the equality at n reads C and P at n
and n+1.  So an index for n_max has depth D = n_max + 1, the length of its
longest window.  It holds one sorted tuple G and the longest common
prefixes (LCPs) of its adjacent elements, and nothing per length.  G is
the distinct windows w[i:i+D] of its word.  In an infinite word every
window has D letters; in a finite word the last D - 1 windows are cut
short at the end of the word, so G is its suffixes cut to D letters.
Every length-n factor, n <= D, is the n-prefix of the window
at one of its occurrences, and that window has at least n letters.  So
F_n is the set of n-prefixes of the elements of G with |g| >= n.

*Complexity.*  With lcp_i the LCP of g_i and g_{i+1},

    C(n) = #{g in G : |g| >= n} - #{i : lcp_i >= n}.

Proof: the words that start with a given u of length n form one contiguous
run of any sorted list, since a word between two words that start with u
starts with u too.  A word shorter than n cannot start with u, so the
elements of G with n-prefix u form one contiguous run of G.  Inside a run
of r elements the r - 1 adjacent pairs share u, so their LCP is >= n.
Conversely an adjacent pair with LCP >= n has two elements of length
>= n with the same n-prefix, in one run.  So these pairs number
#{g : |g| >= n} - C(n).  One histogram of the lengths and of the LCPs gives
C(0..D).  For a finite word this is the count of
:func:`finite_complexity`, cut to D letters.

Each LCP is read off integers, with no Python call per pair.  Every window,
padded to D letters with the byte 0xff, is read as one big-endian int, and
two adjacent ints are XORed.  The leading zero bytes of the XOR are the
common prefix, so the LCP is D minus the byte length of the XOR.  The
padding changes no LCP: it is above every letter, so a short window
differs from every longer word it is a prefix of at its first padded
byte.  The ints stream pairwise into the LCPs, and no list of them is
held.

*Prefixes come out sorted.*  If a <= b then a[:n] <= b[:n], so the
n-prefixes of the sorted G are sorted.  The first element of each run is
the one whose LCP with its predecessor is below n; keeping only those
gives F_n sorted and without repeats, with no sort and no set.
``factors(n)`` derives F_n only for the order a caller asks for, and the
index keeps the last two lengths asked for: the vertices and edges of one
Rauzy graph.  At the top length D the windows of full length are their
own D-prefixes, so F_D shares their bytes instead of copying them.

*Membership.*  u, with |u| <= D, is a factor iff some element of G starts
with u.  Those elements form a run, and every element at or after the
first one >= u that does not start with u is greater than the whole run.
So ``has_factor`` is one ``bisect`` and one ``startswith``.  It answers only
up to D: G says nothing about longer words, so a longer u raises
``OutOfRange``.  The index holds no word besides G: an infinite word's
index is built from its exact factor set alone.

*Special factors.*  ``specials`` reads off G, for every order n, the
factors u of length n that are right special (ua and ub are factors for
two letters a != b) or left special (au and bu are).

(R) u is right special iff some adjacent pair of G, both longer than n,
has LCP n and n-prefix u; its right letters are the letters at position n
of those pairs.  Proof: the elements that start with u form one run (see
*Complexity*): u first, if it is in G, then the longer ones in the order
of their letter at position n, which changes exactly at such pairs.

(L) u is left special iff two elements of G with different first letters
have tails g[1:] that start with u.  Proof: F_{n+1} is the set of
(n+1)-prefixes of G, so au is a factor iff some g in G with g[0] = a has a
tail that starts with u.  In tail order these tails form one run, with
two first letters iff one of its adjacent pairs has.  So L_n is the set of
n-prefixes of the tails of the adjacent pairs in tail order whose first
letters differ and whose tails share h >= n letters.  G lists each first
letter's elements in tail order, so merging those blocks gives the tail
order.  This holds on every index; the right specials of the sorted
reversed windows do not, since the windows' suffixes miss the factors that
occur only in the first D - 1 letters (ab in abcb, a in a -> ab, b -> bb).

*Palindromes.*  The palindromes of length n >= 2 are the words c p c with
p a palindrome of length n - 2 and c a letter, and every factor of a
factor is a factor.  So P(n) comes from growing the palindromic factors of
length n - 2 by one letter on both sides and keeping those that
``has_factor`` accepts.  P is small for every family here.

Every factor-set source computes only the top set F_depth:

* ``build_index`` scans the windows of a concrete finite word.
* ``morphic_factor_sets`` computes the exact factor set of a morphism fixed
  point by saturating windows of letter images, from the one window of the
  fixed point's first D letters.  Words like the fixed point of a -> aab,
  b -> b carry factors (long b-runs) whose first occurrence lies
  exponentially deep, far beyond any scannable prefix, and this closure is
  the only exact route to their complexity at useful depths.  Its
  ``image_factor_sets`` companion does the same for a morphic image.
* ``periodic_factor_sets`` reads one period of a periodic word.
* ``s_word_factor_sets`` follows the recursion s_m = s_{m-1} a^m s_{m-1}.

Each of them, and every index, holds at most ``FACTOR_LETTER_BUDGET``
letters, D times the number of factors; past it they raise ``TooLarge``.
The morphic closure checks as its set grows, so an oversized request fails
fast instead of running out of memory: it starts from one window, and
between two checks its set grows by at most max|m(a)| windows.

Both image closures scan only the windows of m(u) that start inside
m(u[0]), at most |m(u[0])| per factor u: every depth-length window of m(w)
starts inside the image of some letter w[i], at an offset j < |m(w[i])|,
and since no image is empty, m(w[i..i+depth-1]) has at least
|m(w[i])| + depth - 1 >= j + depth letters, so the window lies in the
image of the depth-length factor w[i..i+depth-1], starting inside the
image of its first letter.

``stabilized_prefix`` doubles a generator's prefix until the factor sets of
the prefix stop changing.  That is a heuristic, not a proof of completeness
(a factor may first occur past any prefix it tries), so no family reads its
sets; it stays as the prefix-scan cross-check of the exact constructions.

A finite word whose complexity is wanted at every length, as in the
finite-palindrome theorem, needs no factor sets at all: ``finite_complexity``
reads C(0..|w|) off one suffix array and its LCP array (Kasai et al.).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from heapq import merge
from itertools import pairwise, repeat, starmap
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import OutOfRange, StabilizationFailed, TooLarge, WordTooShort
from .words import Alphabet, Morphism, Word, fixed_point

# Rounds after which morphic_factor_sets gives up on saturating its sets.
CLOSURE_ROUND_LIMIT = 4096

# Most letters, D times the number of factors, that a top factor set of
# length D may hold.  Fibonacci fits up to D = 4095; the a -> aab fixed
# point, whose C(D) grows like D^2/2, up to about D = 320.
FACTOR_LETTER_BUDGET = 1 << 24


def _check_budget(count: int, depth: int) -> None:
    if count * depth > FACTOR_LETTER_BUDGET:
        raise TooLarge(
            f"{count} factors of length {depth} hold {count * depth} letters, "
            f"over the budget of {FACTOR_LETTER_BUDGET}"
        )


class FactorIndex:
    """The sorted windows G of a word (module docstring).

    ``top`` holds the distinct windows: for an infinite word its factor set
    F_D, for a finite word also its shorter suffixes.  The depth D is the
    length of the longest window, so ``n_max`` is D - 1; a set with no
    window of at least one letter raises ``ValueError``.
    """

    def __init__(self, alphabet: Alphabet, top: Iterable[bytes]):
        self.alphabet = alphabet
        self._top = tuple(sorted(top))
        lengths = Counter(map(len, self._top))
        depth = max(lengths, default=0)
        if depth < 1:
            raise ValueError("an index needs a window of at least one letter")
        self.n_max = depth - 1
        _check_budget(len(self._top), depth)
        # _lcps[i] is the LCP of G[i-1] and G[i]; -1 before the first element.
        # The XORs of the padded windows' ints give them (*Complexity*).
        padded = map(bytes.ljust, self._top, repeat(depth), repeat(b"\xff"))
        xors = starmap(int.__xor__, pairwise(map(int.from_bytes, padded, repeat("big"))))
        self._lcps = [-1]
        self._lcps += [depth - (bits + 7) // 8 for bits in map(int.bit_length, xors)]
        lengths.subtract(Counter(self._lcps[1:]))
        complexity = [0] * (depth + 1)
        run = 0
        for n in range(depth, -1, -1):
            run += lengths[n]
            complexity[n] = run
        self._complexity = complexity
        self._levels: dict[int, tuple[bytes, ...]] = {}

    # -- set-level queries ------------------------------------------------

    def _check_length(self, n: int) -> None:
        if not 0 <= n <= self.n_max + 1:
            raise OutOfRange(f"length {n} outside indexed range 0..{self.n_max + 1}")

    def factors(self, n: int) -> tuple[bytes, ...]:
        """Factors of length n in lexicographic (index) order.

        The last two orders asked for stay, so one Rauzy graph derives each
        of its levels once.
        """
        self._check_length(n)
        level = self._levels.pop(n, None)
        if level is None:
            level = tuple(
                g[:n] for g, h in zip(self._top, self._lcps) if h < n <= len(g)
            )
        self._levels[n] = level
        if len(self._levels) > 2:
            del self._levels[next(iter(self._levels))]
        return level

    def complexity(self, n: int) -> int:
        self._check_length(n)
        return self._complexity[n]

    def palindrome_counts(self) -> list[int]:
        """P(0..D), the number of palindromic factors of each length, in one pass.

        P(0) = 1 is the empty word; length n grows the palindromes of length n - 2.
        """
        has = self.has_factor
        letters = [bytes((c,)) for c in range(self.alphabet.size)]
        # Palindromes of lengths n-2 and n-1, grown to length n.
        older, newer = [b""], [c for c in letters if has(c)]
        counts = [1, len(newer)]
        for _ in range(2, self.n_max + 2):
            grown = [u for p in older for c in letters if has(u := c + p + c)]
            older, newer = newer, grown
            counts.append(len(grown))
        return counts

    def has_factor(self, u: bytes) -> bool:
        if len(u) <= self.n_max + 1:
            top = self._top
            i = bisect_left(top, u)
            return i < len(top) and top[i].startswith(u)
        raise OutOfRange(f"membership is indexed up to length {self.n_max + 1}, not {len(u)}")

    def right_extensions(self, n: int) -> dict[bytes, bytes]:
        """Map each length-n factor to its sorted right-extension letters.

        Extensions come from F_{n+1} membership, so only occurrences with a
        neighbor inside the word contribute; the last window of a finite
        word adds nothing.  The sorted F_{n+1} lists the extensions of one
        factor together, in letter order.
        """
        if not 0 <= n <= self.n_max:
            raise OutOfRange(f"extensions need n <= n_max = {self.n_max}")
        ext = dict.fromkeys(self.factors(n), b"")
        for e in self.factors(n + 1):
            ext[e[:-1]] += e[-1:]
        return ext

    def left_extensions(self, n: int) -> dict[bytes, bytes]:
        """Map each length-n factor to its sorted left-extension letters.

        In the sorted F_{n+1} the words c + u of one u come in letter order.
        """
        if not 0 <= n <= self.n_max:
            raise OutOfRange(f"extensions need n <= n_max = {self.n_max}")
        ext = dict.fromkeys(self.factors(n), b"")
        for e in self.factors(n + 1):
            ext[e[1:]] += e[:1]
        return ext

    def specials(self) -> Iterator[dict[bytes, tuple[bool, bytes]]]:
        """The special factors of every order 0..n_max, by (R) and (L) above.

        Order n maps each special u of length n to (whether u is left
        special, its sorted right letters).  A left special that is not right
        special has one right letter, read after u in the longest shared tail
        that starts with u.  When every such tail ends with u, as at the top
        order, it is read after u in the next element of G, and at the final
        suffix of a finite word there is none.
        """
        top, lcps = self._top, self._lcps
        # (R): the adjacent pairs of G, both longer than their LCP, by LCP.
        branches: list[list[int]] = [[] for _ in range(self.n_max + 1)]
        for i in range(1, len(top)):
            if lcps[i] < len(top[i - 1]):
                branches[lcps[i]].append(i)
        # (L): G's blocks of one first letter, cut where the LCP is below 1.
        cuts = [i for i, h in enumerate(lcps) if h < 1] + [len(top)]
        tails = merge(*(top[i:j] for i, j in zip(cuts, cuts[1:])), key=lambda g: g[1:])
        shared = [a[1 : 1 + _lcp(a[1:], b[1:])] for a, b in pairwise(tails) if a[0] != b[0]]
        # Longest first, so each order reads only the tails that reach it.
        shared.sort(key=len, reverse=True)
        reach = len(shared)
        for n, pairs in enumerate(branches):
            while reach and len(shared[reach - 1]) < n:
                reach -= 1
            # Each u maps to the letter after it in its longest tail, if any.
            left = {t[:n]: t[n : n + 1] for t in reversed(shared[:reach])}
            right: dict[bytes, bytes] = {}
            for i in pairs:
                u = top[i][:n]
                right[u] = right.get(u, top[i - 1][n : n + 1]) + top[i][n : n + 1]
            out = {u: (u in left, letters) for u, letters in right.items()}
            for u in sorted(left.keys() - right.keys()):
                letter = left[u]
                if not letter:
                    # Every shared tail that starts with u ends with it, as at
                    # the top order.
                    g = top[min(bisect_right(top, u), len(top) - 1)]
                    letter = g[n : n + 1] if g.startswith(u) else b""
                out[u] = (True, letter)
            yield out


def _lcp(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of a and b.

    The leading bytes of a XOR b that are zero are the common prefix; the
    integer conversion and the XOR run in C.
    """
    m = min(len(a), len(b))
    x = int.from_bytes(a[:m], "big") ^ int.from_bytes(b[:m], "big")
    return m - (x.bit_length() + 7) // 8


def build_index(w: Word, n_max: int) -> FactorIndex:
    """Index of the finite word w for every order 0..n_max.

    The windows are added in chunks of at most ``FACTOR_LETTER_BUDGET``
    letters, so an oversized request stops at twice the budget.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if n_max + 1 > len(w):
        raise WordTooShort(f"need n_max+1 <= |w|, got {n_max + 1} > {len(w)}")
    data = w.data
    depth = n_max + 1
    step = max(1, FACTOR_LETTER_BUDGET // depth)
    top: set[bytes] = set()
    for start in range(0, len(data), step):
        stop = min(start + step, len(data))
        top.update(data[i : i + depth] for i in range(start, stop))
        _check_budget(len(top), depth)
    return FactorIndex(w.alphabet, top)


def finite_complexity(w: Word) -> list[int]:
    """C(0..|w|) of a finite word from its suffix array and LCP array.

    With m = |w|, C(0) = 1 and, for 1 <= n <= m,

        C(n) = (m - n + 1) - #{adjacent sorted suffixes with LCP >= n}.

    Proof: every length-n factor is the n-prefix of one of the m - n + 1
    suffixes of length >= n, so C(n) counts the classes of those suffixes
    under "same n-prefix".  The suffixes that start with a given word u form
    one contiguous run in sorted order, and inside a run of g suffixes the
    g - 1 adjacent pairs share u, so their LCP is >= n.  Conversely an
    adjacent pair with LCP >= n has two suffixes of length >= n with the
    same n-prefix, in one run.  So the adjacent pairs with LCP >= n number
    exactly (m - n + 1) - C(n).

    The suffixes are sorted by prefix doubling on rank pairs, so no suffix
    slice is ever built, and the LCPs come from Kasai's algorithm (Kasai,
    Lee, Arimura, Arikawa and Park, CPM 2001): O(m log m) time, O(m) space.
    """
    data = w.data
    m = len(data)
    ge = [0] * (m + 2)  # ge[h]: adjacent pairs whose LCP is h, then >= h
    sa = _suffix_array(data)
    inverse = [0] * m
    for r, i in enumerate(sa):
        inverse[i] = r
    h = 0
    for i in range(m):
        r = inverse[i]
        if r == 0:
            h = 0
            continue
        # The LCP of suffix i with its predecessor is at least that of
        # suffix i-1 with its predecessor, minus one.
        j = sa[r - 1]
        while i + h < m and j + h < m and data[i + h] == data[j + h]:
            h += 1
        ge[h] += 1
        if h:
            h -= 1
    for n in range(m - 1, 0, -1):
        ge[n] += ge[n + 1]
    return [1] + [m - n + 1 - ge[n] for n in range(1, m + 1)]


def _suffix_array(data: bytes) -> list[int]:
    """Start positions of the suffixes of data in lexicographic order.

    Round k sorts by the first 2^k letters: the rank pair (rank of the
    2^(k-1)-prefix at i, rank at i + 2^(k-1)) orders those prefixes, with a
    suffix that ends first ranking lowest.  Sorting stops once all ranks
    are distinct.
    """
    m = len(data)
    if m < 2:
        return list(range(m))
    rank = list(data)
    sa = sorted(range(m), key=rank.__getitem__)
    base = max(m, 256) + 1
    k = 1
    while True:
        second = rank[k:] + [-1] * k
        keys = [a * base + b + 1 for a, b in zip(rank, second)]
        sa.sort(key=keys.__getitem__)
        r = 0
        prev = keys[sa[0]]
        for i in sa:
            key = keys[i]
            if key != prev:
                r += 1
                prev = key
            rank[i] = r
        if r == m - 1:
            break
        k *= 2
    return sa


def is_closed_under_reversal(idx: FactorIndex) -> tuple[bool, Word | None]:
    """Check reversal closure of every factor set the index holds.

    Only the top set F_D is read: one set of it is built, and each reversal
    is looked up in that set, in index order, so the witness order is kept.
    For the factor sets of a word, closure at length m implies closure at
    length m-1: each shorter factor u is a prefix or a suffix of some
    length-m factor v, and the reversal of u is then a suffix or a prefix of
    the reversal of v, which is a factor.  So the longest failing length is
    always D, and F_D alone decides.  Every index of the package holds the
    factor sets of a word, finite (``build_index``) or infinite
    (``WordFamily.index``); to check a shorter length n, build the index of
    depth n.

    On failure the witness is the first length-D factor in index
    (lexicographic) order whose reversal is absent.
    """
    level = idx.factors(idx.n_max + 1)
    present = set(level)
    for u in level:
        if u[::-1] not in present:
            return False, Word(idx.alphabet, u)
    return True, None


class StabilizedPrefix(NamedTuple):
    """Result of doubling a generator prefix until factor sets settle.

    ``stable_lengths`` says which lengths the last doubling left unchanged;
    the prefix is stable when all are, which never proves the sets
    complete.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    word: Word
    stable_lengths: tuple[bool, ...]
    index: FactorIndex
    lengths_tried: tuple[int, ...]


def stabilized_prefix(
    produce: Callable[[int], Word],
    n_max: int,
    len_cap: int = 1 << 20,
) -> StabilizedPrefix:
    """Grow a prefix by doubling until F_0..F_{n_max+1} stop changing.

    Starts at 4*(n_max+1) letters and stops at ``len_cap``.  When the cap is
    hit first, the per-length flags mark which factor sets were still
    growing across the final doubling (at least one was); nothing is
    thrown.  The index is that of the final prefix.  This is the
    prefix-scan cross-check of the exact constructions, not a source of
    exact sets.
    """
    depth = n_max + 1
    base = 4 * depth
    if len_cap < base:
        raise ValueError(f"len_cap must be at least 4*(n_max+1) = {base}")
    length = base
    word = produce(length)
    idx = build_index(word, n_max)
    tried = [length]
    stable_lengths = (True,) + (False,) * depth
    while length < len_cap:
        length = min(2 * length, len_cap)
        grown = produce(length)
        if grown.data[: len(word)] != word.data:
            raise StabilizationFailed("generator is not prefix-stable")
        word = grown
        tried.append(length)
        # The sets of a longer prefix contain those of a shorter one, so a
        # set changed exactly when its size did.
        sizes = [idx.complexity(n) for n in range(depth + 1)]
        idx = build_index(word, n_max)
        stable_lengths = tuple(
            idx.complexity(n) == size for n, size in enumerate(sizes)
        )
        if all(stable_lengths):
            break
    return StabilizedPrefix(word, stable_lengths, idx, tuple(tried))


def _windows(data: bytes, depth: int) -> set[bytes]:
    """Distinct length-``depth`` windows of data."""
    return {data[i : i + depth] for i in range(len(data) - depth + 1)}


def morphic_factor_sets(m: Morphism, seed: str, depth: int) -> set[bytes]:
    """Exact factor set F_depth of the fixed point of ``m``.

    Saturates the map u -> windows of m(u) at window length ``depth``,
    starting from the one window x[:depth].  Every window found is a
    factor.  Conversely, with x = m(x), the window of x at position p
    starts inside m(x[i]) for some i, and lies in m(x[i..i+depth-1]) at an
    offset below |m(x[i])| (module docstring).  Since |m(seed)| >= 2, the
    image of x[i] starts at |m(x[:i])| >= i + 1 when i >= 1, so i < p
    unless i = 0, whose factor is the starting window: the base case.
    Induction on p then reaches every factor.  Only the windows that start
    inside the image of the first letter are scanned, so each factor adds
    at most max|m(a)| windows, and the set is checked against
    ``FACTOR_LETTER_BUDGET`` after each factor's windows are added.
    """
    if depth == 0:
        return {b""}
    top = {fixed_point(m, seed, depth).data}
    frontier = list(top)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > CLOSURE_ROUND_LIMIT:
            raise StabilizationFailed(
                f"factor closure did not converge within {CLOSURE_ROUND_LIMIT} rounds"
            )
        frontier = _image_windows(m, frontier, depth, top)
    return top


def image_factor_sets(m: Morphism, base_top: Iterable[bytes], depth: int) -> set[bytes]:
    """Exact factor set F_depth of m(w) given the depth-length factor set of w.

    Every depth-length window of m(w) lies in the image of a depth-length
    factor of w, starting inside the image of its first letter (module
    docstring), so one pass over ``base_top`` suffices.
    """
    if depth == 0:
        return {b""}
    top: set[bytes] = set()
    _image_windows(m, base_top, depth, top)
    return top


def _image_windows(
    m: Morphism, factors: Iterable[bytes], depth: int, top: set[bytes]
) -> list[bytes]:
    """Add to ``top`` the windows of m(u), u in factors, that start inside m(u[0]).

    Each has depth letters, because |m(u)| >= |m(u[0])| + depth - 1 for a
    depth-length u.  Returns the windows that were new, and raises
    ``TooLarge`` once ``top`` is over the budget.
    """
    images = m.images
    fresh = []
    for u in factors:
        img = m.apply_bytes(u)
        for i in range(len(images[u[0]])):
            v = img[i : i + depth]
            if v not in top:
                top.add(v)
                fresh.append(v)
        _check_budget(len(top), depth)
    return fresh


def periodic_factor_sets(block: Word, depth: int) -> set[bytes]:
    """Exact factor set F_depth of block repeated forever."""
    q = len(block)
    if q == 0:
        raise ValueError("block must be non-empty")
    data = block.data * (depth // q + 2)
    top: set[bytes] = set()
    for i in range(q):
        top.add(data[i : i + depth])
        _check_budget(len(top), depth)
    return top


def s_word_factor_sets(depth: int) -> set[bytes]:
    """Exact factor set F_depth of the s-word bc a^2 bc a^3 ...

    The s-word is the limit of s_1 = bc, s_m = s_{m-1} a^m s_{m-1}, each
    s_m a prefix of the next, so F_d is the union of the length-d windows
    of all s_m.  A window of s_m with no letter of the middle a^m lies in
    one copy of s_{m-1}; one with such a letter lies in
    suf_{d-1}(s_{m-1}) a^m pre_{d-1}(s_{m-1}), and every length-d window of
    that word contains a letter of a^m, since each affix is shorter than d.
    So F_d is the windows of s_1 plus, for each m >= 2, the windows of
    suf_{d-1}(s_{m-1}) a^m pre_{d-1}(s_{m-1}).  Only the two affixes are
    kept, never s_m itself: both are affixes of s_{m-1} a^m s_{m-1} cut
    to d - 1 letters.

    Once |s_{m-1}| >= d - 1, the affixes are the same for every later m
    (s_{m-1} is a prefix and a suffix of all later s_m).  Once also m >= d,
    no length-d window meets both affixes across a^m, so the windows are
    suffixes of the left affix padded with a's, a^d, and a's followed by
    prefixes of the right affix: the same set for every later m.  The loop
    stops after the first m with both properties.
    """
    if depth == 0:
        return {b""}
    keep = depth - 1
    a, s1 = b"\x00", b"\x01\x02"  # a, bc
    top = _windows(s1, depth)
    # suf_{d-1} and pre_{d-1} of s_{m-1}, and |s_{m-1}|.
    left, right, length = s1[max(0, len(s1) - keep) :], s1[:keep], len(s1)
    m = 1
    while True:
        m += 1
        middle = a * m
        top |= _windows(left + middle + right, depth)
        _check_budget(len(top), depth)
        if m >= depth and length >= keep:
            break
        left = (left + middle + left)[max(0, 2 * len(left) + m - keep) :]
        right = (right + middle + right)[:keep]
        length = 2 * length + m
    return top
