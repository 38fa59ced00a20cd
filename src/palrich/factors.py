"""Exact factor bookkeeping for finite words and for infinite words.

A :class:`FactorIndex` holds the distinct-factor sets F_0..F_{n_max+1} of a
word, from which factor complexity C(n), extension degrees, special factors
and the complexity-difference identity all derive.  Occurrence positions are
computed lazily against the source word (storing every occurrence list up
front is pointless at megabyte prefixes).

Every factor-set source computes only the top set F_depth and derives the
shorter ones by prefix projection.  In an infinite word every factor extends
to the right, so F_n is the set of length-n prefixes of F_{n+1}; in a finite
word the one exception is its final length-n suffix, which is added back.
The top set comes from one of four places:

* ``build_index`` scans the top-length windows of a concrete finite word.
* ``morphic_factor_sets`` computes the exact factor sets of a morphism fixed
  point by saturating windows of letter images.  Words like the fixed point
  of a -> aab, b -> b carry factors (long b-runs) whose first occurrence lies
  exponentially deep, far beyond any scannable prefix, and this closure is
  the only exact route to their complexity at useful depths.  Its
  ``image_factor_sets`` companion does the same for a morphic image.
* ``periodic_factor_sets`` reads one period of a periodic word.
* ``s_word_factor_sets`` follows the recursion s_m = s_{m-1} a^m s_{m-1}.

Each closure only scans the windows of m(u) that start inside m(u[0]): every
depth-length window of m(w) starts inside the image of some letter w[i], at
an offset j < |m(w[i])|, and since no image is empty, m(w[i..i+depth-1]) has
at least |m(w[i])| + depth - 1 >= j + depth letters, so the window lies in
the image of the depth-length factor w[i..i+depth-1], starting inside the
image of its first letter.

``stabilized_prefix`` doubles a generator's prefix until the factor sets of
the prefix stop changing.  That is a heuristic, not a proof of completeness
(a factor may first occur past any prefix it tries), so no family reads its
sets; it stays as the prefix-scan cross-check of the exact constructions.

A finite word whose complexity is wanted at every length, as in the
finite-palindrome theorem, needs no factor sets at all: ``finite_complexity``
reads C(0..|w|) off one suffix array and its LCP array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

from .errors import (
    FactorAbsent,
    OutOfRange,
    SingleOccurrence,
    StabilizationFailed,
    WordTooShort,
)
from .words import Morphism, Word, fixed_point

# Longest prefix that the richness checkers read.
RICHNESS_SAMPLE_CAP = 1 << 16

# Rounds after which morphic_factor_sets gives up on saturating its sets.
CLOSURE_ROUND_LIMIT = 4096


class FactorIndex:
    """Distinct factors per length 0..n_max+1 with extension bookkeeping."""

    def __init__(
        self,
        source: Word,
        n_max: int,
        sets: Sequence[Iterable[bytes]],
    ):
        if len(sets) != n_max + 2:
            raise ValueError("need factor sets for every length 0..n_max+1")
        self.source = source
        self.alphabet = source.alphabet
        self.n_max = n_max
        self._sets = [frozenset(s) for s in sets]
        self._sorted: dict[int, tuple[bytes, ...]] = {}
        self._occ: dict[bytes, tuple[int, ...]] = {}
        self._pal_counts: list[int] | None = None

    @classmethod
    def build(cls, w: Word, n_max: int) -> "FactorIndex":
        """Factor sets of w up to length n_max+1.

        Only the windows of length n_max+1 are scanned; the shorter sets are
        their prefixes plus the suffixes of w (see ``_derive_down``).
        """
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        if n_max + 1 > len(w):
            raise WordTooShort(f"need n_max+1 <= |w|, got {n_max + 1} > {len(w)}")
        depth = n_max + 1
        return cls(w, n_max, _derive_down(_windows(w.data, depth), depth, w.data))

    # -- set-level queries ------------------------------------------------

    def factor_set(self, n: int) -> frozenset[bytes]:
        if not 0 <= n <= self.n_max + 1:
            raise OutOfRange(f"length {n} outside indexed range 0..{self.n_max + 1}")
        return self._sets[n]

    def factors(self, n: int) -> tuple[bytes, ...]:
        """Factors of length n in lexicographic (index) order."""
        if n not in self._sorted:
            self._sorted[n] = tuple(sorted(self.factor_set(n)))
        return self._sorted[n]

    def complexity(self, n: int) -> int:
        return len(self.factor_set(n))

    def palindrome_count(self, n: int) -> int:
        """Number of palindromic factors of length n (the empty word at 0)."""
        if self._pal_counts is None:
            self._pal_counts = [
                sum(1 for u in s if u == u[::-1]) for s in self._sets
            ]
        if not 0 <= n <= self.n_max + 1:
            raise OutOfRange(f"length {n} outside indexed range 0..{self.n_max + 1}")
        return self._pal_counts[n]

    def has_factor(self, u: bytes) -> bool:
        if len(u) <= self.n_max + 1:
            return u in self._sets[len(u)]
        return self.source.data.find(u) >= 0

    def right_extensions(self, n: int) -> dict[bytes, bytes]:
        """Map each length-n factor to its sorted right-extension letters.

        Extensions come from F_{n+1} membership, so only occurrences with a
        neighbor inside the prefix contribute; the last window of a finite
        prefix adds nothing.
        """
        if not 0 <= n <= self.n_max:
            raise OutOfRange(f"extensions need n <= n_max = {self.n_max}")
        ext = dict.fromkeys(self.factor_set(n), b"")
        repeated = []
        for e in self.factor_set(n + 1):
            u = e[:-1]
            letters = ext[u]
            if letters:
                repeated.append(u)
            ext[u] = letters + e[-1:]
        return _sort_letters(ext, repeated)

    def left_extensions(self, n: int) -> dict[bytes, bytes]:
        if not 0 <= n <= self.n_max:
            raise OutOfRange(f"extensions need n <= n_max = {self.n_max}")
        ext = dict.fromkeys(self.factor_set(n), b"")
        repeated = []
        for e in self.factor_set(n + 1):
            u = e[1:]
            letters = ext[u]
            if letters:
                repeated.append(u)
            ext[u] = letters + e[:1]
        return _sort_letters(ext, repeated)

    # -- occurrence-level queries -----------------------------------------

    def occurrences(self, u: Word | bytes) -> tuple[int, ...]:
        """Sorted start positions of u in the source word (overlaps allowed)."""
        needle = u.data if isinstance(u, Word) else bytes(u)
        cached = self._occ.get(needle)
        if cached is None:
            data = self.source.data
            positions = []
            i = data.find(needle)
            while i >= 0:
                positions.append(i)
                i = data.find(needle, i + 1)
            cached = self._occ[needle] = tuple(positions)
        return cached


def _sort_letters(ext: dict[bytes, bytes], repeated: list[bytes]) -> dict[bytes, bytes]:
    # Only the factors that got a second letter can be out of order.
    for u in repeated:
        ext[u] = bytes(sorted(ext[u]))
    return ext


def build_index(w: Word, n_max: int) -> FactorIndex:
    """Exact distinct-factor sets of w for all lengths 0..n_max+1."""
    return FactorIndex.build(w, n_max)


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


def factor_complexity(idx: FactorIndex, n: int) -> int:
    """C(n), the number of distinct factors of length n; C(0) = 1."""
    return idx.complexity(n)


@dataclass(frozen=True)
class SpecialFactorReport:
    """Special factors of one length, classified by extension degree."""

    n: int
    right_special: tuple[Word, ...]
    left_special: tuple[Word, ...]
    bispecial: tuple[Word, ...]
    special_palindrome_count: int

    @property
    def special(self) -> tuple[Word, ...]:
        merged = sorted(set(self.right_special) | set(self.left_special))
        return tuple(merged)


def special_factors(idx: FactorIndex, n: int) -> SpecialFactorReport:
    """Classify length-n factors: right-special means two right extensions."""
    if not 0 <= n < idx.n_max:
        raise OutOfRange(f"special factors need n < n_max = {idx.n_max}")
    right = idx.right_extensions(n)
    left = idx.left_extensions(n)
    alpha = idx.alphabet
    rs = tuple(
        Word(alpha, u) for u in sorted(u for u, e in right.items() if len(e) > 1)
    )
    ls = tuple(
        Word(alpha, u) for u in sorted(u for u, e in left.items() if len(e) > 1)
    )
    bis = tuple(w for w in rs if len(left[w.data]) >= 2)
    union = set(rs) | set(ls)
    p = sum(1 for w in union if w.is_palindrome())
    return SpecialFactorReport(n, rs, ls, bis, p)


def complexity_difference_identity(idx: FactorIndex, n: int) -> tuple[int, int]:
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
        for u in idx.factor_set(n)
        if len(right[u]) >= 2 or len(left[u]) >= 2
    )
    return lhs, rhs


@dataclass(frozen=True)
class CompleteReturns:
    """Complete returns to a factor: occurrence order and distinct views."""

    factor: Word
    all: tuple[Word, ...]
    distinct: tuple[Word, ...]


def complete_returns(idx: FactorIndex, u: Word) -> CompleteReturns:
    """Spans between consecutive occurrences of u in the source.

    Each span starts and ends with u and contains exactly two occurrences of
    it.  ``all`` keeps one entry per occurrence pair in position order;
    ``distinct`` deduplicates and sorts.
    """
    needle = u.data
    if not idx.has_factor(needle):
        raise FactorAbsent(f"{u!r} does not occur in the source")
    occ = idx.occurrences(needle)
    if len(occ) < 2:
        raise SingleOccurrence(f"{u!r} occurs only once; no complete returns")
    data = idx.source.data
    alpha = idx.alphabet
    spans = tuple(
        Word(alpha, data[occ[i] : occ[i + 1] + len(needle)])
        for i in range(len(occ) - 1)
    )
    return CompleteReturns(u, spans, tuple(sorted(set(spans))))


def is_closed_under_reversal(idx: FactorIndex, n: int) -> tuple[bool, Word | None]:
    """Check reversal closure of every factor set up to length n.

    Only F_n is read.  For the factor sets of a word, closure at length m
    implies closure at length m-1: each shorter factor u is a prefix or a
    suffix of some length-m factor v, and the reversal of u is then a suffix
    or a prefix of the reversal of v, which is a factor.  So the longest
    failing length is always n, and F_n alone decides.  Every index of the
    package holds the factor sets of a word, finite (``FactorIndex.build``)
    or infinite (``WordFamily.index``), with F_n non-empty.

    On failure the witness is the first length-n factor, in first-occurrence
    order (lexicographic order when the index has no positional source),
    whose reversal is absent.
    """
    if not 0 <= n <= idx.n_max + 1:
        raise OutOfRange(f"closure check needs n <= n_max+1 = {idx.n_max + 1}")
    fset = idx.factor_set(n)
    if all(u[::-1] in fset for u in fset):
        return True, None
    if len(idx.source) >= n:
        data = idx.source.data
        seen = set()
        for i in range(len(data) - n + 1):
            u = data[i : i + n]
            if u in seen:
                continue
            seen.add(u)
            if u[::-1] not in fset:
                return False, Word(idx.alphabet, u)
    for u in sorted(fset):
        if u[::-1] not in fset:
            return False, Word(idx.alphabet, u)
    raise AssertionError("unreachable: failing length without failing factor")


def recurrence_probe(idx: FactorIndex, n: int, min_occurrences: int) -> bool:
    """True iff every factor of length <= n occurs at least min_occurrences times.

    A necessary-condition probe on the finite prefix, not a proof of
    recurrence of the generated infinite word.
    """
    if not 0 <= n <= idx.n_max + 1:
        raise OutOfRange(f"probe needs n <= n_max+1 = {idx.n_max + 1}")
    data = idx.source.data
    for m in range(1, n + 1):
        counts: dict[bytes, int] = {}
        for i in range(len(data) - m + 1):
            u = data[i : i + m]
            counts[u] = counts.get(u, 0) + 1
        for u in idx.factor_set(m):
            if counts.get(u, 0) < min_occurrences:
                return False
    return True


@dataclass(frozen=True)
class StabilizedPrefix:
    """Result of doubling a generator prefix until factor sets settle.

    ``stable`` says whether the last doubling changed no set, and
    ``stable_lengths`` says which lengths it left unchanged.  Neither proves
    the sets complete.
    """

    word: Word
    stable: bool
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
    hit first, the result is flagged unstable and the per-length flags mark
    which factor sets were still growing across the final doubling; nothing
    is thrown.  The index is that of the final prefix.  This is the
    prefix-scan cross-check of the exact constructions, not a source of
    exact sets.
    """
    depth = n_max + 1
    base = 4 * depth
    if len_cap < base:
        raise ValueError(f"len_cap must be at least 4*(n_max+1) = {base}")
    length = base
    word = produce(length)
    top = _windows(word.data, depth)
    sets = _derive_down(top, depth, word.data)
    tried = [length]
    stable = False
    stable_lengths = (True,) + (False,) * depth
    while length < len_cap:
        length = min(2 * length, len_cap)
        grown = produce(length)
        if grown.data[: len(word)] != word.data:
            raise StabilizationFailed("generator is not prefix-stable")
        top |= _windows(grown.data, depth, len(word) - depth + 1)
        word = grown
        tried.append(length)
        # The sets of a longer prefix contain those of a shorter one, so a
        # set changed exactly when its size did.
        sizes = [len(s) for s in sets]
        del sets  # release the previous derivation before building the next
        sets = _derive_down(top, depth, word.data)
        stable_lengths = tuple(len(s) == size for s, size in zip(sets, sizes))
        if all(stable_lengths):
            stable = True
            break
    idx = FactorIndex(word, n_max, sets)
    return StabilizedPrefix(word, stable, stable_lengths, idx, tuple(tried))


def _windows(data: bytes, depth: int, start: int = 0) -> set[bytes]:
    """Distinct length-``depth`` windows of data starting at or after ``start``."""
    return {data[i : i + depth] for i in range(start, len(data) - depth + 1)}


def _derive_down(
    top: Iterable[bytes],
    depth: int,
    source: bytes | None = None,
) -> list[frozenset[bytes]]:
    # Every factor of an infinite word extends to the right, so F_n is the
    # set of length-n prefixes of F_{n+1}.  In a finite word ``source`` the
    # only occurrence that may lack a right neighbour is its final length-n
    # suffix, which is added back at every level.
    sets: list[frozenset[bytes]] = [frozenset()] * (depth + 1)
    sets[depth] = frozenset(top)
    for n in range(depth - 1, -1, -1):
        shorter = (u[:n] for u in sets[n + 1])
        if source is not None:
            shorter = chain(shorter, (source[len(source) - n :],))
        sets[n] = frozenset(shorter)
    return sets


def morphic_factor_sets(m: Morphism, seed: str, depth: int) -> list[frozenset[bytes]]:
    """Exact factor sets, lengths 0..depth, of the fixed point of ``m``.

    Saturates the map u -> windows of m(u) at window length ``depth``,
    starting from the windows of a concrete prefix.  Every window found is
    a factor.  Conversely, with x = m(x), the window of x at position p
    starts inside m(x[i]) for some i, and lies in m(x[i..i+depth-1]) at an
    offset below |m(x[i])| (module docstring).  Since |m(seed)| >= 2, the
    image of x[i] starts at |m(x[:i])| >= i + 1 when i >= 1, so i < p
    unless i = 0, whose factor is in the starting prefix; induction on p
    then reaches every factor.  Only the windows that start inside the
    image of the first letter are scanned.  Shorter sets are prefix
    projections of the top one.
    """
    if depth == 0:
        return [frozenset({b""})]
    prefix = fixed_point(m, seed, max(4 * depth, 64)).data
    top = _windows(prefix, depth)
    frontier = set(top)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > CLOSURE_ROUND_LIMIT:
            raise StabilizationFailed(
                f"factor closure did not converge within {CLOSURE_ROUND_LIMIT} rounds"
            )
        fresh = _image_windows(m, frontier, depth) - top
        top |= fresh
        frontier = fresh
    return _derive_down(top, depth)


def image_factor_sets(
    m: Morphism,
    base_top: Iterable[bytes],
    depth: int,
) -> list[frozenset[bytes]]:
    """Exact factor sets of m(w) given the depth-length factor set of w.

    Every depth-length window of m(w) lies in the image of a depth-length
    factor of w, starting inside the image of its first letter (module
    docstring), so one pass over ``base_top`` suffices.
    """
    if depth == 0:
        return [frozenset({b""})]
    return _derive_down(_image_windows(m, base_top, depth), depth)


def _image_windows(m: Morphism, factors: Iterable[bytes], depth: int) -> set[bytes]:
    # The windows of m(u) at offsets below |m(u[0])|; each has depth letters
    # because |m(u)| >= |m(u[0])| + depth - 1 for a depth-length u.
    images = m.images
    out: set[bytes] = set()
    for u in factors:
        img = m.apply_bytes(u)
        out.update(img[i : i + depth] for i in range(len(images[u[0]])))
    return out


def periodic_factor_sets(block: Word, depth: int) -> list[frozenset[bytes]]:
    """Exact factor sets, lengths 0..depth, of block repeated forever."""
    q = len(block)
    if q == 0:
        raise ValueError("block must be non-empty")
    data = block.data * (depth // q + 2)
    top = {data[i : i + depth] for i in range(q)}
    return _derive_down(top, depth)


def s_word_factor_sets(depth: int) -> list[frozenset[bytes]]:
    """Exact factor sets, lengths 0..depth, of the s-word bc a^2 bc a^3 ...

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
        return [frozenset({b""})]
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
        if m >= depth and length >= keep:
            break
        left = (left + middle + left)[max(0, 2 * len(left) + m - keep) :]
        right = (right + middle + right)[:keep]
        length = 2 * length + m
    return _derive_down(top, depth)
