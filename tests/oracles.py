"""Brute-force reference implementations used to validate the library.

Everything here trades speed for obviousness: plain window enumeration,
plain substring scans, constraint-filling for palindromic closure.  None of
it calls the code paths it is checking.
"""

from itertools import chain, product


def window_factors(text: str, n: int) -> set[str]:
    if n == 0:
        return {""}
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def palindromic_substrings(text: str) -> set[str]:
    out = {""}
    for i in range(len(text)):
        for j in range(i + 1, len(text) + 1):
            sub = text[i:j]
            if sub == sub[::-1]:
                out.add(sub)
    return out


def distinct_palindromes_including_empty(text: str) -> int:
    return len(palindromic_substrings(text))


def is_rich_naive(text: str) -> bool:
    return distinct_palindromes_including_empty(text) == len(text) + 1


def occurrences(text: str, sub: str) -> list[int]:
    out = []
    start = text.find(sub)
    while start >= 0:
        out.append(start)
        start = text.find(sub, start + 1)
    return out


def complete_returns_naive(text: str, sub: str) -> list[str]:
    occ = occurrences(text, sub)
    return [text[a : b + len(sub)] for a, b in zip(occ, occ[1:])]


def all_returns_to_palindromes_palindromic(text: str) -> bool:
    for p in palindromic_substrings(text):
        if not p:
            continue
        for r in complete_returns_naive(text, p):
            if r != r[::-1]:
                return False
    return True


def returns_report_naive(text: str):
    """(rich, witness, first violating prefix, defect) of the return check.

    The witness is the least palindrome in string order that has a
    non-palindromic complete return, with its first such return; string
    order is the library's order when the alphabet lists its letters
    alphabetically.  The first violating prefix is the shortest prefix whose
    palindromic suffixes all occur earlier.
    """
    witness = None
    for p in sorted(palindromic_substrings(text) - {""}):
        bad = [r for r in complete_returns_naive(text, p) if r != r[::-1]]
        if bad:
            witness = (p, bad[0])
            break
    seen = set()
    first = None
    for i in range(1, len(text) + 1):
        suffixes = {text[j:i] for j in range(i) if text[j:i] == text[j:i][::-1]}
        if suffixes <= seen and first is None:
            first = i
        seen |= suffixes
    defect = len(text) + 1 - distinct_palindromes_including_empty(text)
    return witness is None, witness, first, defect


def longest_palindromic_suffixes_naive(data) -> list[int]:
    """Per prefix data[:e], e = 1..|data|: the length of its longest palindromic suffix.

    Tries every suffix, longest first.
    """
    out = []
    for e in range(1, len(data) + 1):
        out.append(next(l for l in range(e, 0, -1) if data[e - l : e] == data[e - l : e][::-1]))
    return out


def palindromic_suffix_chains(data) -> list[list[int]]:
    """Per prefix data[:e], e = 1..|data|: its palindromic suffix lengths, descending.

    The chain update S_e from S_{e-1}: L is in S_e iff L-2 is in S_{e-1}
    and data[e-L] = data[e-1], where the empty word (length 0) and a root
    of length -1 always belong to S_{e-1}.  The ``None`` in front is no
    letter, so a suffix spanning all of data[:e-1] never grows.
    """
    padded = [None, *data]
    chain = []
    out = []
    for e, c in enumerate(data, 1):
        chain = [l + 2 for l in (*chain, 0, -1) if padded[e - 1 - l] == c]
        out.append(chain)
    return out


class DictEertree:
    """An eertree grown one letter at a time, with one dict of children per node.

    Every suffix-link walk tests its bounds.  Nodes are numbered as in the
    library: 0 the length -1 root, 1 the empty root, then in creation order.
    ``length[node_at[-1]]`` is the length of the longest palindromic suffix
    of ``data``.
    """

    def __init__(self):
        self.data = bytearray()
        self.length, self.link, self.trans = [-1, 0], [0, 0], [{}, {}]
        self.node_at = []

    def _fits(self, node, pos, c):
        j = pos - self.length[node] - 1
        return j >= 0 and self.data[j] == c

    def push(self, c: int) -> None:
        length, link, trans = self.length, self.link, self.trans
        pos = len(self.data)
        self.data.append(c)
        cur = self.node_at[-1] if self.node_at else 1
        while not self._fits(cur, pos, c):
            cur = link[cur]
        nxt = trans[cur].get(c)
        if nxt is None:
            nxt = len(length)
            suffix = 1
            if cur != 0:
                suffix = link[cur]
                while not self._fits(suffix, pos, c):
                    suffix = link[suffix]
                suffix = trans[suffix][c]
            length.append(length[cur] + 2)
            link.append(suffix)
            trans.append({})
            trans[cur][c] = nxt
        self.node_at.append(nxt)


def eertree_naive(data: bytes):
    """(lengths, suffix links, node_at, transitions) of the eertree of data.

    The ``DictEertree`` of data, pushed letter by letter; transitions maps
    (node, letter) to the child letter·node·letter.
    """
    tree = DictEertree()
    for c in data:
        tree.push(c)
    transitions = {
        (node, c): child for node, row in enumerate(tree.trans) for c, child in row.items()
    }
    return tree.length, tree.link, tree.node_at, transitions


def shortest_palindrome_with_prefix(text: str) -> str:
    """Constraint-filling oracle for palindromic closure.

    A palindrome of length L with a given prefix is fully determined by the
    mirror constraints; the shortest consistent L in [len, 2*len] wins.
    """
    m = len(text)
    for length in range(m, 2 * m + 1):
        letters: list[str | None] = [None] * length
        ok = True
        for i, ch in enumerate(text):
            for pos in (i, length - 1 - i):
                if letters[pos] is None:
                    letters[pos] = ch
                elif letters[pos] != ch:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        filled = "".join(ch if ch is not None else "?" for ch in letters)
        if "?" not in filled and filled == filled[::-1] and filled.startswith(text):
            return filled
    raise AssertionError("no palindrome of length <= 2|w| found")


def is_balanced_naive(text: str) -> bool:
    for l in range(1, len(text) + 1):
        counts = {text[i : i + l].count("a") for i in range(len(text) - l + 1)}
        if counts and max(counts) - min(counts) > 1:
            return False
    return True


def is_balanced_sweep(data: bytes) -> bool:
    """Balance of a binary word (letter 0 = a) by a sweep of every window.

    One pass per window length: balanced iff for every length the a-counts
    of all windows differ by at most one.
    """
    m = len(data)
    for l in range(1, m):
        ones = sum(1 for b in data[:l] if b == 0)
        lo = hi = ones
        for i in range(m - l):
            ones += (1 if data[i + l] == 0 else 0) - (1 if data[i] == 0 else 0)
            if ones < lo:
                lo = ones
            elif ones > hi:
                hi = ones
            if hi - lo > 1:
                return False
    return True


def totient_gcd_sweep(n: int) -> int:
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def all_words(alphabet: str, max_len: int):
    for length in range(max_len + 1):
        for letters in product(alphabet, repeat=length):
            yield "".join(letters)


def closure_naive(idx, n: int):
    """Reversal closure checked at every length 1..n of an index's sets.

    Returns (closed, witness bytes): the witness is taken at the longest
    failing length, the least factor there in sorted order whose reversal
    is absent.
    """
    sets = {m: set(idx.factors(m)) for m in range(1, n + 1)}
    failing = [m for m, fset in sets.items() if any(u[::-1] not in fset for u in fset)]
    if not failing:
        return True, None
    fset = sets[max(failing)]
    return False, min(u for u in fset if u[::-1] not in fset)


def theorem2_rows_naive(w):
    """Identity rows (i, P(i)+P(i+1), C(i+1)-C(i)+2) and their verdict.

    C and P are read from the factor sets of every length of the finite
    word w, projected down from w itself, both counting 0 at length |w|+1.
    """
    m = len(w)
    if m == 0:
        return ((0, 1, 1),), True
    sets = derive_down({w.data}, m, w.data)
    C = [len(s) for s in sets] + [0]
    P = [sum(1 for u in s if u == u[::-1]) for s in sets] + [0]
    rows = tuple(
        (i, P[i] + P[i + 1], C[i + 1] - C[i] + 2) for i in range(m + 1)
    )
    return rows, all(lhs == rhs for _, lhs, rhs in rows)


def extensions_naive(idx, n: int, side: str) -> dict[bytes, bytes]:
    """Sorted right (side "right") or left extension letters of F_n.

    Walks the sorted F_{n+1} and sorts the letters of every factor.
    """
    ext: dict[bytes, list[int]] = {u: [] for u in set(idx.factors(n))}
    for e in idx.factors(n + 1):
        if side == "right":
            ext[e[:-1]].append(e[-1])
        else:
            ext[e[1:]].append(e[0])
    return {u: bytes(sorted(letters)) for u, letters in ext.items()}


def s_word_stack(length: int) -> bytes:
    """The first ``length`` letters of the s-word, by an emission stack.

    Unfolds s_1 = bc, s_n = s_{n-1} a^n s_{n-1} token by token (a, b, c as
    0, 1, 2), restarting one level deeper until ``length`` letters appear.
    """
    out = bytearray()
    level = 1
    while True:
        stack = [("s", level)]
        out.clear()
        while stack and len(out) < length:
            kind, n = stack.pop()
            if kind == "a":
                out.extend([0] * min(n, length - len(out)))
            elif n == 1:
                out.extend([1, 2])
            else:
                stack.extend([("s", n - 1), ("a", n), ("s", n - 1)][::-1])
        if len(out) >= length:
            return bytes(out[:length])
        level += 1


def _close(tree: DictEertree) -> None:
    """Push the letters before the longest palindromic suffix, in reverse.

    The tree's word then is its palindromic closure: the shortest
    palindrome that has the old word as a prefix.
    """
    gap = len(tree.data) - tree.length[tree.node_at[-1]]
    for b in bytes(tree.data[:gap])[::-1]:
        tree.push(b)


def palindromic_closure(text: str) -> str:
    """The shortest palindrome with prefix text, closed on an eertree.

    Independent of the constraint filling of ``shortest_palindrome_with_prefix``.
    """
    from palrich.words import Alphabet

    alphabet = Alphabet(sorted(set(text)))
    tree = DictEertree()
    for ch in text:
        tree.push(alphabet.index(ch))
    _close(tree)
    return alphabet.decode(tree.data)


def episturmian_prefix(directive: str, length: int):
    """Prefix of the iterated palindromic closure along a repeating directive.

    The directive repeats forever.  The closure is computed incrementally on
    an eertree: after each directive letter, the letters before the longest
    palindromic suffix are appended in reverse.  This is the closure route,
    independent of the composed episturmian morphisms of the generators.
    """
    from palrich.words import Alphabet, Word

    alphabet = Alphabet(sorted(set(directive)))
    if length == 0:
        return Word(alphabet)
    tree = DictEertree()
    steps = 0
    while len(tree.data) < length:
        tree.push(alphabet.index(directive[steps % len(directive)]))
        steps += 1
        _close(tree)
    return Word(alphabet, bytes(tree.data[:length]))


def image_windows_all(m, base_top, depth: int) -> set:
    """Every depth-length window of every m(u), u in base_top.

    The scan of all windows, with no restriction to those that start inside
    the image of the first letter.  Each image is joined letter by letter
    from ``m.images``, not through the translate table of ``apply_bytes``.
    """
    images = m.images
    top = set()
    for u in base_top:
        img = b"".join(images[b] for b in u)
        for i in range(len(img) - depth + 1):
            top.add(img[i : i + depth])
    return top


def prefix_seeded_closure(m, seed: str, depth: int) -> set:
    """F_depth of the fixed point of m from seed, saturated from a prefix.

    The morphic closure as it first was: it starts from every window of the
    first max(4 * depth, 64) letters, then adds the windows of m(u) that
    start inside m(u[0]) for each new window u, until none is new.  The
    prefix and every image are joined letter by letter from ``m.images``.
    """
    if depth == 0:
        return {b""}
    images = m.images
    length = max(4 * depth, 64)
    prefix = bytes([m.alphabet.index(seed)])
    while len(prefix) < length:
        prefix = b"".join(images[b] for b in prefix)[:length]
    top = {prefix[i : i + depth] for i in range(length - depth + 1)}
    frontier = list(top)
    while frontier:
        fresh = []
        for u in frontier:
            img = b"".join(images[b] for b in u)
            for i in range(len(images[u[0]])):
                if img[i : i + depth] not in top:
                    top.add(img[i : i + depth])
                    fresh.append(img[i : i + depth])
        frontier = fresh
    return top


def rauzy_graph_naive(idx, n: int) -> dict:
    """Out-edges, degrees and special factors of the order-n Rauzy graph.

    Two loops over the sorted F_{n+1}: the first files each edge under its
    prefix and counts it at its suffix, the second collects the left
    letters of each suffix.  Keys follow the sorted F_n.
    """
    vertices = idx.factors(n)
    edges = idx.factors(n + 1)
    out = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for e in edges:
        out[e[:-1]].append(e)
        indeg[e[1:]] += 1
    left = {v: set() for v in vertices}
    for e in edges:
        left[e[1:]].add(e[0])
    return {
        "out_edges": {v: tuple(es) for v, es in out.items()},
        "out_degree": {v: len(es) for v, es in out.items()},
        "in_degree": indeg,
        "right_special": frozenset(v for v in vertices if len(out[v]) >= 2),
        "left_special": frozenset(v for v in vertices if len(left[v]) >= 2),
    }


def psi_of_fibonacci_naive(k: int, length: int):
    """The first ``length`` letters of psi_k(f), from max(length, 8) letters of f.

    Maps a Fibonacci prefix at least as long as the output, so the cut
    never depends on how long the images of psi_k are.
    """
    from palrich.generators import FIBONACCI, psi_morphism
    from palrich.words import fixed_point, morphic_image

    base = fixed_point(FIBONACCI, "a", max(length, 8))
    return morphic_image(psi_morphism(k), base)[:length]


def derive_down(top, depth: int, source: bytes | None = None) -> list:
    """Factor sets of lengths 0..depth from the top set F_depth.

    Every factor of an infinite word extends to the right, so F_n is the set
    of length-n prefixes of F_{n+1}.  In a finite word ``source`` the only
    occurrence that may lack a right neighbour is its final length-n
    suffix, which is added back at every level.
    """
    sets = [frozenset()] * (depth + 1)
    sets[depth] = frozenset(top)
    for n in range(depth - 1, -1, -1):
        shorter = (u[:n] for u in sets[n + 1])
        if source is not None:
            shorter = chain(shorter, (source[len(source) - n :],))
        sets[n] = frozenset(shorter)
    return sets


def specials_evolution(idx):
    """S_n for n = 0..idx.n_max, each from the last by factor membership.

    Cassaigne's evolution (fact 1 of ``rauzy``): a right-special x of
    length n+1 has a right-special x[1:], and a left-special x a
    left-special x[:-1], so S_{n+1} lies among the one-letter extensions
    of S_n, and each candidate is judged by 2k ``has_factor`` tests.  Each
    order maps its special factors to their (left, right) letters, both
    sorted.
    """
    has = idx.has_factor
    letters = range(idx.alphabet.size)

    def extensions(x):
        return (
            bytes(a for a in letters if has(bytes((a,)) + x)),
            bytes(c for c in letters if has(x + bytes((c,)))),
        )

    specials = {}
    for n in range(idx.n_max + 1):
        if n == 0:
            candidates = {b""}
        else:
            candidates = set()
            for w, (left, right) in specials.items():
                if len(right) > 1:
                    candidates.update(bytes((a,)) + w for a in left)
                if len(left) > 1:
                    candidates.update(w + bytes((c,)) for c in right)
        specials = {}
        for x in candidates:
            left, right = ext = extensions(x)
            if len(left) > 1 or len(right) > 1:
                specials[x] = ext
        yield specials


def super_reduce_per_path(rg):
    """The super-reduced graph of ``rg``, each class computed where it is read.

    Every path takes the least member of its source's, its target's and
    its label's reversal class on its own, three ``min`` calls, and a path
    is dropped as w -> reversal of w by comparing its target with the
    reversed source alone.  The classes of the vertices form their own set.
    """
    from palrich.rauzy import SuperEdge, SuperReducedRauzyGraph

    def least(w):
        return min(w, w[::-1])

    classes = sorted({least(v) for v in rg.vertices})
    grouped = {}
    for path in rg.edges:
        if path.target == path.source[::-1]:
            continue
        ka, kb = sorted((least(path.source), least(path.target)))
        grouped.setdefault((ka, kb), set()).add(least(path.label))
    edges = tuple(
        SuperEdge(ka, kb, label)
        for (ka, kb), labels in sorted(grouped.items())
        for label in sorted(labels)
    )
    return SuperReducedRauzyGraph(rg.n, tuple(classes), edges)
