"""The sorted-window index against per-length sets projected from its top set.

``FactorIndex`` keeps one sorted tuple of windows and reads C, P,
membership, every F_n and the extension maps off it.  The oracle here is
the projection of ``derive_down``: every set F_0..F_D, built from the top
set alone, as the index did before it kept only the windows.  Closure
witnesses are the first failing factor in index (sorted) order.
"""

import contextlib
import io
import json
import tracemalloc
from itertools import pairwise
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from palrich import factors
from palrich.cli import main
from palrich.errors import OutOfRange, TooLarge
from palrich.factors import (
    FactorIndex,
    build_index,
    image_factor_sets,
    is_closed_under_reversal,
    morphic_factor_sets,
    periodic_factor_sets,
    s_word_factor_sets,
)
from palrich.generators import (
    FIBONACCI,
    REGISTRY,
    THUE_MORSE,
    episturmian_morphism,
    get_family,
    psi_morphism,
)
from palrich.words import Alphabet, Morphism, Word, s_word

from oracles import all_words, derive_down, extensions_naive, rauzy_graph_naive

ABC = Word.parse("abc").alphabet


class ProjectedSets:
    """F_0..F_D of one word, projected down from its top set.

    What the comparisons read off each F_n is computed once, however many
    indexes of different depths are compared with it.
    """

    def __init__(self, top, depth: int, word: bytes | None = None):
        self.sets = derive_down(top, depth, word)
        self.sorted = [tuple(sorted(s)) for s in self.sets]
        self.palindromes = [sum(u == u[::-1] for u in s) for s in self.sets]
        self.closure = [self._closure(n) for n in range(depth + 1)]
        self.extensions = {
            (n, side): sorted(extensions_naive(self, n, side).items())
            for n in range(depth)
            for side in ("right", "left")
        }

    def factor_set(self, n):
        return self.sets[n]

    def factors(self, n):
        return self.sorted[n]

    def _closure(self, n):
        """Reversal closure of F_n; the witness is the least failing factor."""
        failing = [u for u in self.sets[n] if u[::-1] not in self.sets[n]]
        return (False, min(failing)) if failing else (True, None)


def assert_index_matches(idx, oracle):
    depth = idx.n_max + 1
    P = idx.palindrome_counts()
    assert len(P) == depth + 1
    for n in range(depth + 1):
        fset = oracle.factor_set(n)
        assert idx.complexity(n) == len(fset), n
        assert P[n] == oracle.palindromes[n], n
        assert set(idx.factors(n)) == fset, n
        assert idx.factors(n) == oracle.factors(n), n
        assert all(map(idx.has_factor, fset)), n
    # Closure at a shorter length is that of the index of that depth, which
    # the callers build too.
    closed, witness = is_closed_under_reversal(idx)
    assert (closed, witness and witness.data) == oracle.closure[depth]
    for n in range(depth):
        for side, ext in (("right", idx.right_extensions), ("left", idx.left_extensions)):
            assert list(ext(n).items()) == oracle.extensions[n, side], (side, n)
    letters = "".join(idx.alphabet.letters)
    for text in all_words(letters, 4):
        u = idx.alphabet.encode(text)
        if len(u) <= depth:
            assert idx.has_factor(u) == (u in oracle.factor_set(len(u))), text
        else:
            with pytest.raises(OutOfRange):
                idx.has_factor(u)


@given(st.text(alphabet="abc", min_size=1, max_size=40))
@example("abbbbab")
@example("a" * 12 + "b")
@example("ab")
@example("a")
@settings(max_examples=60, deadline=None)
def test_index_matches_projected_sets_on_literal_words(text):
    w = Word.parse(text, ABC)
    data = w.data
    for n_max in range(len(w)):
        depth = n_max + 1
        top = {data[i : i + depth] for i in range(len(data) - depth + 1)}
        assert_index_matches(build_index(w, n_max), ProjectedSets(top, depth, data))


FAMILIES = [(name, {}) for name in sorted(REGISTRY)] + [
    ("periodic", {"block": "abc"}),
    ("morphic", {"morphism": "a->ab,b->bc,c->a"}),
    ("episturmian", {"directive": "c"}),
]


def right_extended(idx):
    """The precondition of ``rauzy.carried_graphs``.

    Every factor of length n_max has a right extension, and then so has
    every shorter one.
    """
    return all(idx.right_extensions(idx.n_max).values())


@pytest.mark.parametrize("name,params", FAMILIES)
def test_every_factor_has_a_right_extension(name, params):
    family = get_family(name, **params)
    for n_max in (0, 1, 7, 30):
        assert right_extended(family.index(n_max)), n_max


def test_a_finite_word_breaks_the_precondition():
    # The suffix bab of abbbbab occurs only at its end, and so does every
    # longer suffix; the shorter ones b and ab occur earlier too.
    w = Word.parse("abbbbab", ABC)
    assert [right_extended(build_index(w, n_max)) for n_max in range(len(w))] == [
        True, True, True, False, False, False, False,
    ]


@pytest.mark.parametrize("name,params", FAMILIES)
def test_index_matches_projected_sets_on_families(name, params):
    family = get_family(name, **params)
    oracle = ProjectedSets(family.exact_sets(61), 61)
    for n_max in range(61):
        idx = family.index(n_max)
        assert_index_matches(idx, oracle)


def _analyze_rows(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--format", "json", *argv]) == 0
    return json.loads(out.getvalue())["rows"]


def _special_counts(idx, n):
    graph = rauzy_graph_naive(idx, n)
    right, left = graph["right_special"], graph["left_special"]
    return [len(right), len(left), len(right & left)]


def _row_counts(row):
    return [row["right_special"], row["left_special"], row["bispecial"]]


@given(st.text(alphabet="abc", min_size=2, max_size=40))
@example("abbbbab")
@example("a" * 12 + "b")
@example("ab")
@settings(max_examples=40, deadline=None)
def test_analyze_special_counts_match_special_factors_on_literal_words(text):
    w = Word.parse(text)
    for n_max in range(1, len(w) + 1):
        idx = build_index(w, min(n_max, len(w) - 1))
        rows = _analyze_rows("--word", text, "--n-max", str(n_max))
        # A literal word has orders up to |w| - 1: F_{|w|} is the word itself.
        assert len(rows) == min(n_max, len(w) - 1) + 1
        for row in rows:
            assert _row_counts(row) == _special_counts(idx, row["n"]), (n_max, row["n"])


@pytest.mark.parametrize("name,params", FAMILIES)
def test_analyze_special_counts_match_special_factors_on_families(name, params):
    flags = [f"--{key}={value}" for key, value in params.items()]
    rows = _analyze_rows("--generator", name, *flags, "--n-max", "60", "--prefix-cap", "64")
    idx = get_family(name, **params).index(60)
    assert [row["n"] for row in rows] == list(range(61))
    for row in rows:
        assert _row_counts(row) == _special_counts(idx, row["n"]), row["n"]


@st.composite
def window_sets(draw):
    """Windows of mixed lengths over up to 26 letters, some prefixes of others."""
    top_letter = draw(st.sampled_from([1, 2, 25]))
    word = st.lists(st.integers(0, top_letter), min_size=1, max_size=12).map(bytes)
    words = draw(st.lists(word, min_size=1, max_size=20))
    cuts = draw(st.lists(st.integers(1, 12), max_size=len(words)))
    return set(words) | {w[:cut] for w, cut in zip(words, cuts)}


@given(window_sets())
@example({b"\x00\x01", b"\x00\x01\x00"})
@example({bytes((c,)) for c in range(26)} | {bytes((c, c)) for c in range(26)})
@settings(max_examples=200, deadline=None)
def test_complexity_counts_prefixes_of_any_window_set(top):
    # C(n) is the number of distinct n-prefixes of the windows with at
    # least n letters, whatever their lengths and letters; the depth is the
    # longest window's length.
    idx = FactorIndex(Alphabet("abcdefghijklmnopqrstuvwxyz"), top)
    n_max = max(map(len, top)) - 1
    assert idx.n_max == n_max
    for n in range(n_max + 2):
        prefixes = {g[:n] for g in top if len(g) >= n}
        assert idx.complexity(n) == len(prefixes), n
        assert idx.factors(n) == tuple(sorted(prefixes)), n


@pytest.mark.parametrize("top", [set(), {b""}], ids=["empty", "empty-word"])
def test_an_index_needs_a_window_of_one_letter(top):
    with pytest.raises(ValueError):
        FactorIndex(ABC, top)


def test_index_keeps_no_per_length_sets():
    # Every F_n, n <= 122, kept as a set took a peak of about 50 MiB.
    tracemalloc.start()
    try:
        idx = get_family("cassaigne-aab").index(121)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.complexity(122) == 6913
    assert peak < 8 << 20, peak


# -- the budget on D * C(D) ----------------------------------------------------


def test_every_source_raises_too_large_over_the_budget(monkeypatch):
    cas = Morphism.parse("a->aab,b->b")
    fibonacci_top = morphic_factor_sets(Morphism.parse("a->ab,b->a"), "a", 200)
    # At depth 20 the a -> aab fixed point has 167 factors: 3,340 letters.
    monkeypatch.setattr(factors, "FACTOR_LETTER_BUDGET", 3340)
    top = morphic_factor_sets(cas, "a", 20)
    assert len(top) == 167
    assert FactorIndex(cas.alphabet, top).complexity(20) == 167
    monkeypatch.setattr(factors, "FACTOR_LETTER_BUDGET", 3339)
    with pytest.raises(TooLarge):
        morphic_factor_sets(cas, "a", 20)
    with pytest.raises(TooLarge):
        FactorIndex(cas.alphabet, top)
    with pytest.raises(TooLarge):
        image_factor_sets(psi_morphism(0), fibonacci_top, 200)
    with pytest.raises(TooLarge):
        periodic_factor_sets(Word.parse("ab" * 30 + "b"), 100)
    with pytest.raises(TooLarge):
        s_word_factor_sets(100)
    with pytest.raises(TooLarge):
        build_index(s_word(4000), 99)


@pytest.mark.parametrize(
    "m", [FIBONACCI, THUE_MORSE, episturmian_morphism("abc")],
    ids=["fibonacci", "thue-morse", "tribonacci"],
)
def test_the_morphic_closure_checks_the_budget_as_its_set_grows(monkeypatch, m):
    # The closure starts from one window, and each factor adds at most
    # max|m(a)| windows before the next check, so a set over the budget is
    # caught within max|m(a)| windows of it.  At depth 40 every window of a
    # 160-letter prefix would be more than max|m(a)| windows at once.
    counts = [1]
    check = factors._check_budget

    def record(count, depth):
        counts.append(count)
        check(count, depth)

    monkeypatch.setattr(factors, "_check_budget", record)
    top = morphic_factor_sets(m, "a", 40)
    assert max(b - a for a, b in pairwise(counts)) <= max(map(len, m.images))
    assert counts[-1] == len(top)


def test_over_budget_analyze_exits_fast():
    # C(n) grows like n^2/2 on the a -> aab fixed point, so D * C(D) grows
    # like D^3/2 and the closure stops long before it would fill memory.
    err = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", "--generator", "cassaigne-aab", "--n-max", "1000"])
    assert code == 1
    assert err.getvalue().startswith("error: ") and "budget" in err.getvalue()
    assert perf_counter() - start < 30


def test_fibonacci_analyze_reaches_order_1000():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--generator", "fibonacci", "--n-max", "1000", "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert len(rows) == 1001
    for n, (order, c, p, slack, *_) in enumerate(rows):
        assert (int(order), int(c), int(p), int(slack)) == (n, n + 1, 1 + n % 2, 0)
