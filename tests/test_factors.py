import pytest
from hypothesis import given, settings, strategies as st

from palrich import factors
from palrich.errors import OutOfRange, StabilizationFailed, WordTooShort
from palrich.factors import (
    FactorIndex,
    _image_windows,
    build_index,
    finite_complexity,
    image_factor_sets,
    is_closed_under_reversal,
    morphic_factor_sets,
    periodic_factor_sets,
    s_word_factor_sets,
    stabilized_prefix,
)
from palrich.generators import (
    CASSAIGNE_AAB,
    REGISTRY,
    episturmian_morphism,
    family_block,
    get_family,
    psi_morphism,
)
from palrich.words import (
    Alphabet,
    Morphism,
    Word,
    fixed_point,
    morphic_image,
    periodic_word,
    s_word,
)

from oracles import (
    SMALL_LOCAL_LANGUAGE_ROWS,
    all_words,
    closure_naive,
    complete_returns_naive,
    derive_down,
    extensions_naive,
    image_windows_all,
    local_languages,
    occurrences,
    prefix_seeded_closure,
    rauzy_graph_naive,
    specials_evolution,
    window_factors,
)
from paper_facts import complexity_difference_identity, recurrence_probe

FIB = Morphism.parse("a->ab,b->a")
TM = Morphism.parse("a->ab,b->ba")
CAS = Morphism.parse("a->aab,b->b")


def decode_set(idx, n):
    return {idx.alphabet.decode(u) for u in set(idx.factors(n))}


def test_build_index_examples():
    idx = build_index(Word.parse("abaab"), 2)
    assert decode_set(idx, 2) == {"ab", "ba", "aa"}
    assert idx.complexity(2) == 3
    idx = build_index(Word.parse("aaaa"), 2)
    assert decode_set(idx, 1) == {"a"}
    assert decode_set(idx, 2) == {"aa"}
    assert all(idx.complexity(n) == 1 for n in (1, 2, 3))
    idx = build_index(Word.parse("abca"), 2)
    assert decode_set(idx, 2) == {"ab", "bc", "ca"}


def test_has_factor_answers_only_up_to_the_index_depth():
    # b^20 is a factor of the a -> aab fixed point, but no b-run that long
    # occurs in its 65,536-letter prefix.
    idx = get_family("cassaigne-aab").index(10)
    b20 = b"\x01" * 20
    assert b20 in morphic_factor_sets(CASSAIGNE_AAB, "a", 20)
    assert b20 not in get_family("cassaigne-aab").produce(1 << 16).data
    assert idx.has_factor(b"\x01" * 11)
    with pytest.raises(OutOfRange):
        idx.has_factor(b20)
    idx = build_index(Word.parse("abaab"), 2)
    assert idx.has_factor(b"\x01\x00\x00")
    with pytest.raises(OutOfRange):
        idx.has_factor(b"\x00\x01\x00\x00")


def test_build_index_requires_long_enough_word():
    with pytest.raises(WordTooShort):
        build_index(Word.parse("ab"), 2)


def test_factor_complexity_bounds_and_oracle():
    w = fixed_point(FIB, "a", 300)
    idx = build_index(w, 9)
    for n in range(11):
        assert idx.complexity(n) == len(window_factors(w.text, n))
    with pytest.raises(OutOfRange):
        idx.complexity(11)


def test_fibonacci_complexity_is_n_plus_1():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 10)
    assert all(sp.stable_lengths)
    assert sp.index.complexity(7) == 8
    for n in range(12):
        assert sp.index.complexity(n) == n + 1


def test_tribonacci_complexity_is_2n_plus_1():
    fam = get_family("tribonacci")
    w = fam.produce(2000)
    idx = build_index(w, 11)
    assert idx.complexity(10) == 21


def special_factors(idx, n):
    """(right, left, bispecial) sorted texts of order n, from the index.

    The special factors come from ``FactorIndex.specials``, the route of
    ``palrich analyze``, and are checked against the edge-by-edge graph.
    """
    specials = list(idx.specials())[n]
    right = sorted(u for u, (_, r) in specials.items() if len(r) > 1)
    left = sorted(u for u, (is_left, _) in specials.items() if is_left)
    naive = rauzy_graph_naive(idx, n)
    assert set(right) == naive["right_special"] and set(left) == naive["left_special"]
    decode = idx.alphabet.decode
    both = sorted(set(right) & set(left))
    return [decode(u) for u in right], [decode(u) for u in left], [decode(u) for u in both]


def test_special_factors_fibonacci():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 8)
    right, left, both = special_factors(sp.index, 2)
    assert right == ["ba"]
    assert left == ["ab"]
    assert both == []
    assert not [u for u in right + left if u == u[::-1]]  # no special palindrome


def test_special_factors_unary_and_thue_morse():
    idx = build_index(Word.parse("aaaa"), 2)
    right, left, _ = special_factors(idx, 1)
    assert right == [] and left == []
    sp = stabilized_prefix(lambda l: fixed_point(TM, "a", l), 8)
    right, _, _ = special_factors(sp.index, 2)
    rs = set(right)
    # window-scan oracle: right-special length-2 factors of thue-morse
    text = fixed_point(TM, "a", 512).text
    expect = {
        v
        for v in window_factors(text, 2)
        if len({w[-1] for w in window_factors(text, 3) if w.startswith(v)}) >= 2
    }
    assert rs == expect == {"ab", "ba"}


def assert_specials_match_evolution(idx):
    """``idx.specials()`` equals the membership evolution at every order."""
    expected = [
        {u: (len(left) > 1, right) for u, (left, right) in specials.items()}
        for specials in specials_evolution(idx)
    ]
    assert list(idx.specials()) == expected


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_specials_match_the_evolution_on_registry_families(name):
    assert_specials_match_evolution(get_family(name).index(60))


@pytest.mark.parametrize("name", ["cassaigne-aab", "quadratic-abab"])
def test_specials_match_the_evolution_at_deep_orders(name):
    # The shared tails are long here, and at the top order every left
    # special that is not right special reads its letter off G.
    assert_specials_match_evolution(get_family(name).index(120))


@pytest.mark.parametrize("k, n, count", SMALL_LOCAL_LANGUAGE_ROWS)
def test_specials_match_the_evolution_on_every_small_local_language(k, n, count):
    languages = list(local_languages(k, n))
    assert len(languages) == count
    for top in languages:
        assert_specials_match_evolution(FactorIndex(Alphabet("abc"[:k]), top))


@pytest.mark.parametrize(
    "name, params",
    [
        ("periodic", {"block": "abacbabc"}),
        ("periodic", {"block": "abcacbac"}),
        ("periodic", {"block": "abcbacbc"}),
        ("periodic", {"block": "abaababaabaababaababaabaababaabaabac"}),
        ("morphic", {"morphism": "a->abab,b->baba"}),
        ("morphic", {"morphism": "a->ab,b->bb"}),
    ],
)
def test_specials_match_the_evolution_on_the_theorem_corpora(name, params):
    assert_specials_match_evolution(get_family(name, **params).index(30))


@given(st.text(alphabet="abc", min_size=1, max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_specials_match_the_evolution_on_literal_words(text, data):
    n_max = data.draw(st.integers(0, len(text) - 1))
    assert_specials_match_evolution(build_index(Word.parse(text), n_max))


def test_specials_of_a_fixed_point_that_is_not_recurrent():
    # In abbb..., the fixed point of a -> ab, b -> bb, every b^n is left
    # special (ab^n, b^(n+1)) and none is right special.  The right specials
    # of the sorted reversed windows miss the b^n with n < D - 1.
    idx = get_family("morphic", morphism="a->ab,b->bb").index(12)
    for n, specials in enumerate(idx.specials()):
        if n:
            assert specials == {b"\x01" * n: (True, b"\x01")}, n


def test_complexity_difference_identity():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 8)
    assert complexity_difference_identity(sp.index, 5) == (1, 1)
    idx = build_index(Word.parse("aaaaaaaa"), 4)
    assert complexity_difference_identity(idx, 2) == (0, 0)
    fam = get_family("tribonacci")
    sp = stabilized_prefix(fam.produce, 8)
    assert complexity_difference_identity(sp.index, 4) == (2, 2)


@given(st.text(alphabet="ab", min_size=6, max_size=40))
@settings(max_examples=60)
def test_degree_sums_equal_next_complexity(text):
    w = Word.parse(text, None) if len(set(text)) > 1 else Word.parse(text)
    n_max = min(5, len(w) - 1)
    idx = build_index(w, n_max)
    for n in range(n_max):
        right = idx.right_extensions(n)
        left = idx.left_extensions(n)
        assert sum(map(len, right.values())) == idx.complexity(n + 1)
        assert sum(map(len, left.values())) == idx.complexity(n + 1)


def _complexity_by_sets(w):
    m = len(w)
    if m == 0:
        return [1]
    idx = build_index(w, m - 1)
    return [idx.complexity(n) for n in range(m + 1)]


@given(
    st.one_of(st.text(alphabet="ab", max_size=200), st.text(alphabet="abc", max_size=120))
)
@settings(max_examples=80)
def test_finite_complexity_matches_factor_sets(text):
    w = Word.parse(text, Word.parse("abc").alphabet)
    assert finite_complexity(w) == _complexity_by_sets(w)


def test_finite_complexity_on_runs_short_words_and_fixed_points():
    alpha = Word.parse("ab").alphabet
    for n in (1, 2, 3, 7, 64, 257):
        run = Word.parse("a" * n, alpha)
        assert finite_complexity(run) == [1] * (n + 1)
        tail = Word.parse("a" * n + "b", alpha)
        assert finite_complexity(tail) == _complexity_by_sets(tail)
        assert finite_complexity(tail) == [1] + [2] * n + [1]
    assert finite_complexity(Word(alpha)) == [1]
    assert finite_complexity(Word.parse("b", alpha)) == [1, 1]
    for m in (FIB, TM):
        w = fixed_point(m, "a", 300)
        assert finite_complexity(w) == _complexity_by_sets(w)


@pytest.mark.parametrize("text", ["a", "ab", "abaab", "abbaabba", "aabcaab", "cbaabc"])
def test_extension_maps_match_sorted_walk_on_literal_words(text):
    w = Word.parse(text, Word.parse("abc").alphabet)
    idx = build_index(w, len(text) - 1)
    for n in range(idx.n_max + 1):
        assert idx.right_extensions(n) == extensions_naive(idx, n, "right"), n
        assert idx.left_extensions(n) == extensions_naive(idx, n, "left"), n


def test_complete_returns_examples():
    text = fixed_point(FIB, "a", 60).text
    returns = complete_returns_naive(text, "aa")
    assert "aabaa" in returns and "aababaa" in returns
    assert all(r.startswith("aa") and r.endswith("aa") for r in returns)
    assert complete_returns_naive("abca", "a") == ["abca"]
    assert complete_returns_naive("aaa", "a") == ["aa", "aa"]


@given(st.text(alphabet="ab", min_size=2, max_size=30))
@settings(max_examples=60)
def test_complete_returns_contain_exactly_two_occurrences(text):
    w = Word.parse(text)
    idx = build_index(w, min(4, len(w) - 1))
    for u in idx.factors(1) + idx.factors(min(2, len(w))):
        sub = w.alphabet.decode(u)
        if len(occurrences(text, sub)) < 2:
            continue
        for r in complete_returns_naive(text, sub):
            hits = [i for i in range(len(r) - len(sub) + 1) if r[i : i + len(sub)] == sub]
            assert len(hits) == 2
            assert hits[0] == 0 and hits[-1] == len(r) - len(sub)


def test_closure_fibonacci_and_unary():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 9)
    ok, witness = is_closed_under_reversal(sp.index)
    assert ok and witness is None
    idx = build_index(Word.parse("aaaa"), 1)
    assert is_closed_under_reversal(idx) == (True, None)


def test_closure_s_word_witness():
    idx = build_index(s_word(500), 2)
    ok, witness = is_closed_under_reversal(idx)
    assert not ok
    # The first length-3 factor in index order whose reversal is absent: no
    # b is preceded by an a.
    assert witness.text == "aab"
    assert witness.reversed().text == "baa"


def _closure_pair(idx):
    ok, witness = is_closed_under_reversal(idx)
    return ok, witness and witness.data


def test_closure_at_top_length_matches_all_lengths_on_small_words():
    base = Word.parse("abc").alphabet
    for text in all_words("abc", 7):
        if not text:
            continue
        w = Word.parse(text, base)
        idx = build_index(w, len(text) - 1)
        # The index of depth n checks length n.
        for n in range(1, len(text) + 1):
            assert _closure_pair(build_index(w, n - 1)) == closure_naive(idx, n), (text, n)


CLOSURE_FAMILIES = [
    ("s-word", {}, False),
    ("periodic", {"block": "abc"}, False),
    ("morphic", {"morphism": "a->ab,b->bc,c->a"}, False),
    ("fibonacci", {}, True),
    ("tribonacci", {}, True),
    ("periodic", {"block": family_block(0).text}, True),
    ("periodic", {"block": family_block(1).text}, True),
    ("periodic", {"block": family_block(2).text}, True),
    ("psi-of-fibonacci", {"k": 0}, True),
    ("psi-of-fibonacci", {"k": 1}, True),
    ("psi-of-fibonacci", {"k": 2}, True),
    ("cassaigne-aab", {}, True),
    ("quadratic-abab", {}, True),
    ("morphic", {"morphism": "a->aba,b->bb"}, True),
    ("thue-morse", {}, True),
]


@pytest.mark.parametrize("name,params,closed", CLOSURE_FAMILIES)
def test_closure_at_top_length_matches_all_lengths_on_families(name, params, closed):
    family = get_family(name, **params)
    idx = family.index(12)
    # The index of depth n checks length n.
    for n in range(1, idx.n_max + 2):
        assert _closure_pair(family.index(n - 1)) == closure_naive(idx, n), (name, n)
    assert is_closed_under_reversal(idx)[0] is closed


@pytest.mark.parametrize("name,params,closed", CLOSURE_FAMILIES)
def test_extension_maps_match_sorted_walk_on_families(name, params, closed):
    idx = get_family(name, **params).index(12)
    for n in range(idx.n_max + 1):
        assert idx.right_extensions(n) == extensions_naive(idx, n, "right"), (name, n)
        assert idx.left_extensions(n) == extensions_naive(idx, n, "left"), (name, n)


def test_recurrence_probe():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 10, len_cap=1 << 14)
    assert recurrence_probe(sp.word[:10000].data, 10, 3)
    assert not recurrence_probe(Word.parse("abbbb").data, 1, 2)
    assert recurrence_probe(periodic_word(Word.parse("ab"), 100).data, 2, 5)


def test_stabilized_prefix_behaviour():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 20)
    assert all(sp.stable_lengths) and len(sp.word) <= 2048
    sp = stabilized_prefix(lambda l: periodic_word(Word.parse("a"), l), 5)
    assert all(sp.stable_lengths) and len(sp.word) == 48
    # Capped run is flagged, not thrown: each doubling of the a->aab fixed
    # point reveals a longer b-run, so it can never go quiet under a cap.
    sp = stabilized_prefix(lambda l: fixed_point(CAS, "a", l), 24, len_cap=2048)
    assert not all(sp.stable_lengths)


def test_stabilized_cassaigne_requires_morphic_sets():
    # At n_max 30 the b-run factors live beyond any reasonable prefix;
    # the doubling loop must cap out rather than claim success.
    sp = stabilized_prefix(lambda l: fixed_point(CAS, "a", l), 30, len_cap=1 << 14)
    exact = morphic_factor_sets(CAS, "a", 31)
    assert len(exact) > sp.index.complexity(31)


@pytest.mark.parametrize(
    "morphism,seed",
    [(FIB, "a"), (TM, "a"), (CAS, "a"), (Morphism.parse("a->abab,b->b"), "a")],
)
def test_morphic_factor_sets_match_prefix_scan(morphism, seed):
    depth = 8
    sets = derive_down(morphic_factor_sets(morphism, seed, depth), depth)
    # Direct long-prefix oracle at small depth.
    text = fixed_point(morphism, seed, 3000).text
    for n in range(depth + 1):
        got = {morphism.alphabet.decode(u) for u in sets[n]}
        assert got == window_factors(text, n), f"length {n}"


# The registry's morphisms (fibonacci, tribonacci, thue-morse, cassaigne-aab,
# quadratic-abab and the default episturmian word; morphic and psi default
# to fibonacci's), then a->ab,b->bb (not recurrent), a->aba,b->bb (not
# primitive), a->aa,b->b (b never occurs) and a->abab,b->baba.
SEEDED_CLOSURE_CASES = {
    "fibonacci": FIB,
    "tribonacci": episturmian_morphism("abc"),
    "thue-morse": TM,
    "cassaigne-aab": CAS,
    "quadratic-abab": Morphism.parse("a->abab,b->b"),
    "episturmian-ab": episturmian_morphism("ab"),
    **{
        spec: Morphism.parse(spec)
        for spec in ("a->ab,b->bb", "a->aba,b->bb", "a->aa,b->b", "a->abab,b->baba")
    },
}


@pytest.mark.parametrize("m", list(SEEDED_CLOSURE_CASES.values()), ids=list(SEEDED_CLOSURE_CASES))
def test_closure_from_one_window_matches_the_prefix_seeded_closure(m):
    for depth in range(41):
        assert morphic_factor_sets(m, "a", depth) == prefix_seeded_closure(m, "a", depth), depth


@pytest.mark.parametrize("m,depth", [(CAS, 121), (FIB, 301)], ids=["cassaigne-aab", "fibonacci"])
def test_closure_from_one_window_matches_the_prefix_seeded_closure_deep(m, depth):
    assert morphic_factor_sets(m, "a", depth) == prefix_seeded_closure(m, "a", depth)


def test_the_closure_stops_at_its_round_limit(monkeypatch):
    # Fibonacci's closure at depth 31 takes 8 rounds.
    monkeypatch.setattr(factors, "CLOSURE_ROUND_LIMIT", 2)
    with pytest.raises(StabilizationFailed, match="within 2 rounds"):
        morphic_factor_sets(FIB, "a", 31)


def test_image_factor_sets_match_prefix_scan():
    depth = 8
    base = morphic_factor_sets(FIB, "a", depth)
    psi = psi_morphism(1)
    sets = derive_down(image_factor_sets(psi, base, depth), depth)
    text = morphic_image(psi, fixed_point(FIB, "a", 4000)).text
    for n in range(depth + 1):
        got = {psi.alphabet.decode(u) for u in sets[n]}
        assert got == window_factors(text[: 3 * 4000 - 50], n)


def _first_image_cases():
    # (label, morphism, sets of lengths 0..80 of the word it is applied to,
    # whether the morphism fixes that word): the morphic registry families,
    # the composed episturmian morphisms, and psi on the Fibonacci word.
    fixed = [
        (spec, Morphism.parse(spec), "a")
        for spec in (
            "a->ab,b->a",
            "a->ab,b->ba",
            "a->aab,b->b",
            "a->abab,b->b",
            "a->aba,b->bb",
            "a->ab,b->bc,c->a",
        )
    ]
    for directive in ("ab", "abc", "aab", "abcb", "abbc", "aabc"):
        fixed.append((directive, episturmian_morphism(directive), directive[0]))
    for label, m, seed in fixed:
        sets = derive_down(morphic_factor_sets(m, seed, 80), 80)
        yield pytest.param(label, m, sets, True, id=label)
    fibonacci = derive_down(morphic_factor_sets(FIB, "a", 80), 80)
    for k in range(3):
        yield pytest.param(f"psi k={k}", psi_morphism(k), fibonacci, False, id=f"psi-k{k}")


@pytest.mark.parametrize("label, m, base, is_fixed", list(_first_image_cases()))
def test_image_windows_from_first_letter_match_all_windows(label, m, base, is_fixed):
    # image_factor_sets returns the windows of depth 80, so the windows are
    # compared at every depth and its set, projected down, once at depth 80.
    for depth in range(1, 81):
        got = set()
        _image_windows(m, base[depth], depth, got)
        assert got == image_windows_all(m, base[depth], depth), (label, depth)
        if is_fixed:
            # The image of a fixed point's factor set is that set again.
            assert got == base[depth], (label, depth)
    sets = derive_down(image_factor_sets(m, base[80], 80), 80)
    assert sets == [{u[:n] for u in got} for n in range(81)], label


def test_s_word_factor_sets_match_prefix_scan():
    prefix = s_word(1 << 14).data
    doubled = s_word(1 << 15).data
    for d in range(13):
        scanned = window_factors(prefix, d) if d else {b""}
        # The prefix is long enough: doubling it finds no new factor.
        assert scanned == (window_factors(doubled, d) if d else {b""}), d
        sets = derive_down(s_word_factor_sets(d), d)
        assert len(sets) == d + 1
        for n in range(d + 1):
            assert sets[n] == {u[:n] for u in scanned}, (d, n)


def test_periodic_factor_sets_match_prefix_scan():
    block = Word.parse("aabaabab")
    sets = derive_down(periodic_factor_sets(block, 9), 9)
    text = periodic_word(block, 400).text
    for n in range(10):
        got = {block.alphabet.decode(u) for u in sets[n]}
        assert got == window_factors(text, n)


@given(st.text(alphabet="ab", min_size=5, max_size=200))
@settings(max_examples=80)
def test_window_sets_match_naive_oracle(text):
    w = Word.parse(text)
    # At n_max = |w| - 1, where cli._index_for caps a literal word for
    # analyze --word and graph --word, some factors occur only as the final
    # suffix of w and have no right extension.
    for n_max in (min(6, len(w) - 1), len(w) - 1):
        idx = build_index(w, n_max)
        for n in range(n_max + 2):
            assert decode_set(idx, n) == window_factors(text, n)
            occs = [occurrences(text, idx.alphabet.decode(u)) for u in set(idx.factors(n))]
            assert all(len(o) >= 1 and list(o) == sorted(o) for o in occs)


@pytest.mark.parametrize(
    "produce,n_max,len_cap",
    [
        (lambda l: fixed_point(FIB, "a", l), 10, 1 << 20),
        (s_word, 8, 1 << 12),
        (lambda l: fixed_point(CAS, "a", l), 24, 2048),
    ],
    ids=["fibonacci", "s-word", "aab-capped"],
)
def test_stable_lengths_match_window_oracle(produce, n_max, len_cap):
    sp = stabilized_prefix(produce, n_max, len_cap)
    *_, before, after = sp.lengths_tried
    assert len(sp.word) == after
    text = sp.word.text
    expect = tuple(
        window_factors(text[:before], n) == window_factors(text, n)
        for n in range(n_max + 2)
    )
    assert sp.stable_lengths == expect
