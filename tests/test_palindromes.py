import tracemalloc
from string import ascii_lowercase

import pytest
from hypothesis import given, settings, strategies as st

from palrich import palindromes
from palrich.factors import stabilized_prefix
from palrich.generators import REGISTRY, family_block, get_family
from palrich.palindromes import (
    Eertree,
    _longest_palindromic_suffixes,
    is_rich_by_count,
    is_rich_by_returns,
    is_rich_incremental,
)
from palrich.words import Alphabet, Morphism, Word, fixed_point

from oracles import (
    all_words,
    distinct_palindromes_including_empty,
    eertree_naive,
    episturmian_prefix,
    is_rich_naive,
    longest_palindromic_suffixes_naive,
    palindromic_substrings,
    palindromic_suffix_chains,
    returns_report_naive,
)
from paper_facts import (
    FactorAbsent,
    PalindromicInput,
    check_alternation,
    check_v2reverse,
)

FIB = Morphism.parse("a->ab,b->a")
TM = Morphism.parse("a->ab,b->ba")


def created_flags(node_at):
    """Per position: did it create a node?  Nodes are numbered in creation
    order, so it did iff its entry exceeds every earlier one."""
    flags, top = [], 1
    for node in node_at:
        flags.append(node > top)
        top = max(top, node)
    return flags


def test_build_eertree_examples():
    t = Eertree.build(Word.parse("abca"))
    assert t.node_count == 3
    assert created_flags(t.node_at) == [True, True, True, False]

    t = Eertree.build(Word.parse("aabaa"))
    assert t.node_count == 5
    # Each node is the palindrome that ends where it was created.
    pals = {
        t.alphabet.decode(t.data[end - t._len[node] : end])
        for end, (node, new) in enumerate(zip(t.node_at, created_flags(t.node_at)), 1)
        if new
    }
    assert pals == {"a", "aa", "b", "aba", "aabaa"}

    assert Eertree.build(Word.parse("a", None)[:0]).node_count == 0


def test_palindromic_complexity_fibonacci():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 10)
    by_length = Eertree.build(sp.word).nodes_by_length()
    P = sp.index.palindrome_counts()
    assert by_length[6] == P[6] == 1
    assert by_length[7] == P[7] == 2
    assert P[0] == 1  # the empty word


def test_palindromic_complexity_thue_morse_odd_gap():
    w = fixed_point(TM, "a", 512)
    t = Eertree.build(w)
    expected = sum(1 for p in palindromic_substrings(w.text) if len(p) == 7)
    assert t.nodes_by_length().get(7, 0) == expected == 0


def longest_palindromic_suffix(t: Eertree, i: int) -> str:
    """The longest palindromic suffix of the tree's length-i prefix."""
    length = t._len[t.node_at[i - 1]]
    return t.alphabet.decode(t.data[i - length : i])


def test_longest_palindromic_suffix_examples():
    t = Eertree.build(Word.parse("abca"))
    assert longest_palindromic_suffix(t, 4) == "a"
    t = Eertree.build(Word.parse("aabaa"))
    assert longest_palindromic_suffix(t, 5) == "aabaa"
    assert longest_palindromic_suffix(t, 4) == "aba"
    t = Eertree.build(Word.parse("ab"))
    assert longest_palindromic_suffix(t, 2) == "b"


def test_is_rich_incremental_examples():
    rep = is_rich_incremental(Eertree.build(Word.parse("abca")))
    assert not rep.rich
    assert rep.first_violation_prefix == 4
    assert rep.defect == 1
    assert is_rich_incremental(Eertree.build(Word.parse("abbbb"))).rich
    assert is_rich_incremental(Eertree.build(Word.parse("aabaabbaabaabbb"))).rich


def test_is_rich_by_returns_examples():
    rep = is_rich_by_returns(Word.parse("abca"))
    assert not rep.rich
    assert rep.witness[0].text == "a"
    assert rep.witness[1].text == "abca"
    assert is_rich_by_returns(Word.parse("aababaa")).rich
    assert is_rich_by_returns(Word.parse("aa")).rich


def test_is_rich_by_count_examples():
    assert is_rich_by_count(Eertree.build(Word.parse("abc")))
    assert not is_rich_by_count(Eertree.build(Word.parse("abca")))
    assert is_rich_by_count(Eertree.build(Word.parse("aabaa")))


def test_richness_witness_is_genuine():
    for text in ("abca", "abab", "aabbaa", "abcba" * 3, "abbabaabbaababba"):
        rep = is_rich_incremental(Eertree.build(Word.parse(text)))
        if rep.rich:
            continue
        p, r = rep.witness
        assert r.text in text
        assert r.text.startswith(p.text) and r.text.endswith(p.text)
        assert not r.is_palindrome()
        hits = [
            i
            for i in range(len(r.text) - len(p.text) + 1)
            if r.text[i : i + len(p.text)] == p.text
        ]
        assert len(hits) == 2


@given(st.text(alphabet="ab", max_size=60))
@settings(max_examples=120)
def test_eertree_counts_match_substring_oracle(text):
    w = Word.parse(text, Word.parse("ab").alphabet)
    t = Eertree.build(w)
    assert t.node_count + 1 == distinct_palindromes_including_empty(text)
    by_len = t.nodes_by_length()
    for n in range(1, len(text) + 1):
        expected = sum(1 for p in palindromic_substrings(text) if len(p) == n)
        assert by_len.get(n, 0) == expected


@given(st.text(alphabet="ab", max_size=40))
@settings(max_examples=120)
def test_defect_monotone_in_prefix_length(text):
    w = Word.parse(text, Word.parse("ab").alphabet)
    defects = [
        is_rich_incremental(Eertree.build(w[:i])).defect for i in range(len(w) + 1)
    ]
    assert all(b - a in (0, 1) for a, b in zip(defects, defects[1:]))


def returns_report_fields(w: Word):
    rep = is_rich_by_returns(w)
    witness = rep.witness and (rep.witness[0].text, rep.witness[1].text)
    return rep.rich, witness, rep.first_violation_prefix, rep.defect


def test_three_checkers_agree_on_small_words():
    for text in all_words("ab", 9):
        w = Word.parse(text, Word.parse("ab").alphabet)
        naive = is_rich_naive(text)
        t = Eertree.build(w)
        assert is_rich_incremental(t).rich == naive
        assert returns_report_fields(w) == returns_report_naive(text)
        assert is_rich_by_count(t) == naive


def _block_repetitions():
    # Rich periodic words have long palindromic suffixes with gaps |q'| > 2|q|;
    # one changed letter breaks richness far from the start.
    return st.builds(
        lambda k, reps, start, length, flip: _flip(
            (family_block(k).text * reps)[start : start + length], flip
        ),
        st.integers(0, 3),
        st.integers(1, 30),
        st.integers(0, 20),
        st.integers(0, 150),
        st.integers(0, 150),
    )


def _episturmian_slices():
    return st.builds(
        lambda directive, start, length, flip: _flip(
            episturmian_prefix(directive, 400).text[start : start + length], flip
        ),
        st.sampled_from(["ab", "aab", "abb", "abc", "aabc", "abcb", "acb"]),
        st.integers(0, 250),
        st.integers(0, 150),
        st.integers(0, 300),
    )


def _flip(text: str, at: int) -> str:
    if at >= len(text):
        return text
    other = "b" if text[at] == "a" else "a"
    return text[:at] + other + text[at + 1 :]


@given(st.one_of(st.text(alphabet="abc", max_size=150), _block_repetitions(), _episturmian_slices()))
@settings(max_examples=150, deadline=None)
def test_returns_report_matches_naive_oracle(text):
    w = Word.parse(text, Word.parse("abc").alphabet)
    assert returns_report_fields(w) == returns_report_naive(text)


def assert_longest_suffixes_match_oracles(data: bytes):
    got = _longest_palindromic_suffixes(data)
    assert got == longest_palindromic_suffixes_naive(data)
    assert got == [chain[0] for chain in palindromic_suffix_chains(data)]


def test_longest_palindromic_suffixes_on_every_short_word():
    for text in all_words("abc", 10):
        assert_longest_suffixes_match_oracles(text.encode())


@given(st.text(alphabet="abcd", max_size=200))
@settings(max_examples=150, deadline=None)
def test_longest_palindromic_suffixes_match_oracles(text):
    assert_longest_suffixes_match_oracles(text.encode())


def reports_with_every_suffix_searched(w: Word):
    """The fields of the sweep's report of w, checked with every hash equal.

    With ``hash`` shadowed by a constant in ``palindromes``, every longest
    suffix after the first looks met before, so each one runs the
    ``rfind``; the report must not change.
    """
    plain = is_rich_by_returns(w)
    hashed = []

    def constant(data):
        hashed.append(data)
        return 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(palindromes, "hash", constant, raising=False)
        searched = is_rich_by_returns(w)
    assert len(hashed) == len(w)
    assert searched == plain
    return returns_report_fields(w)


@given(st.one_of(st.text(alphabet="abc", max_size=150), _block_repetitions(), _episturmian_slices()))
@settings(max_examples=100, deadline=None)
def test_hash_collisions_leave_the_returns_report_unchanged(text):
    w = Word.parse(text, Word.parse("abc").alphabet)
    assert reports_with_every_suffix_searched(w) == returns_report_naive(text)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_hash_collisions_leave_family_reports_unchanged(name):
    sample = get_family(name).sample()
    reports_with_every_suffix_searched(sample)
    # The naive oracle is cubic, so it reads a prefix; every alphabet of the
    # registry lists its letters in string order, as the oracle assumes.
    head = sample[:300]
    assert reports_with_every_suffix_searched(head) == returns_report_naive(head.text)


@pytest.mark.parametrize(
    "text",
    [
        "aabaabab" * 30,
        "abaab" * 50,
        "a" * 250,
        "aabaabab" * 29 + "aabaabb",
        "a" * 120 + "b" + "a" * 119,
    ],
    ids=["aabaabab^30", "abaab^50", "a^250", "aabaabab^29-flip", "a^120-b-a^119"],
)
def test_returns_report_on_long_palindromes(text):
    w = Word.parse(text, Word.parse("ab").alphabet)
    assert returns_report_fields(w) == returns_report_naive(text)


def assert_sweeps_agree(w: Word):
    """The eertree and the complete-return sweep report the same facts of w."""
    a, b = is_rich_incremental(Eertree.build(w)), is_rich_by_returns(w)
    assert (a.rich, a.first_violation_prefix, a.defect) == (
        b.rich, b.first_violation_prefix, b.defect
    )


@given(st.one_of(st.text(alphabet="abc", max_size=150), _block_repetitions(), _episturmian_slices()))
@settings(max_examples=150, deadline=None)
def test_eertree_and_returns_sweeps_agree(text):
    # A prefix adds a palindrome iff its longest palindromic suffix is new,
    # which is what each sweep tests per position.
    assert_sweeps_agree(Word.parse(text, Word.parse("abc").alphabet))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_eertree_and_returns_sweeps_agree_on_family_samples(name):
    assert_sweeps_agree(get_family(name).sample())


def flat_state(t: Eertree):
    """The tree as ``eertree_naive`` gives it: its flat slots read as a dict."""
    k = t.alphabet.size
    transitions = {divmod(slot, k): child for slot, child in enumerate(t._trans) if child}
    return t._len, t._link, t.node_at, transitions


def _words_over(k: int):
    alphabet = Alphabet(ascii_lowercase[:k])
    return st.text(alphabet=alphabet.letters, max_size=120).map(
        lambda text: Word.parse(text, alphabet)
    )


@given(st.sampled_from((1, 2, 3, 4, 26)).flatmap(_words_over))
@settings(max_examples=200)
def test_flat_eertree_matches_dict_eertree(w):
    assert flat_state(Eertree.build(w)) == eertree_naive(w.data)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_flat_eertree_matches_dict_eertree_on_family_samples(name):
    w = get_family(name).produce(1 << 16)
    assert flat_state(Eertree.build(w)) == eertree_naive(w.data)


def test_sample_eertree_memory():
    # A few ints per node and k transition slots per node, no object per
    # node: the flat tree of a 65,536-letter prefix takes about 6.5 MiB.
    w = get_family("fibonacci").produce(1 << 16)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tree = Eertree.build(w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert tree.node_count == len(w)
    assert peak < 10 * 2**20, peak


def test_droubay_justin_pirillo_bound():
    for text in all_words("abc", 6):
        assert distinct_palindromes_including_empty(text) <= len(text) + 1


def test_check_v2reverse_examples():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 10)
    ok, witness = check_v2reverse(sp.word.data, sp.word.alphabet.encode("ab"))
    assert ok and witness is None

    w = Word.parse("abca")
    encode = w.alphabet.encode
    ok, _ = check_v2reverse(w.data, encode("ab"))
    assert ok  # vacuous: no occurrence of the reversal
    ok, witness = check_v2reverse(w.data, encode("a"))
    assert not ok and w.alphabet.decode(witness) == "abca"

    with pytest.raises(FactorAbsent):
        check_v2reverse(w.data, encode("cb"))


def test_check_v2reverse_palindromic_input_is_return_check():
    w = Word.parse("aabaaab")
    ok, witness = check_v2reverse(w.data, w.alphabet.encode("aa"))
    # complete returns to aa: aabaa (pal) and aaa (pal) -> depends on word
    from oracles import complete_returns_naive

    expected = all(
        r == r[::-1] for r in complete_returns_naive("aabaaab", "aa")
    )
    assert ok == expected


def test_check_alternation_examples():
    sp = stabilized_prefix(lambda l: fixed_point(FIB, "a", l), 10)
    assert check_alternation(sp.word.data, sp.word.alphabet.encode("ab"))

    w = Word.parse("abab")
    assert check_alternation(w.data, w.alphabet.encode("ab"))

    w = Word.parse("aabab")
    assert check_alternation(w.data, w.alphabet.encode("aab"))

    with pytest.raises(PalindromicInput):
        check_alternation(w.data, w.alphabet.encode("aba"))
    with pytest.raises(FactorAbsent):
        check_alternation(w.data, w.alphabet.encode("bba"))


def test_alternation_detects_violations():
    w = Word.parse("ababab")
    assert check_alternation(w.data, w.alphabet.encode("ab"))
    w = Word.parse("abcab")
    # ab occurs twice, ba never: two same-kind events in a row
    assert not check_alternation(w.data, w.alphabet.encode("ab"))
