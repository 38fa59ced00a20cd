import pytest
from hypothesis import example, given, settings, strategies as st

from palrich.analysis import profile_from_index
from palrich.errors import PalrichError
from palrich.factors import stabilized_prefix
from palrich.generators import (
    REGISTRY,
    episturmian_morphism,
    family_block,
    get_family,
    psi_morphism,
)
from palrich.palindromes import Eertree, is_rich_incremental
from palrich.words import BINARY, Word, morphic_image

from oracles import (
    derive_down,
    episturmian_prefix,
    psi_of_fibonacci_naive,
    shortest_palindrome_with_prefix,
)


def test_registry_names():
    assert set(REGISTRY) == {
        "fibonacci",
        "tribonacci",
        "thue-morse",
        "cassaigne-aab",
        "quadratic-abab",
        "psi-of-fibonacci",
        "periodic",
        "s-word",
        "episturmian",
        "morphic",
    }
    with pytest.raises(PalrichError):
        get_family("nope")


def test_known_prefixes():
    assert get_family("fibonacci").produce(13).text == "abaababaabaab"
    assert get_family("cassaigne-aab").produce(15).text == "aabaabbaabaabbb"
    assert get_family("quadratic-abab").produce(12).text == "ababbababbba"
    assert get_family("s-word").produce(10).text == "bcaabcaaab"
    assert get_family("thue-morse").produce(8).text == "abbabaab"
    assert get_family("periodic", block="aabaabab").produce(10).text == "aabaababaa"
    assert get_family("tribonacci").produce(7).text == "abacaba"


def test_psi_of_fibonacci_prefix():
    fam = get_family("psi-of-fibonacci", k=0)
    # f = a b a a b ... so the image starts psi(a) psi(b) psi(a) psi(a)
    expected = "aabaabab" + "bab" + "aabaabab" + "aabaabab"
    assert fam.produce(len(expected)).text == expected


@pytest.mark.parametrize("k", [0, 1, 2])
def test_psi_of_fibonacci_producer_matches_the_long_base(k):
    produce = get_family("psi-of-fibonacci", k=k).produce
    for length in [*range(3001), 65536]:
        assert produce(length) == psi_of_fibonacci_naive(k, length), length


def test_family_block_values():
    assert family_block(0).text == "aabaabab"
    assert family_block(1).text == "aabaabaabab"
    assert family_block(2).text == "aabaabaabaabab"
    assert psi_morphism(1).images[0] == Word.parse("aabaabaabab").data
    assert morphic_image(psi_morphism(0), Word.parse("b", BINARY)).text == "bab"


def test_exact_lengths():
    for name in REGISTRY:
        fam = get_family(name)
        for length in (1, 2, 17, 64):
            assert len(fam.produce(length)) == length


def test_episturmian_prefix_matches_slow_route():
    # Iterated closure by constraint filling, independent of the eertree.
    u = ""
    for d in "abc" * 14:
        u = shortest_palindrome_with_prefix(u + d)
        if len(u) >= 40:
            break
    assert episturmian_prefix("abc", 40).text == u[:40]


def test_rich_families_have_rich_prefixes():
    for name, kw in [
        ("fibonacci", {}),
        ("tribonacci", {}),
        ("cassaigne-aab", {}),
        ("quadratic-abab", {}),
        ("psi-of-fibonacci", {"k": 1}),
        ("periodic", {"block": family_block(2).text}),
        ("episturmian", {"directive": "ab"}),
        ("morphic", {"morphism": "a->aba,b->bb"}),
    ]:
        fam = get_family(name, **kw)
        assert is_rich_incremental(Eertree.build(fam.produce(600))).rich, name


def test_exact_sets_present_for_morphic_families():
    for name in REGISTRY:
        assert callable(get_family(name).exact_sets), name


def test_composed_episturmian_morphism():
    m = episturmian_morphism("abc")
    assert [m.alphabet.decode(img) for img in m.images] == ["abacaba", "abacab", "abac"]
    m = episturmian_morphism("ab")
    assert [m.alphabet.decode(img) for img in m.images] == ["aba", "ab"]


@given(st.text(alphabet="abc", min_size=1, max_size=6))
@example("a")
@example("ccc")
@example("b")
@example("ba")
@example("cab")
@example("bcb")
@settings(max_examples=60, deadline=None)
def test_episturmian_producer_matches_palindromic_closure(directive):
    produced = get_family("episturmian", directive=directive).produce(3000)
    assert produced.text == episturmian_prefix(directive, 3000).text


# Every registry family, with defaults and with the parameters the
# acceptance corpus uses.
CROSS_CHECK_FAMILIES = [(name, {}) for name in sorted(REGISTRY)] + [
    ("psi-of-fibonacci", {"k": 2}),
    ("periodic", {"block": "abc"}),
    ("episturmian", {"directive": "aabc"}),
    ("episturmian", {"directive": "c"}),
    ("morphic", {"morphism": "a->aba,b->bb"}),
    ("morphic", {"morphism": "a->ab,b->bc,c->a"}),
]


@pytest.mark.parametrize("name,params", CROSS_CHECK_FAMILIES)
def test_exact_sets_match_prefix_scan(name, params):
    fam = get_family(name, **params)
    exact = derive_down(fam.exact_sets(9), 9)
    scanned = stabilized_prefix(fam.produce, 8)
    assert all(scanned.stable_lengths), name
    for n in range(10):
        assert exact[n] == set(scanned.index.factors(n)), (name, params, n)


def test_s_word_exact_complexities():
    prof = profile_from_index(get_family("s-word").index(21))
    assert (prof.C[18], prof.P[18], prof.C[21]) == (124, 1, 172)


def test_producers_are_prefix_stable():
    cases = [
        ("fibonacci", {}),
        ("tribonacci", {}),
        ("thue-morse", {}),
        ("cassaigne-aab", {}),
        ("quadratic-abab", {}),
        ("psi-of-fibonacci", {"k": 1}),
        ("periodic", {"block": "aabaabab"}),
        ("s-word", {}),
        ("episturmian", {"directive": "abb"}),
        ("morphic", {"morphism": "a->aba,b->bb"}),
    ]
    for name, kw in cases:
        fam = get_family(name, **kw)
        for length in (3, 10, 40):
            assert fam.produce(2 * length).text.startswith(
                fam.produce(length).text
            ), name
