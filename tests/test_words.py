import pytest
from hypothesis import given, strategies as st

from palrich.errors import EmptyBlock, ErasingMorphism, NotProlongable
from palrich.words import (
    Alphabet,
    BINARY,
    Morphism,
    Word,
    fixed_point,
    morphic_image,
    periodic_word,
    s_word,
)

from oracles import (
    episturmian_prefix,
    palindromic_closure,
    s_word_stack,
    shortest_palindrome_with_prefix,
)

binary_words = st.text(alphabet="ab", max_size=24).map(
    lambda t: Word.parse(t, BINARY)
)


def test_reverse_examples():
    assert Word.parse("abaab").reversed().text == "baaba"
    assert Word.parse("", BINARY).reversed().text == ""
    assert Word.parse("aba").reversed().text == "aba"


def test_is_palindrome_examples():
    assert Word.parse("aabaa").is_palindrome()
    assert not Word.parse("abca").is_palindrome()
    assert Word.parse("", BINARY).is_palindrome()


@given(binary_words)
def test_reverse_involution(w):
    assert w.reversed().reversed() == w
    assert len(w.reversed()) == len(w)


def test_fixed_point_fibonacci_prefix():
    m = Morphism.parse("a->ab,b->a")
    assert fixed_point(m, "a", 13).text == "abaababaabaab"


def test_fixed_point_cassaigne_prefix():
    m = Morphism.parse("a->aab,b->b")
    assert fixed_point(m, "a", 15).text == "aabaabbaabaabbb"


def test_fixed_point_quadratic_prefix():
    # Direct iteration oracle: apply the substitution fully a few times.
    rules = {"a": "abab", "b": "b"}
    word = "a"
    for _ in range(4):
        word = "".join(rules[ch] for ch in word)
    m = Morphism.parse("a->abab,b->b")
    assert fixed_point(m, "a", 12).text == word[:12] == "ababbababbba"
    # The factored shape: blocks abab^2 abab^3 abab^2 abab^4 ...
    factored = "abab" + "b" + "abab" + "bb" + "abab" + "b" + "abab" + "bbb"
    assert word[: len(factored)] == factored


def test_fixed_point_prefix_stability():
    m = Morphism.parse("a->ab,b->a")
    for length in (1, 2, 5, 21, 50):
        assert fixed_point(m, "a", 2 * length).text.startswith(
            fixed_point(m, "a", length).text
        )


def test_fixed_point_rejects_non_prolongable():
    with pytest.raises(NotProlongable):
        fixed_point(Morphism.parse("a->ba,b->a"), "a", 5)
    with pytest.raises(NotProlongable):
        fixed_point(Morphism.parse("a->a,b->ab"), "a", 5)


def test_morphism_rejects_erasing():
    with pytest.raises(ErasingMorphism):
        Morphism(Alphabet("ab"), {"a": "ab", "b": ""})


def test_morphic_image_examples():
    m = Morphism.parse("a->aab,b->b")
    assert morphic_image(m, Word.parse("ab", m.alphabet)).text == "aabb"
    m2 = Morphism.parse("a->ab,b->a")
    assert morphic_image(m2, Word.parse("aba", m2.alphabet)).text == "abaab"
    ident = Morphism.parse("a->a,b->b")
    assert morphic_image(ident, Word.parse("abba", ident.alphabet)).text == "abba"
    long = "ab" * 60
    for spec, text, image in (
        ("a->b,b->a", "aabab", "bbaba"),  # a permutation maps all letters at once
        ("a->b,b->c,c->aa", "abcca", "bcaaaab"),  # a chain into a longer image
        ("a->aab,b->b", "", ""),
        (f"a->{long},b->ba", "aba", long + "ba" + long),
    ):
        m = Morphism.parse(spec)
        assert morphic_image(m, Word.parse(text, m.alphabet)).text == image, spec
    letters = "abcdefghijklmnopqrstuvwxyz"
    rev = Morphism(Alphabet(letters), dict(zip(letters, reversed(letters))))
    assert morphic_image(rev, Word.parse(letters, rev.alphabet)).text == letters[::-1]


@st.composite
def morphisms(draw):
    """Alphabets of 1..26 letters in any order, each letter's image either
    one letter or a word of up to 40 letters."""
    letters = draw(st.permutations("abcdefghijklmnopqrstuvwxyz"))
    letters = letters[: draw(st.integers(1, 26))]
    image = st.one_of(
        st.sampled_from(letters), st.text(alphabet=letters, min_size=1, max_size=40)
    )
    return Morphism(Alphabet(letters), {ch: draw(image) for ch in letters})


def letter_bytes(size):
    return st.lists(st.integers(0, size - 1), max_size=60).map(bytes)


@given(morphisms(), st.data())
def test_apply_bytes_is_the_letterwise_join(m, data):
    w = data.draw(letter_bytes(m.alphabet.size))
    assert m.apply_bytes(w) == b"".join(m.images[b] for b in w)


@given(morphisms(), st.data())
def test_decode_is_the_letterwise_join(m, data):
    alphabet = m.alphabet
    w = data.draw(letter_bytes(alphabet.size))
    assert alphabet.decode(w) == "".join(alphabet.letters[b] for b in w)
    assert alphabet.encode(alphabet.decode(w)) == w


@given(morphisms(), st.data())
def test_bytes_outside_the_alphabet_raise(m, data):
    w = data.draw(letter_bytes(m.alphabet.size))
    # Markers 128 + c and 0xFF are the translate tables' own values.
    bad = data.draw(st.integers(m.alphabet.size, 255) | st.sampled_from((128, 153, 255)))
    i = data.draw(st.integers(0, len(w)))
    w = w[:i] + bytes([bad]) + w[i:]
    with pytest.raises(ValueError):
        m.apply_bytes(w)
    with pytest.raises(ValueError):
        m.alphabet.decode(w)


@given(st.text(alphabet="ab", max_size=10), st.text(alphabet="ab", max_size=10))
def test_morphic_image_distributes_over_concatenation(u, v):
    m = Morphism.parse("a->ab,b->a")
    wu = Word.parse(u, m.alphabet)
    wv = Word.parse(v, m.alphabet)
    uv = Word(m.alphabet, wu.data + wv.data)
    assert morphic_image(m, uv).data == morphic_image(m, wu).data + morphic_image(m, wv).data


def test_periodic_word_examples():
    assert periodic_word(Word.parse("aabaabab"), 10).text == "aabaababaa"
    assert periodic_word(Word.parse("a"), 4).text == "aaaa"
    assert periodic_word(Word.parse("ab"), 5).text == "ababa"
    with pytest.raises(EmptyBlock):
        periodic_word(Word.parse("ab")[:0], 3)


def test_s_word_examples():
    assert s_word(10).text == "bcaabcaaab"
    assert s_word(2).text == "bc"
    assert s_word(0).text == ""
    # recursion oracle: s_4 built by hand
    s = "bc"
    for n in range(2, 5):
        s = s + "a" * n + s
    assert s_word(len(s)).text == s


def test_s_word_matches_emission_stack():
    reference = s_word_stack(2000)
    for n in range(2001):
        assert s_word(n).data == reference[:n], n
    # The stack restarts one level deeper past each |s_k|; check each side.
    size, k = 2, 1
    while size < 2000:
        for n in (size - 1, size, size + 1):
            assert s_word(n).data == s_word_stack(n), n
        k += 1
        size = 2 * size + k
    assert s_word(1 << 18).data == s_word_stack(1 << 18)


def test_palindromic_closure_examples():
    # The eertree closure and the constraint filling are independent routes.
    for text, closure in (("ab", "aba"), ("aab", "aabaa"), ("aba", "aba")):
        assert palindromic_closure(text) == shortest_palindrome_with_prefix(text) == closure


@given(st.text(alphabet="abc", min_size=1, max_size=12))
def test_palindromic_closure_matches_constraint_oracle(text):
    assert palindromic_closure(text) == shortest_palindrome_with_prefix(text)


def test_episturmian_examples():
    assert episturmian_prefix("ab", 6).text == "abaaba"
    assert episturmian_prefix("a", 1).text == "a"
    assert episturmian_prefix("abc", 7).text == "abacaba"


def test_episturmian_fibonacci_directive():
    fib = fixed_point(Morphism.parse("a->ab,b->a"), "a", 20)
    assert episturmian_prefix("ab", 20).text == fib.text


@given(st.text(alphabet="ab", min_size=1, max_size=6), st.integers(1, 40))
def test_episturmian_prefixes_are_rich(directive, length):
    from palrich.generators import get_family
    from palrich.palindromes import Eertree, is_rich_incremental

    w = get_family("episturmian", directive=directive).produce(length)
    assert len(w) == length
    assert is_rich_incremental(Eertree.build(w)).rich


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("aB")
    with pytest.raises(ValueError):
        Word.parse("")


def test_word_parse_with_explicit_alphabet():
    w = Word.parse("aba", BINARY)
    assert w.alphabet is BINARY
    with pytest.raises(ValueError):
        Word.parse("abc", BINARY)
