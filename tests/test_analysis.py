from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from palrich import rauzy
from palrich.analysis import (
    profile_from_index,
    theorem1_experiment,
    theorem2_check,
)
from palrich.errors import NotApplicable, NotAPalindrome
from palrich.factors import build_index, is_closed_under_reversal
from palrich.generators import get_family
from palrich.words import Alphabet, Morphism, Word, periodic_word

from oracles import (
    all_returns_to_palindromes_palindromic,
    all_words,
    is_rich_naive,
    super_reduce_per_path,
    theorem2_rows_naive,
)
from paper_facts import (
    WindowTooShort,
    cassaigne_formula_check,
    corollary_eventual_period2,
    corollary_periodicity,
    inequality_bound_check,
)

FIB = Morphism.parse("a->ab,b->a")
TM = Morphism.parse("a->ab,b->ba")


def fam_profile(name, n_max, **kw):
    return profile_from_index(get_family(name, **kw).index(n_max))


def profile(w, n_max):
    """Exact C, P and slack arrays for a finite word."""
    return profile_from_index(build_index(w, n_max))


def test_profile_fibonacci_slack_zero():
    p = fam_profile("fibonacci", 20)
    assert p.slack == (0,) * 21
    assert p.C == tuple(n + 1 for n in range(22))
    assert p.reversal_closed is True


def test_profile_thue_morse_positive_slack():
    p = fam_profile("thue-morse", 10)
    assert [n for n, s in enumerate(p.slack) if s][0] == 3
    assert inequality_bound_check(p)  # bound holds even where equality fails


def test_profile_unary():
    w = periodic_word(Word.parse("a"), 64)
    p = profile(w, 8)
    assert all(c == 1 for c in p.C)
    assert all(x == 1 for x in p.P)
    assert p.slack == (0,) * 9


def test_slack_zero_at_order_zero_for_every_word():
    for text in all_words("ab", 7):
        if len(text) < 2:
            continue
        p = profile(Word.parse(text, Word.parse("ab").alphabet), 1)
        assert p.slack[0] == 0


def test_inequality_bound_not_applicable_without_closure():
    p = fam_profile("s-word", 8)
    assert p.reversal_closed is False
    with pytest.raises(NotApplicable):
        inequality_bound_check(p)


def test_theorem2_examples():
    rep = theorem2_check(Word.parse("aabaa"))
    assert rep.count_ok and rep.returns_ok and rep.identity_ok and rep.agree
    rep = theorem2_check(Word.parse("aa"))
    assert rep.agree and rep.count_ok
    with pytest.raises(NotAPalindrome):
        theorem2_check(Word.parse("abca"))


def test_theorem2_empty_and_single():
    alpha = Word.parse("ab").alphabet
    assert theorem2_check(Word(alpha)).agree
    assert theorem2_check(Word.parse("a", alpha)).agree


def test_theorem2_non_rich_palindrome_all_properties_fail():
    # abacaba..? need a non-rich palindrome: abba|abba reversed..
    w = Word.parse("abbaabba")
    assert w.is_palindrome()
    rep = theorem2_check(w)
    assert rep.agree
    assert rep.count_ok == rep.returns_ok == rep.identity_ok == is_rich_naive(
        "abbaabba"
    )


def _palindromes(alphabet: str, max_len: int):
    for half in all_words(alphabet, (max_len + 1) // 2):
        if 2 * len(half) <= max_len:
            yield half + half[::-1]
        if half:
            yield half + half[-2::-1]


def _assert_theorem2_matches_naive(text: str, alphabet: Alphabet):
    w = Word.parse(text, alphabet)
    rep = theorem2_check(w)
    rows, identity_ok = theorem2_rows_naive(w)
    assert rep.identity_rows == rows, text
    assert rep.identity_ok == identity_ok, text
    returns_ok = all_returns_to_palindromes_palindromic(text)
    assert rep.agree == (is_rich_naive(text) == returns_ok == identity_ok), text


@pytest.mark.parametrize("alphabet,max_len", [("ab", 16), ("abc", 11)])
def test_theorem2_matches_per_length_sets_on_all_small_palindromes(alphabet, max_len):
    base = Alphabet(alphabet)
    count = 0
    for text in _palindromes(alphabet, max_len):
        _assert_theorem2_matches_naive(text, base)
        count += 1
    assert count == sum(len(alphabet) ** ((n + 1) // 2) for n in range(max_len + 1))


def _mirrored(alphabet: str, half: str, odd: bool) -> tuple[str, str]:
    return alphabet, half + (half[-2::-1] if odd else half[::-1])


def _closure_palindrome(alphabet: str, directive: str) -> tuple[str, str]:
    # Iterated palindromic closure: every prefix in the chain is a rich
    # palindrome.  Keep the longest one of at most 300 letters.
    u = ""
    for d in directive:
        v = u + d
        l = next(l for l in range(len(v), 0, -1) if v[-l:] == v[-l:][::-1])
        v += v[: len(v) - l][::-1]
        if len(v) > 300:
            break
        u = v
    return alphabet, u


def _long_palindromes(alphabet: str):
    return st.one_of(
        st.builds(
            _mirrored,
            st.just(alphabet),
            st.text(alphabet=alphabet, min_size=9, max_size=150),
            st.booleans(),
        ),
        st.builds(
            _closure_palindrome,
            st.just(alphabet),
            st.text(alphabet=alphabet, min_size=1, max_size=40),
        ),
    )


@given(st.sampled_from(["ab", "abc"]).flatmap(_long_palindromes))
@settings(max_examples=60, deadline=None)
def test_theorem2_matches_per_length_sets_on_long_palindromes(case):
    alphabet, text = case
    _assert_theorem2_matches_naive(text, Alphabet(alphabet))


def test_corollary_periodicity():
    p = fam_profile("periodic", 16, block="aabaabab")
    assert corollary_periodicity(p, periodic_hint=True)
    pf = fam_profile("fibonacci", 16)
    assert corollary_periodicity(pf, periodic_hint=False)
    pu = profile(periodic_word(Word.parse("a"), 80), 8)
    assert corollary_periodicity(pu, periodic_hint=True)
    assert pu.P[1] + pu.P[2] == 2


def test_corollary_eventual_period2():
    pf = fam_profile("fibonacci", 16)
    assert pf.P[1:7] == (2, 1, 2, 1, 2, 1)
    assert corollary_eventual_period2(pf)
    pc = fam_profile("cassaigne-aab", 16)
    assert corollary_eventual_period2(pc)  # both sides false, so they agree
    diffs = {pc.C[n + 1] - pc.C[n] for n in range(10, 16)}
    assert len(diffs) > 1  # complexity difference keeps growing
    pu = profile(periodic_word(Word.parse("a"), 80), 10)
    assert corollary_eventual_period2(pu)
    with pytest.raises(WindowTooShort):
        corollary_eventual_period2(profile(periodic_word(Word.parse("a"), 30), 5))


def test_cassaigne_formula_small_instances():
    chk = cassaigne_formula_check(12)
    assert chk.ok
    by_n = {r.n: r for r in chk.rows}
    assert by_n[1].c_diff == 2
    assert by_n[5].c_diff == 4  # bracket counts k=1 and k=2


def test_theorem1_fibonacci_all_green():
    rep = theorem1_experiment(get_family("fibonacci"), 12)
    assert rep.rich and rep.sweeps_agree
    assert rep.equality_all and rep.conditions_all
    assert rep.triangle_consistent
    assert rep.discrepancies() == ()
    assert rep.profile.reversal_closed


def test_theorem1_thue_morse_consistently_red():
    rep = theorem1_experiment(get_family("thue-morse"), 10)
    assert not rep.rich
    assert rep.equality_all is False and rep.conditions_all is False
    assert rep.triangle_consistent
    assert rep.discrepancies() == ()
    for r in rep.orders:
        assert rep.profile.equality(r.n) == r.conditions


def test_theorem1_psi_of_fibonacci():
    rep = theorem1_experiment(get_family("psi-of-fibonacci", k=0), 10)
    assert rep.rich and rep.triangle_consistent
    assert rep.discrepancies() == ()


def _primitive_blocks(alphabet: str, max_len: int):
    """One block per rotation class of the primitive words using every letter."""
    seen = set()
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            u = "".join(letters)
            rotation = min(u[i:] + u[:i] for i in range(length))
            if set(u) == set(alphabet) and (u + u).find(u, 1) == length and rotation not in seen:
                seen.add(rotation)
                yield rotation


def _periodic_corpus():
    yield from _primitive_blocks("ab", 10)
    yield from _primitive_blocks("abc", 7)


def _morphism_corpus():
    images = ["".join(t) for length in (1, 2, 3) for t in product("ab", repeat=length)]
    for x in images:
        if x[0] == "a" and len(x) > 1:
            yield from (f"a->{x},b->{y}" for y in images)


def assert_theorem_holds(family, n_max):
    """On a reversal-closed word the three verdicts agree at every order."""
    idx = family.index(n_max)
    if not is_closed_under_reversal(idx)[0]:
        return False
    rep = theorem1_experiment(family, n_max)
    assert rep.discrepancies() == (), family.describe()
    assert rep.rich == rep.equality_all == rep.conditions_all, family.describe()
    return True


@pytest.mark.parametrize(
    "name, params, n_max",
    [
        ("periodic", {"block": "abacbabc"}, 18),
        ("periodic", {"block": "abcacbac"}, 18),
        ("periodic", {"block": "abcbacbc"}, 18),
        ("morphic", {"morphism": "a->abab,b->baba"}, 12),
    ],
)
def test_theorem1_on_words_whose_graphs_have_loops(name, params, n_max):
    # Each has a path from a special factor back to itself, a loop of the
    # super-reduced graph, at some order: order 2 for the blocks, 12 for
    # the morphism.
    rep = theorem1_experiment(get_family(name, **params), n_max)
    assert rep.profile.reversal_closed and not rep.rich
    assert rep.discrepancies() == ()
    assert not rep.equality_all and not rep.conditions_all


def test_theorem1_on_the_periodic_corpus():
    # Blocks of at most 10 letters over {a,b} and 7 over {a,b,c}, orders
    # up to 2q + 2.
    closed = sum(
        assert_theorem_holds(get_family("periodic", block=u), 2 * len(u) + 2)
        for u in _periodic_corpus()
    )
    assert closed == 184


def test_theorem1_on_the_morphism_corpus():
    # a -> x, b -> y with |x|, |y| <= 3 and x = a..., up to order 12.
    closed = sum(
        assert_theorem_holds(get_family("morphic", morphism=m), 12)
        for m in _morphism_corpus()
    )
    assert closed == 60


def test_super_reduce_matches_per_path_oracle_on_the_corpora():
    # Every order of the periodic corpus up to 2q + 2 and of the morphism
    # corpus up to 12, reversal-closed or not.
    families = [(get_family("periodic", block=u), 2 * len(u) + 2) for u in _periodic_corpus()]
    families += [(get_family("morphic", morphism=m), 12) for m in _morphism_corpus()]
    for family, n_max in families:
        for rg in rauzy.reduced_graphs(family.index(n_max)):
            assert rauzy.super_reduce(rg) == super_reduce_per_path(rg), (
                family.describe(), rg.n,
            )


def test_theorem1_report_fields():
    rep = theorem1_experiment(get_family("fibonacci"), 6)
    assert rep.profile.n_max == 6
    assert len(rep.orders) == 7
    assert rep.profile.equality(0)  # order 0 always satisfies the identity


def test_rich_recurrent_profiles_have_pal_sum_at_least_two():
    for name, kw in [
        ("fibonacci", {}),
        ("tribonacci", {}),
        ("periodic", {"block": "aabaabab"}),
        ("cassaigne-aab", {}),
    ]:
        p = fam_profile(name, 14, **kw)
        assert all(p.P[n] + p.P[n + 1] >= 2 for n in range(15)), name
