from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from palrich import counting
from palrich.counting import (
    balanced_oracle_table,
    count_rich,
    count_rich_naive,
    enumerate_balanced,
    rich_table,
    sturmian_count,
    sturmian_palindrome_count,
    sturmian_palindrome_enumeration_oracle,
    sturmian_table,
    totient,
)
from palrich.errors import OutOfRange, TooLarge, UnsupportedAlphabet

from oracles import is_balanced_naive, is_balanced_sweep, is_rich_naive, totient_gcd_sweep
from paper_facts import verify_c_identity


def test_totient_examples():
    assert totient(1) == 1
    assert totient(7) == 6
    assert totient(12) == 4
    with pytest.raises(OutOfRange):
        totient(0)


@given(st.integers(1, 4000))
@settings(max_examples=80)
def test_totient_matches_gcd_sweep(n):
    assert totient(n) == totient_gcd_sweep(n)


def test_sturmian_count_examples():
    assert sturmian_count(0) == 1
    assert sturmian_count(2) == 4
    assert sturmian_count(4) == 14
    assert sturmian_count(5) == 24


def test_sturmian_palindrome_count_examples():
    assert sturmian_palindrome_count(0) == 1
    assert sturmian_palindrome_count(2) == 2
    assert sturmian_palindrome_count(4) == 4
    assert sturmian_palindrome_count(5) == 8


def test_sturmian_palindrome_count_matches_its_even_odd_split():
    # The indices n - 2i run over the even numbers 2..n when n is even and
    # over the odd numbers 1..n when n is odd.
    for n in range(301):
        if n % 2 == 0:
            split = 1 + sum(totient(2 * i) for i in range(1, n // 2 + 1))
        else:
            split = 1 + sum(totient(2 * i + 1) for i in range(n // 2 + 1))
        assert sturmian_palindrome_count(n) == split, n


def test_enumerate_balanced_examples():
    assert [w.text for w in enumerate_balanced(2)] == ["aa", "ab", "ba", "bb"]
    four = {w.text for w in enumerate_balanced(4)}
    assert len(four) == 14
    assert "aabb" not in four and "bbaa" not in four
    assert len(enumerate_balanced(0)) == 1
    with pytest.raises(TooLarge):
        enumerate_balanced(23)


def test_enumerated_words_are_balanced_and_complete():
    # Words and order alike: the incremental search against the window
    # sweep of every one of the 2^n words, in lexicographic order.
    for n in range(15):
        expected = [bytes(p) for p in product((0, 1), repeat=n) if is_balanced_sweep(bytes(p))]
        got = enumerate_balanced(n)
        assert [w.data for w in got] == expected, n
        assert len(got) == sturmian_count(n)
        if n < 9:
            assert {w.text for w in got} == {
                "".join(p) for p in product("ab", repeat=n) if is_balanced_naive("".join(p))
            }


def test_balanced_oracle_table_at_its_budget():
    table = balanced_oracle_table(22)
    assert table.values == {n: sturmian_count(n) for n in range(23)}


def test_balance_is_hereditary():
    for w in enumerate_balanced(10):
        text = w.text
        for i in range(len(text)):
            for j in range(i, len(text) + 1):
                assert is_balanced_naive(text[i:j])


def test_palindrome_oracle_matches_formula():
    for n in range(15):
        expected = [sturmian_palindrome_count(m) for m in range(n + 1)]
        assert sturmian_palindrome_enumeration_oracle(n) == expected, n


def test_verify_c_identity_examples():
    assert sturmian_palindrome_count(2) + sturmian_palindrome_count(3) == 6
    assert sturmian_count(3) - sturmian_count(2) + 2 == 6
    assert sturmian_palindrome_count(4) + sturmian_palindrome_count(5) == 12
    assert sturmian_count(5) - sturmian_count(4) + 2 == 12
    assert verify_c_identity(200)


def test_count_rich_small():
    assert count_rich(2, 1) == 2
    assert count_rich(2, 3) == 8
    assert count_rich(2, 8) == 252  # first length with non-rich binary words
    assert count_rich(2, 7) == 128


@pytest.mark.parametrize("k, n_max", [(2, 12), (3, 8), (4, 6)])
def test_count_rich_naive_matches_the_definition(k, n_max):
    # No eertree: a word is counted when it has |w| + 1 distinct
    # palindromic factors, the empty one included.
    letters = "abcd"[:k]
    expected = [
        sum(is_rich_naive("".join(p)) for p in product(letters, repeat=n))
        for n in range(n_max + 1)
    ]
    assert count_rich_naive(k, n_max) == expected


def test_count_rich_matches_naive_sweep():
    for k, n_max in ((2, 12), (3, 10), (4, 7)):
        naive = count_rich_naive(k, n_max)
        assert len(naive) == n_max + 1
        for n in range(n_max + 1):
            assert count_rich(k, n) == naive[n], (k, n)


@pytest.mark.parametrize("order", ["high_first", "low_first"])
def test_count_rich_cache_order(order):
    lengths = [9, 3, 6, 0, 1, 2] if order == "high_first" else [0, 1, 2, 3, 6, 9]
    counting._RICH_COUNTS.clear()
    for k in (2, 3, 4):
        naive = count_rich_naive(k, max(lengths))
        for n in lengths:
            assert count_rich(k, n) == naive[n], (k, n)


def test_count_rich_naive_rejects_bad_requests():
    with pytest.raises(OutOfRange):
        count_rich_naive(2, -1)
    with pytest.raises(UnsupportedAlphabet):
        count_rich_naive(5, 2)
    with pytest.raises(TooLarge):
        count_rich_naive(2, 17)
    assert count_rich_naive(3, 0) == [1]


def test_count_rich_budgets():
    with pytest.raises(UnsupportedAlphabet):
        count_rich(5, 4)
    with pytest.raises(TooLarge):
        count_rich(2, 25)
    with pytest.raises(OutOfRange):
        count_rich(2, -1)


def test_rich_fraction_monotone_non_increasing():
    counts = [count_rich(2, n) for n in range(15)]
    fractions = [c / 2**n for n, c in enumerate(counts)]
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))


def test_tables_and_serialization():
    tbl = sturmian_table(6)
    csv_text = tbl.to_csv()
    assert csv_text.splitlines()[0] == "n,count,provenance"
    assert len(csv_text.splitlines()) == 8
    assert csv_text.endswith("\n") and "\r" not in csv_text
    payload = tbl.to_dict()
    assert payload["kind"] == "sturmian"
    assert payload["values"][4]["count"] == 14
    assert balanced_oracle_table(6).values == tbl.values
    rt = rich_table(2, 6)
    assert rt.provenance == "enumeration"
