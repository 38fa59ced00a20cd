"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
happen; without ``-s`` pytest still reports one pass/fail per criterion.
"""

import io
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

from palrich import rauzy
from palrich.analysis import profile_from_index, theorem1_experiment, theorem2_check
from palrich.cli import main
from palrich.counting import (
    count_rich_naive,
    enumerate_balanced,
    sturmian_count,
    sturmian_palindrome_count,
    sturmian_palindrome_enumeration_oracle,
)
from palrich.factors import is_closed_under_reversal, stabilized_prefix
from palrich.generators import family_block, get_family
from palrich.palindromes import (
    Eertree,
    is_rich_by_count,
    is_rich_by_returns,
    is_rich_incremental,
)
from palrich.words import Word

from oracles import palindromic_substrings
from paper_facts import (
    cassaigne_formula_check,
    check_alternation,
    check_v2reverse,
    verify_c_identity,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d} PASS  {label}  ({elapsed:.2f}s)")


def test_criterion_1_sturmian_equality():
    with criterion(1, "Fibonacci: C(n)=n+1, P alternates 1/2, slack 0, n<=30"):
        started = time.perf_counter()
        sp = stabilized_prefix(get_family("fibonacci").produce, 30)
        assert sp.stable
        prof = profile_from_index(sp.index)
        for n in range(31):
            assert prof.C[n] == n + 1
            expected_p = 1 if n % 2 == 0 else 2
            assert prof.P[n] == expected_p
            assert prof.slack[n] == 0
        assert time.perf_counter() - started < 1.0


def test_criterion_2_arnoux_rauzy_bound_attainment():
    with criterion(2, "Tribonacci: C(n+1)-C(n)=2 and P(n)+P(n+1)=4, 1<=n<=20"):
        started = time.perf_counter()
        sp = stabilized_prefix(get_family("tribonacci").produce, 20)
        assert sp.stable
        prof = profile_from_index(sp.index)
        for n in range(1, 21):
            assert prof.C[n + 1] - prof.C[n] == 2
            assert prof.P[n] + prof.P[n + 1] == 4
        assert time.perf_counter() - started < 2.0


def test_criterion_3_worked_rauzy_example():
    with criterion(3, "Fibonacci order 2: reduced graph and byte-exact DOT"):
        idx = get_family("fibonacci").index(4)
        g = rauzy.build_rauzy(idx, 2)
        rg = rauzy.reduce(g)
        decode = g.alphabet.decode
        assert [decode(v) for v in rg.vertices] == ["ab", "ba"]
        assert {decode(p.label) for p in rg.edges} == {"aba", "baab", "bab"}
        sg = rauzy.super_reduce(rg)
        assert sg.s == 1 and len(sg.edges) == 0
        assert [decode(c) for c in sg.classes[0]] == ["ab", "ba"]
        assert rauzy.is_tree(sg)
        for render, args, golden in (
            (rauzy.rauzy_dot, (g,), "fibonacci_n2_raw.dot"),
            (rauzy.reduced_dot, (rg, g), "fibonacci_n2_reduced.dot"),
            (rauzy.super_dot, (sg, g.alphabet), "fibonacci_n2_super.dot"),
        ):
            out = io.StringIO()
            render(*args, out)
            assert out.getvalue() == (GOLDEN / golden).read_text()


TRIANGLE_CASES = [
    ("fibonacci", {}, True, {}),
    ("tribonacci", {}, True, {}),
    ("periodic", {"block": family_block(0).text}, True, {}),
    ("periodic", {"block": family_block(1).text}, True, {}),
    ("periodic", {"block": family_block(2).text}, True, {}),
    ("psi-of-fibonacci", {"k": 0}, True, {}),
    ("psi-of-fibonacci", {"k": 1}, True, {}),
    ("psi-of-fibonacci", {"k": 2}, True, {}),
    ("cassaigne-aab", {}, True, {}),
    ("quadratic-abab", {}, True, {}),
    ("morphic", {"morphism": "a->aba,b->bb"}, True, {}),
    ("thue-morse", {}, False, {}),
    ("s-word", {}, False, {"prefix_cap": 1 << 18}),
]


def test_criterion_4_theorem1_triangle():
    with criterion(4, "Theorem-1 triangle closes for the whole registry corpus"):
        for name, params, expect_rich, extra in TRIANGLE_CASES:
            family = get_family(name, **params)
            report = theorem1_experiment(family, 20, **extra)
            label = f"{name} {params}"
            assert report.richness.agree, label
            assert report.richness.rich == expect_rich, label
            assert report.equality_all == expect_rich, label
            assert report.conditions_all == expect_rich, label
            assert report.triangle_consistent, label
            assert report.discrepancies() == (), label
            if name == "s-word":
                assert report.closure_ok is False, label
            else:
                assert report.closure_ok is True, label
        # the pinned closure witness for the s-word, at the depth of the
        # worked example: the first factor of length 3, in index order,
        # whose reversal is absent (no b is preceded by an a)
        ok, witness = is_closed_under_reversal(get_family("s-word").index(5), 3)
        assert not ok
        assert witness.text == "aab" and witness.reversed().text == "baa"


def test_criterion_5_cassaigne_formula_chain():
    with criterion(5, "a->aab fixed point: complexity chain holds for n<=50"):
        started = time.perf_counter()
        chk = cassaigne_formula_check(50)
        assert chk.ok
        assert len(chk.rows) == 50
        assert time.perf_counter() - started < 30.0


def test_criterion_6_counting_formulas_vs_oracles():
    with criterion(6, "Sturmian counting formulas match enumeration oracles"):
        for n in range(15):
            assert sturmian_count(n) == len(enumerate_balanced(n))
        assert sturmian_palindrome_enumeration_oracle(14) == [
            sturmian_palindrome_count(n) for n in range(15)
        ]
        assert verify_c_identity(200)


def test_criterion_7_proposition_2_exhaustive():
    with criterion(7, "three richness checkers agree exhaustively (2^12, 3^8)"):
        started = time.perf_counter()
        for alphabet, max_len in (("ab", 12), ("abc", 8)):
            base = Word.parse(alphabet).alphabet
            for length in range(max_len + 1):
                for letters in product(alphabet, repeat=length):
                    text = "".join(letters)
                    w = Word.parse(text, base)
                    t = Eertree.build(w)
                    rep = is_rich_incremental(t)
                    assert rep.rich == is_rich_by_returns(w).rich == is_rich_by_count(t)
                    assert t.node_count + 1 == len(palindromic_substrings(text))
        assert time.perf_counter() - started < 60.0


def _binary_palindromes(max_len: int):
    yield ""
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        for letters in product("ab", repeat=half):
            head = "".join(letters)
            tail = head[::-1]
            yield head + tail[length % 2 :]


def test_criterion_8_theorem2_exhaustive():
    with criterion(8, "finite-palindrome equivalence over binary |w|<=14"):
        checked = 0
        for text in _binary_palindromes(14):
            w = Word.parse(text, Word.parse("ab").alphabet)
            rep = theorem2_check(w)
            assert rep.count_ok == rep.returns_ok == rep.identity_ok, text
            checked += 1
        assert checked == 1 + sum(2 ** ((l + 1) // 2) for l in range(1, 15))


def test_criterion_9_span_and_alternation_properties():
    with criterion(9, "span palindromicity and alternation on Fibonacci/Tribonacci"):
        for name in ("fibonacci", "tribonacci"):
            sp = stabilized_prefix(get_family(name).produce, 9)
            assert sp.stable
            idx = sp.index
            data = sp.word.data
            for n in range(1, 9):
                for u in idx.factors(n):
                    v = Word(idx.alphabet, u)
                    ok, witness = check_v2reverse(data, u)
                    assert ok, (name, v.text, witness)
                    if not v.is_palindrome():
                        assert check_alternation(data, u), (name, v.text)


def test_criterion_10_rich_word_table(capsys):
    with criterion(10, "rich-word counts: pruned DFS = naive sweep, golden table"):
        assert main(["count", "--kind", "rich", "--alphabet", "2", "--n-max", "16"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "rich_binary_counts.csv").read_text()
        values = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values[:15] == count_rich_naive(2, 14)
        least_defective = min(n for n, count in enumerate(values) if count < 2**n)
        assert least_defective == 8
