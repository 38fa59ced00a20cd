import io
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palrich import rauzy
from palrich.errors import NotApplicable, OutOfRange
from palrich.factors import build_index, stabilized_prefix
from palrich.generators import REGISTRY, get_family
from palrich.palindromes import Eertree, is_rich_incremental
from palrich.words import Morphism, Word, fixed_point, periodic_word, s_word

from oracles import rauzy_graph_naive, super_reduce_per_path
from paper_facts import NotAWalk, is_strongly_connected, path_label, path_reversal_facts

FIB = Morphism.parse("a->ab,b->a")
TM = Morphism.parse("a->ab,b->ba")


def fib_index(n_max=10):
    return stabilized_prefix(lambda l: fixed_point(FIB, "a", l), n_max).index


def decode(alpha, items):
    return [alpha.decode(x) for x in items]


def label_is_rich(g, walk):
    return is_rich_incremental(Eertree.build(path_label(walk, g))).rich


def nonpalindromic_paths(rg):
    return [path for path in rg.edges if not path.palindromic]


def label_reversal_exists(rg, path):
    return path.label[::-1] in {q.label for q in rg.edges}


def windows(label, n):
    return tuple(label[i : i + n] for i in range(len(label) - n + 1))


def path_vertices(path):
    """The vertices of a simple path in walk order: the |source|-windows of its label."""
    return windows(path.label, len(path.source))


def path_edges(path):
    """The edges of a simple path in walk order: the (|source|+1)-windows of its label."""
    return windows(path.label, len(path.source) + 1)


def out_edges(g, v):
    return tuple(v + bytes((c,)) for c in g.right[v])


def dot(render, *args):
    out = io.StringIO()
    render(*args, out)
    return out.getvalue()


def test_build_rauzy_fibonacci_order2():
    idx = fib_index()
    g = rauzy.build_rauzy(idx, 2)
    assert decode(g.alphabet, g.vertices) == ["aa", "ab", "ba"]
    assert decode(g.alphabet, g.edges) == ["aab", "aba", "baa", "bab"]
    assert len(g.vertices) == idx.complexity(2)
    assert len(g.edges) == idx.complexity(3)
    left = idx.left_extensions(2)
    assert sum(map(len, g.right.values())) == sum(map(len, left.values())) == len(g.edges)
    assert is_strongly_connected(g)


def assert_graph_matches_naive(idx, n):
    """Degrees and specials of build_rauzy equal the edge-by-edge oracle.

    Out-edges and out-degrees come from the graph's extension map, in-degrees
    and left specials from the index's left extensions.
    """
    g = rauzy.build_rauzy(idx, n)
    left = idx.left_extensions(n)
    actual = {
        "out_edges": {v: out_edges(g, v) for v in g.right},
        "out_degree": {v: len(cs) for v, cs in g.right.items()},
        "in_degree": {v: len(cs) for v, cs in left.items()},
        "right_special": frozenset(v for v, cs in g.right.items() if len(cs) >= 2),
        "left_special": frozenset(v for v, cs in left.items() if len(cs) >= 2),
    }
    for attr, expected in rauzy_graph_naive(idx, n).items():
        assert actual[attr] == expected, (attr, n)
        if isinstance(expected, dict):
            assert list(actual[attr]) == list(expected), (attr, n)
    assert g.special == actual["right_special"] | actual["left_special"]
    return g


@given(st.text(alphabet="abc", min_size=2, max_size=40))
@example("abc")
@example("abbbbab")
@settings(max_examples=200, deadline=None)
def test_build_rauzy_matches_naive_graph_on_literal_words(text):
    w = Word.parse(text)
    data = w.data
    idx = build_index(w, len(text) - 1)
    for n, specials in zip(range(idx.n_max + 1), idx.specials(), strict=True):
        g = assert_graph_matches_naive(idx, n)
        assert g.special == specials.keys()
        if n == 0:
            continue
        # The final suffix of a finite word has no out-edge unless it occurs
        # earlier; likewise its first factor has no in-edge.
        last, first = data[len(data) - n :], data[:n]
        if data.find(last) == len(data) - n:
            assert g.right[last] == b"" and out_edges(g, last) == ()
        if data.rfind(first) == 0:
            assert idx.left_extensions(n)[first] == b""


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_build_rauzy_matches_naive_graph_on_registry_families(name):
    idx = get_family(name).index(30)
    for n, specials in zip(range(idx.n_max + 1), idx.specials(), strict=True):
        assert assert_graph_matches_naive(idx, n).special == specials.keys()


def test_build_rauzy_trivial_orders():
    idx = build_index(periodic_word(Word.parse("a"), 30), 3)
    g = rauzy.build_rauzy(idx, 1)
    assert len(g.vertices) == 1 and len(g.edges) == 1
    idx = fib_index()
    g0 = rauzy.build_rauzy(idx, 0)
    assert len(g0.vertices) == 1
    assert len(g0.edges) == idx.complexity(1)
    # An index built for n_max answers every order up to n_max.
    top = rauzy.build_rauzy(idx, idx.n_max)
    assert len(top.edges) == idx.complexity(idx.n_max + 1)
    with pytest.raises(OutOfRange):
        rauzy.build_rauzy(idx, idx.n_max + 1)


def test_reduce_fibonacci_order2_worked_example():
    g = rauzy.build_rauzy(fib_index(), 2)
    rg = rauzy.reduce(g)
    assert decode(g.alphabet, rg.vertices) == ["ab", "ba"]
    triples = [
        (g.alphabet.decode(p.source), g.alphabet.decode(p.target), g.alphabet.decode(p.label))
        for p in rg.edges
    ]
    assert triples == [
        ("ab", "ba", "aba"),
        ("ba", "ab", "baab"),
        ("ba", "ab", "bab"),
    ]
    # label set matches the published worked example
    assert {t[2] for t in triples} == {"aba", "baab", "bab"}


def test_reduce_periodic_cycle_object():
    idx = build_index(periodic_word(Word.parse("ab"), 64), 4)
    g = rauzy.build_rauzy(idx, 2)
    rg = rauzy.reduce(g)
    assert rg.no_specials and rg.edges == ()
    # The DOT draws the cycle of the raw graph: a closed ring of two vertices.
    assert dot(rauzy.reduced_dot, rg, g) == (
        "digraph reduced_rauzy_2 {\n"
        '  graph [note="no special vertices; single cycle"];\n'
        '  "ab";\n  "ba";\n  "ab" -> "ba";\n  "ba" -> "ab";\n}\n'
    )


def test_reduction_soundness_edge_multiset():
    for name, n in (("fibonacci", 2), ("tribonacci", 1), ("thue-morse", 3)):
        idx = get_family(name).index(n + 2)
        g = rauzy.build_rauzy(idx, n)
        rg = rauzy.reduce(g)
        covered = Counter()
        for path in rg.edges:
            covered.update(path_edges(path))
        assert covered == Counter({e: 1 for e in g.edges})


def test_path_label_examples():
    g = rauzy.build_rauzy(fib_index(), 2)
    alpha = g.alphabet
    w = lambda t: alpha.encode(t)
    assert path_label([w("ab"), w("ba"), w("aa")], g).text == "abaa"
    assert path_label([w("ab")], g).text == "ab"
    assert path_label([w("ba"), w("ab"), w("ba")], g).text == "baba"
    with pytest.raises(NotAWalk):
        path_label([w("aa"), w("ba")], g)
    with pytest.raises(NotAWalk):
        path_label([], g)


def test_path_label_both_factorizations():
    g = rauzy.build_rauzy(fib_index(), 2)
    rg = rauzy.reduce(g)
    for path in rg.edges:
        vertices = path_vertices(path)
        k = len(vertices)
        first_letters = bytes(v[0] for v in vertices[: k - 1])
        last_letters = bytes(v[-1] for v in vertices[1:])
        assert path.label == vertices[0] + last_letters
        assert path.label == first_letters + vertices[-1]
        assert len(path.label) == g.n + len(path_edges(path))
        # the i-th window of the label is the (i+1)-th vertex
        for i, v in enumerate(vertices):
            assert path.label[i : i + g.n] == v


def test_label_is_rich_on_fibonacci_walks():
    g = rauzy.build_rauzy(fib_index(), 2)

    def walks(limit):
        stack = [(v,) for v in g.vertices]
        while stack:
            walk = stack.pop()
            yield walk
            if len(walk) <= limit:
                for e in out_edges(g, walk[-1]):
                    stack.append(walk + (e[1:],))

    for walk in walks(6):
        assert label_is_rich(g, walk)


def test_thue_morse_has_non_rich_walk_label():
    sp = stabilized_prefix(lambda l: fixed_point(TM, "a", l), 8)
    g = rauzy.build_rauzy(sp.index, 2)
    found = False
    stack = [(v,) for v in g.vertices]
    while stack:
        walk = stack.pop()
        if len(walk) > 8:
            continue
        if not label_is_rich(g, walk):
            found = True
            break
        for e in out_edges(g, walk[-1]):
            stack.append(walk + (e[1:],))
    assert found


def test_super_reduce_fibonacci_order2():
    g = rauzy.build_rauzy(fib_index(), 2)
    rg = rauzy.reduce(g)
    sg = rauzy.super_reduce(rg)
    assert sg.s == 1 and sg.p == 0
    assert len(sg.classes) == 1 and len(sg.edges) == 0
    assert g.alphabet.decode(sg.classes[0]) == "ab"
    assert rauzy.is_tree(sg)
    assert len(rg.edges) == 3
    assert len(nonpalindromic_paths(rg)) == 0
    assert all(p.palindromic and label_reversal_exists(rg, p) for p in rg.edges)
    assert 2 * sg.s - sg.p == len(rg.vertices)


def test_super_reduce_thue_morse_order3_not_tree():
    sp = stabilized_prefix(lambda l: fixed_point(TM, "a", l), 8)
    g = rauzy.build_rauzy(sp.index, 3)
    rg = rauzy.reduce(g)
    sg = rauzy.super_reduce(rg)
    assert sg.s == 4 and sg.p == 2
    assert len(sg.edges) == 4  # one more than a tree allows
    assert not rauzy.is_tree(sg)
    cond1, witness = rauzy.palindromic_path_condition(rg)
    assert cond1 and witness is None
    assert len(nonpalindromic_paths(rg)) == 8 > 2 * (sg.s - 1)


def test_super_reduce_keeps_a_path_back_to_its_source_as_a_loop():
    # Order 2 of (abacbabc)^omega: the specials ab and ba form one class.
    # aba and bab join each to its reversal; abcab (ab -> ab) and bacba
    # (ba -> ba), one reversal pair, are a loop on the class, so the graph
    # is no tree, and the word is not rich (bacb returns to b).
    idx = get_family("periodic", block="abacbabc").index(3)
    rg = rauzy.reduce(rauzy.build_rauzy(idx, 2))
    sg = rauzy.super_reduce(rg)
    encode = idx.alphabet.encode
    ab = encode("ab")
    assert sg.classes == (ab,) and (sg.s, sg.p) == (1, 0)
    assert sg.edges == (rauzy.SuperEdge(ab, ab, encode("abcab")),)
    assert not rauzy.is_tree(sg)
    assert dot(rauzy.super_dot, sg, idx.alphabet) == (
        'graph super_reduced_rauzy_2 {\n  "[ab]";\n'
        '  "[ab]" -- "[ab]" [label="[abcab]"];\n}\n'
    )


def test_palindromic_path_condition_violation_on_s_word():
    idx = build_index(s_word(2000), 4)
    g = rauzy.build_rauzy(idx, 1)
    rg = rauzy.reduce(g)
    cond1, witness = rauzy.palindromic_path_condition(rg)
    assert not cond1
    assert witness is not None and witness.label == witness.source + bytes(
        [1, 2, 0]
    )  # the span a..bca wraps to a non-palindromic label abca


def test_path_counting_identity_fibonacci():
    idx = fib_index()
    g = rauzy.build_rauzy(idx, 2)
    rg = rauzy.reduce(g)
    by_length = Eertree.build(fixed_point(FIB, "a", 64)).nodes_by_length()
    pal_counts = (by_length[2], by_length[3])
    lhs, rhs, cover_ok = rauzy.path_counting_identity(g, rg, pal_counts)
    assert lhs == rhs == 3
    assert cover_ok
    lhs2, rhs2, _ = rauzy.path_counting_identity(g, rg, (1, 2))
    assert lhs2 == 3 and rhs2 == 3


def test_path_counting_identity_not_applicable_for_cycle():
    idx = build_index(periodic_word(Word.parse("a"), 40), 4)
    g = rauzy.build_rauzy(idx, 2)
    rg = rauzy.reduce(g)
    with pytest.raises(NotApplicable):
        rauzy.path_counting_identity(g, rg, (1, 1))


def test_path_reversal_facts():
    g = rauzy.build_rauzy(fib_index(), 2)
    alpha = g.alphabet
    exists, pal = path_reversal_facts(
        g, [alpha.encode("ab"), alpha.encode("ba")]
    )
    assert exists and pal

    idx = build_index(s_word(300), 3)
    gs = rauzy.build_rauzy(idx, 2)
    salpha = gs.alphabet
    # walk bc -> ca exists; its mirror needs cb and ac, both absent
    exists, pal = path_reversal_facts(
        gs, [salpha.encode("bc"), salpha.encode("ca")]
    )
    assert not exists and not pal

    idx = build_index(periodic_word(Word.parse("a"), 20), 2)
    ga = rauzy.build_rauzy(idx, 1)
    exists, pal = path_reversal_facts(ga, [ga.vertices[0]])
    assert exists and pal


def test_simple_path_uniqueness_on_rich_words():
    for name in ("fibonacci", "tribonacci"):
        idx = get_family(name).index(11)
        for n in range(1, 9):
            rg = rauzy.reduce(rauzy.build_rauzy(idx, n))
            seen = Counter((p.source, p.target) for p in rg.edges)
            dupes = {k for k, c in seen.items() if c > 1}
            # parallel simple paths between the same ordered pair never
            # happen on rich words (fibonacci n=2 has two ba->ab paths only
            # because ab/ba are the sole specials; they differ in label)
            for a, b in dupes:
                labels = {p.label for p in rg.edges if (p.source, p.target) == (a, b)}
                assert len(labels) == len(
                    [p for p in rg.edges if (p.source, p.target) == (a, b)]
                )


def test_dot_outputs_are_deterministic():
    idx = fib_index()
    g = rauzy.build_rauzy(idx, 2)
    rg = rauzy.reduce(g)
    sg = rauzy.super_reduce(rg)
    assert dot(rauzy.rauzy_dot, g) == dot(rauzy.rauzy_dot, rauzy.build_rauzy(fib_index(), 2))
    assert 'digraph reduced_rauzy_2' in dot(rauzy.reduced_dot, rg, g)
    assert '"ba" -> "ab" [label="baab"]' in dot(rauzy.reduced_dot, rg, g)
    assert dot(rauzy.super_dot, sg, g.alphabet) == (
        'graph super_reduced_rauzy_2 {\n  "[ab]";\n}\n'
    )


def test_dot_cycle_note():
    idx = build_index(periodic_word(Word.parse("ab"), 64), 4)
    g = rauzy.build_rauzy(idx, 2)
    rg = rauzy.reduce(g)
    text = dot(rauzy.reduced_dot, rg, g)
    assert "note=" in text and "single cycle" in text
    sg = rauzy.super_reduce(rg)
    assert "note=" in dot(rauzy.super_dot, sg, g.alphabet)


def _identity_holds(idx, g, rg):
    n = g.n
    pal_counts = tuple(idx.palindrome_counts()[n : n + 2])
    lhs, rhs, cover_ok = rauzy.path_counting_identity(g, rg, pal_counts)
    return lhs == rhs and cover_ok


def test_rich_words_have_exactly_2s_minus_2_nonpalindromic_paths():
    for name, params in (
        ("fibonacci", {}),
        ("tribonacci", {}),
        ("cassaigne-aab", {}),
        ("quadratic-abab", {}),
        ("psi-of-fibonacci", {"k": 0}),
        ("periodic", {"block": "aabaabab"}),
    ):
        idx = get_family(name, **params).index(11)
        for n in range(1, 10):
            g = rauzy.build_rauzy(idx, n)
            rg = rauzy.reduce(g)
            if rg.no_specials:
                continue
            sg = rauzy.super_reduce(rg)
            assert len(nonpalindromic_paths(rg)) == 2 * (sg.s - 1), (name, n)
            for path in nonpalindromic_paths(rg):
                assert label_reversal_exists(rg, path), (name, n)
            assert _identity_holds(idx, g, rg), (name, n)
    # Thue-Morse is closed under reversal but not rich: the identity breaks.
    idx = get_family("thue-morse").index(11)
    failing = []
    for n in range(1, 10):
        g = rauzy.build_rauzy(idx, n)
        rg = rauzy.reduce(g)
        if not _identity_holds(idx, g, rg):
            failing.append(n)
    assert failing == [3, 4, 5, 6, 9]


# -- evolved reduced graphs against the per-order build ------------------------


def assert_evolution_matches_per_order_build(idx):
    """Every graph of reduced_graphs equals reduce(build_rauzy(idx, n)).

    The evolution runs through the index's top order.  Each graph's
    super-reduction also equals that of the per-path oracle.
    """
    evolved = list(rauzy.reduced_graphs(idx))
    assert [rg.n for rg in evolved] == list(range(idx.n_max + 1))
    for rg in evolved:
        ref = rauzy.reduce(rauzy.build_rauzy(idx, rg.n))
        assert rg.vertices == ref.vertices, rg.n
        assert list(rg.edges) == sorted(ref.edges), rg.n
        assert rauzy.super_reduce(rg) == super_reduce_per_path(rg), rg.n


@pytest.mark.parametrize(
    "name, params",
    [
        ("fibonacci", {}),
        ("thue-morse", {}),
        ("cassaigne-aab", {}),
        ("quadratic-abab", {}),
        ("psi-of-fibonacci", {"k": 0}),
        ("psi-of-fibonacci", {"k": 1}),
        ("psi-of-fibonacci", {"k": 2}),
        ("periodic", {"block": "aabaabab"}),
        ("periodic", {"block": "abc"}),
        ("morphic", {"morphism": "a->aba,b->bb"}),
        ("morphic", {"morphism": "a->ab,b->bc,c->a"}),
        ("tribonacci", {}),
        ("s-word", {}),
        ("episturmian", {"directive": "aabc"}),
    ],
)
def test_reduced_graphs_match_per_order_build_on_exact_families(name, params):
    assert_evolution_matches_per_order_build(get_family(name, **params).index(60))


@pytest.mark.parametrize("name", ["cassaigne-aab", "quadratic-abab"])
def test_reduced_graphs_match_per_order_build_at_deep_orders(name):
    # Up to order 120 about two paths in three are one edge x -> x[1:] + c,
    # read off the specials alone (fact 3); at the top orders checked here
    # more than half are.
    idx = get_family(name).index(120)
    evolved = list(rauzy.reduced_graphs(idx))
    for n in (100, 110, 120):
        rg = evolved[n]
        ref = rauzy.reduce(rauzy.build_rauzy(idx, n))
        assert rg == ref, n
        one_edge = sum(len(p.label) == n + 1 for p in rg.edges)
        assert 2 * one_edge > len(rg.edges), n


@given(st.text(alphabet="abc", min_size=1, max_size=8), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_reduced_graphs_match_per_order_build_on_periodic_words(block, extra):
    # From order |b| on, the graph of a periodic word is one cycle with no
    # special vertex, so each evolution here runs past its last special.
    index = get_family("periodic", block=block).index(2 * len(block) + extra)
    assert_evolution_matches_per_order_build(index)


def test_literal_word_reaches_the_dangling_branch():
    # In abbbbab the final suffix bab has no right extension.  At order 3
    # the walk from the special vertex bbb through bba stops at bab, a dead
    # end, and makes no path.
    idx = build_index(Word.parse("abbbbab"), 6)
    g = rauzy.build_rauzy(idx, 3)
    encode = idx.alphabet.encode
    assert g.special == {encode("bbb")} and g.right[encode("bab")] == b""
    rg = rauzy.reduce(g)
    assert rg.edges == (rauzy.SimplePath(encode("bbb"), encode("bbb"), encode("bbbb")),)
