"""The three Rauzy graph tiers and their path-level properties.

Order-n Rauzy graph: vertices are the length-n factors, edges the length-
(n+1) factors, oriented prefix to suffix.  Contracting maximal runs of
non-special vertices gives the reduced graph on special factors, whose edges
are simple paths carrying word labels.  Quotienting special factors by
reversal gives the undirected super-reduced graph, whose tree-ness is the
combinatorial core of the equality

    P(n) + P(n+1) = C(n+1) - C(n) + 2.

Periodic words have no special factors at large orders; reduction then
returns a graph with no vertices instead of raising, the identity is
checked through the periodicity route by callers, and :func:`reduced_dot`
draws the cycle from the raw graph.

An index built for n_max answers every order 0..n_max (``factors``
docstring): the order-n graph reads F_n and F_{n+1}, and the evolution
below reads factors of length at most n+1 at order n.

Each fact has one source.  A Rauzy graph keeps one adjacency, the
right-extension map of ``FactorIndex.right_extensions``: the edges out of
v are v + c for its letters c.  The left map serves only to find the
special factors.  The super-reduced graph stores each reversal class as
its least member, and reads both the class count s and the
special-palindrome count p off those classes.  The three DOT renderers
hand their nodes and (a, b, label) edges to one line writer, which writes
each line to the text stream it is given as it makes it, so no DOT text
is held.

:func:`build_rauzy` and :func:`reduce` build one order from its factor sets.
:func:`reduced_graphs` evolves the reduced graph from one order to the next,
after Cassaigne ("Complexité et facteurs spéciaux", 1997).  Write S_n for
the special factors of length n and L(w, c) for the label of the order-n
simple path that leaves w in S_n through the edge w + c.  The order-(n+1)
vertices are the order-n edges.  Three facts carry one order to the next:

1. *Specials.*  Every x in S_{n+1} is b + w or w + c with w in S_n.  If x is
   right special, x + a and x + b are factors, hence so are x[1:] + a and
   x[1:] + b, and x[1:] is right special; likewise a left-special x has a
   left-special x[:-1]; this needs only closure under taking factors.
   ``FactorIndex.specials`` reads S_n, with right letters, off the sorted
   windows (facts (R) and (L) of ``factors``) for :func:`reduced_graphs`
   and for the counts of ``palrich analyze``.
2. *Interior edges.*  An edge in the interior of an order-n simple path
   joins two non-special vertices, so by fact 1 it is not special at order
   n+1.  Only the first edge (the head) and the last edge (the tail) of an
   order-n path can be.
3. *Paths follow labels.*  Let e be an order-n edge whose end e[1:] is not
   special.  Then e[1:] has one right extension d, and every right
   extension of e is one of e[1:], so e + d is the only edge out of e at
   order n+1, provided e has a right extension at all.  Hence an
   order-(n+1) walk reads the order-n labels end to end.  From x in S_{n+1}
   it starts as x[:1] + L(x[1:], c), one per right extension c of x, when
   x[1:] is in S_n.  Otherwise x[:-1] is in S_n (fact 1) and x is the head
   of L(x[:-1], x[-1]), which the walk follows.  At a tail that is not in
   S_{n+1} the walk leaves the order-n target t through the tail's one
   right extension d and appends L(t, d)[n:].  It stops at the first head
   or tail in S_{n+1}; by fact 2 nothing in between can stop it.
   *One edge.*  If x[1:] is in S_n and x[1:] + c is in S_{n+1}, the path is
   the one edge x -> x[1:] + c with label x + c: x + c is a factor, since c
   is a right letter of x, and its end x[1:] + c is special, so the walk
   stops there.  It reads no order-n path.  Up to order 120 such paths are
   13,595 of the 20,259 of cassaigne-aab and 13,493 of the 20,106 of
   quadratic-abab, about two in three.

Facts 1 and 2 hold for any sets closed under taking factors; fact 3 needs
in addition that each edge met has a right extension.  So
:func:`reduced_graphs` takes an index in which every factor of length at
most n_max has a right extension.  Every factor of an infinite word has
one, so every ``WordFamily.index`` qualifies.  A finite word's final
suffix may have none; its graphs take one order at a time,
``reduce(build_rauzy(idx, n))``, where a walk that meets that suffix makes
no path.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

from .errors import NotApplicable, OutOfRange
from .factors import FactorIndex
from .words import Alphabet


class RauzyGraph(NamedTuple):
    """Directed graph of order n: F_n vertices, F_{n+1} edges.

    ``right`` is the index's right-extension map and the graph's one
    adjacency: the edges out of v are v + c for the letters c of
    ``right[v]``.  ``special`` holds the vertices with two or more right or
    left extensions.  Vertices, edges and the keys of ``right`` come in
    index order.

    A ``NamedTuple`` that only :func:`build_rauzy` makes; it equals the
    plain tuple of its values and iterates over them; no caller relies on
    either.
    """

    n: int
    alphabet: Alphabet
    vertices: tuple[bytes, ...]
    edges: tuple[bytes, ...]
    right: dict[bytes, bytes]
    special: frozenset[bytes]


def build_rauzy(idx: FactorIndex, n: int) -> RauzyGraph:
    """Order-n Rauzy graph, 0 <= n <= idx.n_max; the left map only marks specials."""
    if not 0 <= n <= idx.n_max:
        raise OutOfRange(f"graph order must satisfy 0 <= n <= n_max = {idx.n_max}")
    vertices = idx.factors(n)
    edges = idx.factors(n + 1)
    right = idx.right_extensions(n)
    left = idx.left_extensions(n)
    special = frozenset(v for v in vertices if len(right[v]) > 1 or len(left[v]) > 1)
    return RauzyGraph(n, idx.alphabet, vertices, edges, right, special)


class SimplePath(NamedTuple):
    """A directed path with special endpoints and non-special interior.

    Only the endpoints and the label are stored.  With n = |source|, the
    vertices are the length-n windows of the label and the edges its
    length-(n+1) windows, both in walk order.

    A ``NamedTuple``, so paths sort by (source, target, label), as
    ``reduce`` and ``reduced_graphs`` list them.  It also iterates as
    (source, target, label), the edge that ``reduced_dot`` draws.
    """

    source: bytes
    target: bytes
    label: bytes

    @property
    def palindromic(self) -> bool:
        return self.label == self.label[::-1]


class ReducedRauzyGraph(NamedTuple):
    """Special factors as vertices; one labeled edge per simple path.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    n: int
    vertices: tuple[bytes, ...]
    edges: tuple[SimplePath, ...]

    @property
    def no_specials(self) -> bool:
        return not self.vertices


def _simple_paths(g: RauzyGraph) -> list[SimplePath]:
    special, right = g.special, g.right
    paths: list[SimplePath] = []
    limit = len(g.edges) + 1
    for v in sorted(special):
        for c in right[v]:
            label = bytearray(v)
            label.append(c)
            cur = bytes(label[1:])
            steps = 0
            while cur not in special:
                cs = right[cur]
                if not cs:
                    # A dead end, only in the graph of a finite word: no path.
                    break
                if len(cs) > 1:
                    raise AssertionError("non-special vertex with out-degree > 1")
                label += cs
                cur = cur[1:] + cs
                steps += 1
                if steps > limit:
                    raise AssertionError("walk exceeded edge count; graph corrupt")
            else:
                paths.append(SimplePath(v, cur, bytes(label)))
    paths.sort()
    return paths


def reduce(g: RauzyGraph) -> ReducedRauzyGraph:
    """Contract maximal runs of non-special vertices into labeled edges.

    Each walk leaves a special vertex through one of its edges and follows
    the one right extension of every non-special vertex until it meets a
    special one.  A walk that meets a vertex without a right extension (the
    final suffix of a finite word) is not a path and is dropped.  A graph
    without special vertices (an eventually periodic word at this order)
    reduces to no vertices and no edges.
    """
    return ReducedRauzyGraph(g.n, tuple(sorted(g.special)), tuple(_simple_paths(g)))


# -- Evolution across orders -------------------------------------------------

_Specials = dict[bytes, tuple[bool, bytes]]  # one order of FactorIndex.specials
_LETTERS = [bytes((c,)) for c in range(256)]


def _next_paths(
    previous: Sequence[SimplePath],
    specials: _Specials,
    new_specials: _Specials,
    has: Callable[[bytes], bool],
    n: int,
) -> list[SimplePath]:
    """The order-(n+1) simple paths, spliced from the order-n ones (facts 2, 3).

    ``previous`` holds the order-n paths and ``has`` tests factor
    membership.  Each order-(n+1) path visits the edges of consecutive
    order-n paths; only the first and last edge of each (head and tail) can
    be special at order n+1, so only those are tested.  A one-edge path
    (fact 3) is read off the specials alone; a longer walk reads the order-n
    paths through a map from (source, first letter), built as the order starts.
    """
    m = n + 1
    paths = {(p.source, p.label[n]): p for p in previous}
    out: list[SimplePath] = []
    for x in sorted(new_specials):
        if x[1:] in specials:
            starts = []
            for c in new_specials[x][1]:
                label = x + _LETTERS[c]
                target = label[1:]
                if target in new_specials:
                    out.append(SimplePath(x, target, label))
                else:
                    starts.append((x[:1], x[1:], c))
        else:
            # x is the head of an order-n path, and x[1:] has one extension.
            starts = [(b"", x[:-1], x[-1])]
        for prefix, s, c in starts:
            parts = [prefix]
            trim = 0
            check_head = False
            for _ in range(len(paths) + 1):
                path = paths[s, c]
                label = path.label
                if check_head and label[:m] in new_specials:
                    parts.append(label[trim:m])
                    out.append(SimplePath(x, label[:m], b"".join(parts)))
                    break
                parts.append(label[trim:])
                tail = label[-m:]
                if tail in new_specials:
                    out.append(SimplePath(x, tail, b"".join(parts)))
                    break
                # A non-special tail has exactly one right extension.
                s = path.target
                right = [d for d in specials[s][1] if has(tail + _LETTERS[d])]
                if len(right) != 1:
                    raise AssertionError("non-special vertex with out-degree != 1")
                c = right[0]
                trim = n
                check_head = True
            else:
                raise AssertionError("walk exceeded the path count; sets corrupt")
    out.sort()
    return out


def reduced_graphs(idx: FactorIndex) -> Iterator[ReducedRauzyGraph]:
    """``reduce(build_rauzy(idx, n))`` for n = 0..idx.n_max, each from the last.

    The special factors of each order come from ``FactorIndex.specials``;
    the simple paths of order n carry over to order n+1 through facts 2
    and 3 of the module docstring; no order builds its full Rauzy graph,
    and an order without special factors reads no factor set at all.
    Every factor of ``idx`` of length at most n_max must have a right
    extension, as in the index of an infinite word.
    """
    previous: _Specials = {}
    paths: list[SimplePath] = []
    for n, specials in enumerate(idx.specials()):
        if n == 0:
            # One path per letter, from the empty word to itself.
            paths = [
                SimplePath(b"", b"", bytes((c,)))
                for _, right in specials.values()
                for c in right
            ]
        elif previous:
            paths = _next_paths(paths, previous, specials, idx.has_factor, n - 1)
        previous = specials
        yield ReducedRauzyGraph(n, tuple(sorted(specials)), tuple(paths))


class SuperEdge(NamedTuple):
    """One edge of the super-reduced graph: two classes and a label class.

    Each class is its least member, and ``class_a`` <= ``class_b``.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    class_a: bytes
    class_b: bytes
    label_class: bytes


class SuperReducedRauzyGraph(NamedTuple):
    """Reversal classes of special factors with undirected path edges.

    A path from a special factor to its own reversal is no edge here
    (condition 1 reads those); a path from w back to w, with its reversal,
    is a loop on the class of w.  A class pair gets one edge per reversal
    class of the labels joining it, so tree detection sees multi-edges and
    loops.  Each class is its least member, in sorted order; ``s`` counts
    the classes and ``p`` the special palindromes, the classes whose member
    is a palindrome.

    A ``NamedTuple``: it equals the plain tuple of its values and iterates
    over them; no caller relies on either.
    """

    n: int
    classes: tuple[bytes, ...]
    edges: tuple[SuperEdge, ...]

    @property
    def s(self) -> int:
        return len(self.classes)

    @property
    def p(self) -> int:
        return sum(1 for c in self.classes if c == c[::-1])


def super_reduce(rg: ReducedRauzyGraph) -> SuperReducedRauzyGraph:
    """Quotient the reduced graph by reversal.

    The class of each special factor, its least member, is computed once
    per vertex; each path reads its two classes from that map.
    """
    least = {v: min(v, v[::-1]) for v in rg.vertices}
    grouped: dict[tuple[bytes, bytes], set[bytes]] = {}
    for path in rg.edges:
        ka, kb = least[path.source], least[path.target]
        if ka == kb and path.target == path.source[::-1]:
            continue
        if kb < ka:
            ka, kb = kb, ka
        label = path.label
        reverse = label[::-1]
        grouped.setdefault((ka, kb), set()).add(reverse if reverse < label else label)
    edges = tuple(
        SuperEdge(ka, kb, label)
        for (ka, kb), labels in sorted(grouped.items())
        for label in sorted(labels)
    )
    return SuperReducedRauzyGraph(rg.n, tuple(sorted(set(least.values()))), edges)


def is_tree(sg: SuperReducedRauzyGraph) -> bool:
    """Connected with exactly s-1 edges; multi-edges break tree-ness."""
    if len(sg.edges) != sg.s - 1:
        return False
    parent = {c: c for c in sg.classes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = sg.s
    for e in sg.edges:
        ra, rb = find(e.class_a), find(e.class_b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


def palindromic_path_condition(
    rg: ReducedRauzyGraph,
) -> tuple[bool, SimplePath | None]:
    """Every simple path from a special factor to its reversal is palindromic.

    Returns the first counterexample path in sorted order, if any.
    """
    for path in rg.edges:
        if path.target == path.source[::-1] and not path.palindromic:
            return False, path
    return True, None


def _central_factor(label: bytes, m: int) -> bytes:
    offset = (len(label) - m) // 2
    return label[offset : offset + m]


def path_counting_identity(
    g: RauzyGraph,
    rg: ReducedRauzyGraph,
    pal_counts: tuple[int, int],
) -> tuple[int, int, bool]:
    """The triple ``(lhs, rhs, central_cover_ok)`` of the identity at order n.

    lhs is P(n) + P(n+1).  rhs counts the non-trivial simple paths (one
    per out-edge of a special factor), subtracts the non-palindromic ones,
    expected to pair up across the s-1 tree edges, and adds the special
    palindromes (trivial palindromic paths): the sum of out-degrees over
    the specials - 2(s-1) + p.  ``central_cover_ok`` says that every
    palindromic factor of length n or n+1 is the central factor of exactly
    one palindromic simple path.  Meaningful on rich reversal-closed words;
    on Thue-Morse, which is closed but not rich, it fails at some orders.

    ``rg`` is the reduced graph of ``g``; s and p are read from its
    :func:`super_reduce`.  ``pal_counts`` is the pair (P(n), P(n+1)), for
    instance from ``FactorIndex.palindrome_counts()``.  The theorem-1
    experiment does not evaluate the identity; the tests check it order by
    order.
    """
    if rg.no_specials:
        raise NotApplicable("no special factors at this order; periodic route applies")
    n = g.n
    sg = super_reduce(rg)
    p_n, p_n1 = pal_counts
    lhs = p_n + p_n1
    rhs = sum(len(g.right[v]) for v in rg.vertices) - 2 * (sg.s - 1) + sg.p
    centers: dict[bytes, int] = {}
    for path in rg.edges:
        if not path.palindromic:
            continue
        label = path.label
        m = n if (len(label) - n) % 2 == 0 else n + 1
        c = _central_factor(label, m)
        centers[c] = centers.get(c, 0) + 1
    for v in rg.vertices:
        if v == v[::-1]:
            centers[v] = centers.get(v, 0) + 1
    palindromes = {u for u in g.vertices if u == u[::-1]}
    palindromes |= {u for u in g.edges if u == u[::-1]}
    cover_ok = all(centers.get(u, 0) == 1 for u in palindromes) and set(
        centers
    ) <= palindromes
    return lhs, rhs, cover_ok


# -- DOT rendering ---------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _write_dot(out: TextIO, head: str, name, cycle: bool, nodes, edges, arrow: str) -> None:
    """Write one graph in DOT to ``out``, each line as it is made.

    ``head`` opens the graph, and ``cycle`` adds the note of a graph with no
    special vertex.  Then come one line per node and one per edge
    (a, b, label), drawn with ``arrow`` (``->`` or ``--``) and with no label
    when it is None.  ``name`` turns each node, end and label into its text.
    Every DOT line of the package is written here.
    """
    write = out.write
    write(f"{head} {{\n")
    if cycle:
        write('  graph [note="no special vertices; single cycle"];\n')
    for v in nodes:
        write(f"  {_quote(name(v))};\n")
    for a, b, label in edges:
        attrs = "" if label is None else f" [label={_quote(name(label))}]"
        write(f"  {_quote(name(a))} {arrow} {_quote(name(b))}{attrs};\n")
    write("}\n")


def rauzy_dot(g: RauzyGraph, out: TextIO) -> None:
    """Write deterministic DOT for the raw graph: one edge per (n+1)-factor."""
    edges = ((e[:-1], e[1:], e) for e in g.edges)
    head = f"digraph rauzy_{g.n}"
    _write_dot(out, head, g.alphabet.decode, not g.special, g.vertices, edges, "->")


def reduced_dot(rg: ReducedRauzyGraph, g: RauzyGraph, out: TextIO) -> None:
    """Write deterministic DOT for the reduced graph ``rg`` of ``g`` to ``out``.

    Each edge carries its path label.  A graph without special vertices is
    drawn as the walk of ``g`` from its least vertex, with unlabelled
    edges: every vertex has at most one edge out and one in, so the walk
    closes into the cycle, or, in the graph of a finite word, ends at the
    final suffix.
    """
    nodes, edges = rg.vertices, rg.edges
    if rg.no_specials:
        walk = [g.vertices[0]]
        while g.right[walk[-1]]:
            walk.append((walk[-1] + g.right[walk[-1]])[1:])
            if walk[-1] == walk[0]:
                break
        nodes = sorted(set(walk))
        edges = ((a, b, None) for a, b in zip(walk, walk[1:]))
    head = f"digraph reduced_rauzy_{rg.n}"
    _write_dot(out, head, g.alphabet.decode, rg.no_specials, nodes, edges, "->")


def super_dot(sg: SuperReducedRauzyGraph, alphabet, out: TextIO) -> None:
    """Write deterministic DOT for the super-reduced graph (undirected) to ``out``.

    Each class is drawn as its least member in brackets.
    """

    def name(u: bytes) -> str:
        return "[" + alphabet.decode(u) + "]"

    edges = ((e.class_a, e.class_b, e.label_class) for e in sg.edges)
    head = f"graph super_reduced_rauzy_{sg.n}"
    _write_dot(out, head, name, not sg.classes, sg.classes, edges, "--")
