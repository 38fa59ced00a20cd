"""The three Rauzy graph tiers, their path-level properties, and the
reduced graph of every order carried from the one before.

Order-n Rauzy graph: vertices are the length-n factors, edges the length-
(n+1) factors, oriented prefix to suffix.  Contracting maximal runs of
non-special vertices gives the reduced graph on special factors, whose edges
are simple paths carrying word labels.  Quotienting special factors by
reversal gives the undirected super-reduced graph, whose tree-ness is the
combinatorial core of the equality

    P(n) + P(n+1) = C(n+1) - C(n) + 2.

An index built for n_max answers every order 0..n_max (``factors``
docstring): the order-n graph reads F_n and F_{n+1}, and
:func:`carried_graphs` reads factors of length at most n+1 at order n.

:func:`build_rauzy` and :func:`reduce` build one order from its factor sets,
and :func:`super_reduce` quotients it; ``palrich graph`` draws them.
``palrich verify`` builds none of them: :func:`carried_graphs` evolves the
reduced graph from one order to the next instead, after Cassaigne
("Complexité et facteurs spéciaux", 1997), and never builds a full Rauzy
graph; :func:`is_tree` and :func:`palindromic_path_condition` read the two
conditions off its counts at every order.  Write S_n for the special
factors of length n and L(w, c) for the label of the order-n simple path
that leaves w in S_n through the edge w + c.  The order-(n+1) vertices are
the order-n edges.  Four facts carry one order to the next, and a fifth
makes condition 2 a count:

1. *Specials.*  Every x in S_{n+1} is b + w or w + c with w in S_n.  If x is
   right special, x + a and x + b are factors, hence so are x[1:] + a and
   x[1:] + b, and x[1:] is right special; likewise a left-special x has a
   left-special x[:-1]; this needs only closure under taking factors.
   ``FactorIndex.specials`` reads S_n, with right letters, off the sorted
   windows (facts (R) and (L) of ``factors``) for :func:`carried_graphs`
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
   stops there.  It reads no order-n path.
4. *The shift φ.*  Let the sets be closed under reversal, so that every
   factor has a left letter too, and let B_n be the bispecials in S_n.  A
   right special u not in B_n has one left letter a, which must precede
   each u + c, so φ(u) = a + u is right special with the right letters of
   u.  A left special u not in B_n has one right letter c, and
   φ(u) = u + c is left special with the left letters of u.  By fact 1 an
   x in S_{n+1} \\ B_{n+1} is φ(x[1:]) if it is right special and
   φ(x[:-1]) if it is left special, unless that factor is in B_n.  And u
   is right special with left letter a exactly when its reversal is left
   special with right letter a, so φ commutes with reversal.

   *Carried paths.*  Let u -> v be an order-n path with label L, u and v
   not in B_n, φ(u) and φ(v) not in B_{n+1}.  Its image is the path
   φ(u) -> φ(v) whose label is L with a in front if u is right special
   and with the right letter of v at the end if v is left special.  By
   fact 2 only the head edge h and the tail edge t of L could stop the
   walk along that label.  If u is right special, h is not left special
   (one left letter), and it is right special only if its suffix is, which
   makes the path one edge and h = φ(v), the end; symmetrically for t when
   v is left special.  If u is left special, h = φ(u); if v is right
   special, t = φ(v).  Only h = t = φ(u) = φ(v) breaks the walk, and then
   L is in B_{n+1}.  An exclusion of a head or tail edge that extends a
   member of B_n would add nothing: such an edge extends u or v.  A
   carried path keeps its w -> w̄ status (φ is one to one where defined
   and commutes with reversal), its label class (its reversal is carried
   too), and on a w -> w̄ path whether its label is a palindrome: the label
   grows to a + L + a, or not at all.

   ``oracles.shifted_paths`` checks the rule, and ``oracles.shift_mismatches``
   proves and checks that an order with no bispecial keeps the slack and
   both conditions, a lemma that :func:`carried_graphs` does not use.
5. *Connectivity.*  Let the sets be the factors of one infinite word y,
   and S_n not empty.  Every factor occurs in y, and from one occurrence
   of a member of S_n to the next the walk of y in the order-n graph
   follows one simple path.  So simple paths join every member of S_n to
   the first to occur: the reduced graph is weakly connected.  So is the
   super-reduced graph, since a path from w to w̄, which it drops, and a
   loop join a class to itself.  A connected graph on s vertices, loops
   and multi-edges counted, is a tree iff it has s - 1 edges: condition 2
   is that count.  The tests check connectivity at every order they run.

Facts 1 and 2 hold for any sets closed under taking factors; fact 3 needs
in addition that each edge met has a right extension, fact 4 closure
under reversal, and fact 5 the sets of one word; without closure under
reversal :func:`carried_graphs` walks every path.  So
:func:`carried_graphs` takes an index in which every factor of length at
most n_max has a right extension.  Every factor of an infinite word has
one, so every ``WordFamily.index`` qualifies.  A finite word's final
suffix may have none; its graphs take one order at a time,
``reduce(build_rauzy(idx, n))``, where a walk that meets that suffix makes
no path.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, TextIO

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
    ``reduce`` lists them.  It also iterates as
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


# -- Evolution across orders -------------------------------------------------

_Specials = dict[bytes, tuple[bool, bytes]]  # one order of FactorIndex.specials
_LETTERS = [bytes((c,)) for c in range(256)]

# The kinds of a special factor: right special only, left special only, both.
_RIGHT, _LEFT, _BOTH = "right", "left", "both"


class _Vertex:
    """One special factor, the same object at every order that φ carries it to.

    ``name`` is the factor at the current order.  ``out`` maps the letter
    after it in a path's label to the path; the one path out of a
    left-special-only vertex keeps the letter it was filed under.  ``into``
    holds the paths that end at it.  ``cls`` is one vertex of its reversal
    class, the same for both members.
    """

    __slots__ = ("name", "kind", "out", "into", "cls")

    def __init__(self, name: bytes, kind: str):
        self.name = name
        self.kind = kind
        self.out: dict[int, _Path] = {}
        self.into: set[_Path] = set()
        self.cls: _Vertex | None = None


class _Path:
    """One simple path, with its label as walked at order ``born``.

    A carried path is never rebuilt: its label at order n is the core with
    the n - born letters that φ prepended to a right-special-only source
    and appended to a left-special-only target (fact 4); see
    :meth:`CarriedGraph.label`.  ``edge`` is the key of its class of
    labels up to reversal, one edge of the super-reduced graph, and None
    for a path from w to its reversal, for which ``bad`` says that its
    label is no palindrome.
    """

    __slots__ = ("source", "target", "core", "born", "first", "edge", "bad")

    def __init__(self, source: _Vertex, target: _Vertex, core: bytes, m: int):
        self.source = source
        self.target = target
        self.core = core
        self.born = m
        self.first = core[m]
        reverse = core[::-1]
        if target.name == source.name[::-1]:
            self.edge = None
            self.bad = core != reverse
        else:
            self.edge = (m, min(core, reverse))
            self.bad = False


class CarriedGraph:
    """The reduced Rauzy graph of order ``n``, carried from the order before.

    ``vertices`` maps each special factor to its vertex, and the paths hang
    off the vertices (``out`` and ``into``); only :meth:`label` builds a
    label.  ``specials`` is the order's ``FactorIndex.specials``.  Kept up
    to date as paths come and go: ``bad`` counts the paths from a special
    factor w to its reversal whose label is no palindrome (condition 1),
    ``edges`` groups the other paths by label class, one super-reduced
    edge each, and ``s`` counts the reversal classes of the vertices.
    :func:`carried_graphs` updates one object in place.
    """

    def __init__(self):
        self.n = 0
        self.specials: _Specials = {}
        self.vertices: dict[bytes, _Vertex] = {}
        self.paths = 0
        self.bad = 0
        self.edges: dict[tuple[int, bytes], list[_Path]] = {}
        self.s = 0

    def label(self, path: _Path) -> bytes:
        """The label of ``path`` at this order, from its core and its ends' names.

        An end that :meth:`_advance` has renamed keeps its order-n name as
        its last n letters (right special) or its first n (left special).
        """
        n = self.n
        k = n - path.born
        label = path.core
        if k:
            if path.source.kind is _RIGHT:
                label = path.source.name[-n:][:k] + label
            if path.target.kind is _LEFT:
                label += path.target.name[n - k : n]
        return label

    def _advance(self, new: _Specials, has: Callable[[bytes], bool], carry: bool) -> None:
        """Move from order n to order n + 1, whose special factors are ``new``.

        One pass over ``new`` makes each vertex of order n + 1.  With
        ``carry``, each x in S_{n+1} \\ B_{n+1} claims and renames the vertex
        of its preimage under φ, x[1:] or x[:-1], when that has its kind,
        and the paths between claimed vertices stay.  The other vertices
        are dropped with their paths, and the paths out of new vertices or
        in place of dropped ones are walked (:func:`_walk`).
        """
        n = self.n
        old = self.vertices
        dropped = dict(old)
        vertices: dict[bytes, _Vertex] = {}
        fresh: list[_Vertex] = []
        claim = dropped.pop if carry else {}.pop
        for x, (left, right) in new.items():
            # A special that is not left special is right special.
            if not left:
                u, kind = claim(x[1:], None), _RIGHT
            elif len(right) < 2:
                u, kind = claim(x[:-1], None), _LEFT
            else:
                u, kind = None, _BOTH
            if u is None or u.kind is not kind:
                if u is not None:  # a bispecial, never claimed
                    dropped[u.name] = u
                u = _Vertex(x, kind)
                fresh.append(u)
            else:
                u.name = x
            vertices[x] = u
        gone = {p: None for u in dropped.values() for p in (*u.out.values(), *u.into)}
        starts = [(v.name, c) for v in fresh for c in new[v.name][1]]
        for p in gone:
            x = p.source.name
            if len(x) > n:  # claimed: walk again from its new name
                starts.append((x, p.first if p.source.kind is _RIGHT else new[x][1][0]))
        walked = _walk(self, starts, new, has)
        for p in gone:
            del p.source.out[p.first]
            p.target.into.remove(p)
            self._count(p, -1)
        self.s -= sum(u.cls is u for u in dropped.values())
        for v in fresh:
            r = vertices.get(v.name[::-1])
            v.cls = r.cls if r is not None and r.cls is not None else v
            self.s += v.cls is v
        m = n + 1
        for x, target, label in walked:
            p = _Path(vertices[x], vertices[target], label, m)
            p.source.out[p.first] = p
            p.target.into.add(p)
            self._count(p, 1)
        self.n, self.specials, self.vertices = m, new, vertices

    def _count(self, p: _Path, sign: int) -> None:
        self.paths += sign
        if p.edge is None:
            self.bad += sign * p.bad
        elif sign > 0:
            self.edges.setdefault(p.edge, []).append(p)
        else:
            group = self.edges[p.edge]
            group.remove(p)
            if not group:
                del self.edges[p.edge]


def _walk(
    cg: CarriedGraph,
    starts: list[tuple[bytes, int]],
    new_specials: _Specials,
    has: Callable[[bytes], bool],
) -> list[tuple[bytes, bytes, bytes]]:
    """The order-(n+1) paths that leave x by letter c, spliced from order n (facts 2, 3).

    Each (x, c) of ``starts`` gives one (source, target, label); ``cg`` is
    the graph of order n and ``has`` tests factor membership.  Of each
    order-n path read, only the head and the tail edge are tested; a
    one-edge path is read off the specials alone.  This is the one splice
    of the package.
    """
    n, specials, vertices = cg.n, cg.specials, cg.vertices
    m = n + 1
    out: list[tuple[bytes, bytes, bytes]] = []
    for x, c in starts:
        if x[1:] in specials:
            label = x + _LETTERS[c]
            target = label[1:]
            if target in new_specials:
                out.append((x, target, label))
                continue
            parts = [x[:1]]
            v = vertices[x[1:]]
        else:
            # x is the head of an order-n path, and x[1:] has one extension.
            parts = [b""]
            v, c = vertices[x[:-1]], x[-1]
        trim = 0
        check_head = False
        for _ in range(cg.paths + 1):
            paths = v.out
            path = paths[c] if len(paths) > 1 else next(iter(paths.values()))
            label = cg.label(path)
            if check_head and label[:m] in new_specials:
                parts.append(label[trim:m])
                out.append((x, label[:m], b"".join(parts)))
                break
            parts.append(label[trim:])
            tail = label[-m:]
            if tail in new_specials:
                out.append((x, tail, b"".join(parts)))
                break
            # A non-special tail has exactly one right extension.  The label
            # ends with the target's order-n name, tail[1:]; the target may
            # already have its order-(n+1) name.
            v = path.target
            right = [d for d in specials[tail[1:]][1] if has(tail + _LETTERS[d])]
            if len(right) != 1:
                raise AssertionError("non-special vertex with out-degree != 1")
            c = right[0]
            trim = n
            check_head = True
        else:
            raise AssertionError("walk exceeded the path count; sets corrupt")
    return out


def carried_graphs(idx: FactorIndex, reversal_closed: bool) -> Iterator[CarriedGraph]:
    """The reduced graph of each order n = 0..idx.n_max, each from the last.

    Yields one :class:`CarriedGraph`, updated in place, so read each order
    before asking for the next.  With ``reversal_closed`` the paths that
    avoid the bispecials are carried through φ (fact 4); the others, and
    without it every path, are walked (facts 2 and 3).  Every factor of
    ``idx`` of length at most n_max must have a right extension, as in the
    index of an infinite word, and :func:`is_tree` needs the index of one
    word (fact 5).
    """
    cg = CarriedGraph()
    for n, specials in enumerate(idx.specials()):
        if n == 0:
            cg.specials = specials
            if specials:
                # The empty word is bispecial, with one path per letter to itself.
                v = cg.vertices[b""] = _Vertex(b"", _BOTH)
                v.cls = v
                cg.s = 1
                for c in specials[b""][1]:
                    p = _Path(v, v, _LETTERS[c], 0)
                    v.out[c] = p
                    v.into.add(p)
                    cg._count(p, 1)
        else:
            cg._advance(specials, idx.has_factor, reversal_closed)
        yield cg


def is_tree(cg: CarriedGraph) -> bool:
    """Condition 2: the super-reduced graph is a tree.

    It is connected (fact 5), so it is one iff its edges, one per label
    class of ``cg.edges`` with multi-edges and loops counted, number s - 1.
    """
    return len(cg.edges) == cg.s - 1


def palindromic_path_condition(cg: CarriedGraph) -> bool:
    """Condition 1: every simple path from a special factor to its reversal is palindromic."""
    return cg.bad == 0


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
