"""Named word generators: every family used in the analysis experiments.

Each registry entry packages a prefix producer with its expected richness,
when known, and an exact factor-set construction that sidesteps prefix
scanning entirely.  Only the richness checkers read a prefix, the sample
of at most ``RICHNESS_SAMPLE_CAP`` letters; every factor index is built
from the exact set.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

from .errors import PalrichError
from .factors import (
    FactorIndex,
    image_factor_sets,
    morphic_factor_sets,
    periodic_factor_sets,
    s_word_factor_sets,
)
from .words import (
    Alphabet,
    BINARY,
    Morphism,
    TERNARY,
    Word,
    fixed_point,
    morphic_image,
    periodic_word,
    s_word,
)

# Longest prefix that the richness checkers read, the eertree verdict and
# the complete-return sweep alike.  Both take milliseconds on it (the sweep
# about 8 ms on 4,096 letters of aabaabab on a 2-vCPU x86 host), so the cap
# is no longer a cost bound; it stays because the reports print the sample
# length and judge richness on it, so a new cap would change them.
RICHNESS_SAMPLE_CAP = 1 << 12

FIBONACCI = Morphism.parse("a->ab,b->a")
THUE_MORSE = Morphism.parse("a->ab,b->ba")
CASSAIGNE_AAB = Morphism.parse("a->aab,b->b")
QUADRATIC_ABAB = Morphism.parse("a->abab,b->b")


@dataclass(frozen=True)
class WordFamily:
    """A named infinite word over ``alphabet`` with known properties.

    ``exact_sets(depth)`` gives the exact factor set F_depth of the
    infinite word, from which :meth:`index` builds every factor index of
    the family.  ``produce(length)`` gives a prefix; only :meth:`sample`,
    the prefix that the richness checkers read, calls it.

    The one dataclass under ``src/palrich/``; the other records are
    ``NamedTuple`` classes.  ``perfbench/tracing.py`` rebuilds a family with
    ``dataclasses.replace``, so it stays one, and a generator job imports
    ``dataclasses``, until the benchmark change of ROADMAP item 3.
    """

    name: str
    alphabet: Alphabet
    produce: Callable[[int], Word]
    exact_sets: Callable[[int], set[bytes]]
    rich_expected: bool | None = None
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.name}({inner})"
        return self.name

    def sample(self, prefix_cap: int | None = None) -> Word:
        """The prefix that both richness checkers read.

        Its length is ``prefix_cap``, but at most (and by default)
        ``RICHNESS_SAMPLE_CAP`` (4,096 letters), so a defect that starts
        later goes unseen.
        """
        if prefix_cap is None:
            prefix_cap = RICHNESS_SAMPLE_CAP
        return self.produce(min(prefix_cap, RICHNESS_SAMPLE_CAP))

    def index(self, n_max: int) -> FactorIndex:
        """Index of the infinite word for every order 0..n_max.

        It holds the exact factor set F_{n_max+1}, the edges of the order-
        n_max Rauzy graph, from the family's exact construction, and no
        prefix of the word.
        """
        return FactorIndex(self.alphabet, self.exact_sets(n_max + 1))


def _fixed_point_family(name: str, m: Morphism, seed: str, **kw) -> WordFamily:
    """The family of the fixed point of ``m`` from the letter ``seed``."""
    return WordFamily(
        name,
        m.alphabet,
        lambda length: fixed_point(m, seed, length),
        lambda depth: morphic_factor_sets(m, seed, depth),
        **kw,
    )


def _periodic_family(name: str, block: Word, **kw) -> WordFamily:
    """The family of ``block`` repeated forever."""
    return WordFamily(
        name,
        block.alphabet,
        lambda length: periodic_word(block, length),
        lambda depth: periodic_factor_sets(block, depth),
        **kw,
    )


def episturmian_morphism(directive: str) -> Morphism:
    """The composition mu_{d1} o ... o mu_{dk} for the directive d1...dk.

    mu_x maps x to x and every other letter y to xy.  The episturmian word
    with the periodic directive (d1...dk)^omega is the fixed point of this
    morphism from d1 (Justin and Pirillo, "Episturmian words and
    episturmian morphisms", TCS 2002); for abc it maps a -> abacaba,
    b -> abacab, c -> abac.  The alphabet is the directive's letters.
    """
    alphabet = Alphabet(sorted(set(directive)))
    images = {x: x for x in alphabet.letters}
    for d in reversed(directive):
        images = {
            x: "".join(y if y == d else d + y for y in img)
            for x, img in images.items()
        }
    return Morphism(alphabet, images)


def _episturmian_family(name: str, directive: str, **kw) -> WordFamily:
    """The episturmian word along (directive)*.

    A directive with one distinct letter x gives the periodic word x^omega;
    any other gives the fixed point of a prolongable composed morphism (see
    :func:`episturmian_morphism`).
    """
    if len(set(directive)) == 1:
        return _periodic_family(name, Word.parse(directive[0]), rich_expected=True, **kw)
    return _fixed_point_family(
        name, episturmian_morphism(directive), directive[0], rich_expected=True, **kw
    )


def family_block(k: int) -> Word:
    """Block of the rich periodic family: k+1 copies of aab, then aabab.

    k = 0 gives aabaabab.  This grouping keeps both the periodic repetition
    and its substitution image of the Fibonacci word rich for every k; with
    a plain b-run in the middle the image stops being rich at k = 2 (the
    factor bb then has a non-palindromic complete return).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return Word.parse("aab" * (k + 1) + "aabab", BINARY)


def psi_morphism(k: int) -> Morphism:
    """The substitution a -> (aab)^{k+1} aabab, b -> bab."""
    return Morphism.parse(f"a->{family_block(k).text},b->bab")


def fibonacci() -> WordFamily:
    """The fixed point of a->ab, b->a (the Fibonacci word)."""
    return _fixed_point_family("fibonacci", FIBONACCI, "a", rich_expected=True)


def tribonacci() -> WordFamily:
    """Iterated palindromic closure along (abc)*."""
    return _episturmian_family("tribonacci", "abc")


def thue_morse() -> WordFamily:
    """The fixed point of a->ab, b->ba."""
    return _fixed_point_family("thue-morse", THUE_MORSE, "a", rich_expected=False)


def cassaigne_aab() -> WordFamily:
    """The fixed point of a->aab, b->b (complexity ~ n^2/2)."""
    return _fixed_point_family("cassaigne-aab", CASSAIGNE_AAB, "a", rich_expected=True)


def quadratic_abab() -> WordFamily:
    """The fixed point of a->abab, b->b (quadratic complexity)."""
    return _fixed_point_family("quadratic-abab", QUADRATIC_ABAB, "a", rich_expected=True)


def psi_of_fibonacci(k: int = 0) -> WordFamily:
    """The image of the Fibonacci word under a->(aab)^{k+1} aabab, b->bab."""
    psi = psi_morphism(k)

    def produce(length: int) -> Word:
        # Both images have at least 3 letters, so length // 3 + 1 letters of
        # the Fibonacci word map to at least length + 1 letters.
        base = fixed_point(FIBONACCI, "a", length // 3 + 1)
        return morphic_image(psi, base)[:length]

    def exact_sets(depth: int) -> set[bytes]:
        base = morphic_factor_sets(FIBONACCI, "a", depth)
        return image_factor_sets(psi, base, depth)

    return WordFamily(
        "psi-of-fibonacci",
        psi.alphabet,
        produce,
        exact_sets,
        rich_expected=True,
        params={"k": k},
    )


def periodic(block: str = "aabaabab") -> WordFamily:
    """The block repeated forever."""
    return _periodic_family("periodic", Word.parse(block), params={"block": block})


def s_word_family() -> WordFamily:
    """bc a^2 bc a^3 ... (recurrent, not closed under reversal)."""
    return WordFamily("s-word", TERNARY, s_word, s_word_factor_sets, rich_expected=False)


def episturmian(directive: str = "ab") -> WordFamily:
    """Iterated palindromic closure along the directive, repeated."""
    return _episturmian_family("episturmian", directive, params={"directive": directive})


def morphic(morphism: str = "a->ab,b->a", seed: str = "a") -> WordFamily:
    """The fixed point of an inline morphism from a seed letter."""
    return _fixed_point_family(
        "morphic", Morphism.parse(morphism), seed, params={"morphism": morphism, "seed": seed}
    )


REGISTRY: dict[str, Callable[..., WordFamily]] = {
    "fibonacci": fibonacci,
    "tribonacci": tribonacci,
    "thue-morse": thue_morse,
    "cassaigne-aab": cassaigne_aab,
    "quadratic-abab": quadratic_abab,
    "psi-of-fibonacci": psi_of_fibonacci,
    "periodic": periodic,
    "s-word": s_word_family,
    "episturmian": episturmian,
    "morphic": morphic,
}


def get_family(name: str, **params) -> WordFamily:
    """The family ``name`` with ``params``, each of which it must take."""
    try:
        factory = REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise PalrichError(f"unknown generator {name!r}; known: {known}") from None
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))
    if unknown:
        raise PalrichError(f"generator {name!r} takes no parameter {', '.join(unknown)}")
    return factory(**params)
