"""Named word generators: every family used in the analysis experiments.

Each registry entry packages a prefix producer with its expected richness,
when known, and an exact factor-set construction that sidesteps prefix
scanning entirely.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

from .errors import PalrichError
from .factors import (
    RICHNESS_SAMPLE_CAP,
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
    Word,
    fixed_point,
    periodic_word,
    s_word,
)

FIBONACCI = Morphism.parse("a->ab,b->a")
THUE_MORSE = Morphism.parse("a->ab,b->ba")
CASSAIGNE_AAB = Morphism.parse("a->aab,b->b")
QUADRATIC_ABAB = Morphism.parse("a->abab,b->b")


@dataclass(frozen=True)
class WordFamily:
    """A named infinite word with a prefix producer and known properties.

    ``exact_sets(depth)`` gives the exact factor set F_depth of the
    infinite word; :class:`FactorIndex` derives every shorter one.
    """

    name: str
    produce: Callable[[int], Word]
    exact_sets: Callable[[int], set[bytes]]
    rich_expected: bool | None = None
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.name}({inner})"
        return self.name

    def sample(self, prefix_cap: int = RICHNESS_SAMPLE_CAP) -> Word:
        """The prefix that the richness checkers read.

        Its length is ``prefix_cap``, but at most ``RICHNESS_SAMPLE_CAP``.
        """
        return self.produce(min(prefix_cap, RICHNESS_SAMPLE_CAP))

    def index(self, n_max: int, prefix_cap: int = RICHNESS_SAMPLE_CAP) -> FactorIndex:
        """Index of the infinite word for every order 0..n_max.

        It holds the exact factor set F_{n_max+1}, the edges of the order-
        n_max Rauzy graph, from the family's exact construction.  The
        index's source word, which only serves as the richness sample and
        orders witnesses, is ``sample(prefix_cap)``.
        """
        return FactorIndex(self.sample(prefix_cap), n_max, self.exact_sets(n_max + 1))


def _exact_from_morphism(m: Morphism, seed: str):
    def build(depth: int):
        return morphic_factor_sets(m, seed, depth)

    return build


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


def _episturmian_parts(directive: str):
    """Producer and exact sets of the episturmian word along (directive)*.

    A directive with one distinct letter x gives the periodic word x^omega;
    any other gives a prolongable composed morphism (see
    :func:`episturmian_morphism`).
    """
    if len(set(directive)) == 1:
        block = Word.parse(directive[0])
        return (
            lambda length: periodic_word(block, length),
            lambda depth: periodic_factor_sets(block, depth),
        )
    m = episturmian_morphism(directive)
    return _fixed_point_producer(m, directive[0]), _exact_from_morphism(m, directive[0])


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


def _psi_of_fibonacci_producer(k: int) -> Callable[[int], Word]:
    psi = psi_morphism(k)

    def produce(length: int) -> Word:
        # Both images have at least 3 letters, so length // 3 + 1 letters of
        # the Fibonacci word map to at least length + 1 letters.
        base = fixed_point(FIBONACCI, "a", length // 3 + 1)
        return psi(base)[:length]

    return produce


def _psi_of_fibonacci_sets(k: int):
    psi = psi_morphism(k)

    def build(depth: int):
        base = morphic_factor_sets(FIBONACCI, "a", depth)
        return image_factor_sets(psi, base, depth)

    return build


def _fixed_point_producer(m: Morphism, seed: str) -> Callable[[int], Word]:
    def produce(length: int) -> Word:
        return fixed_point(m, seed, length)

    return produce


def fibonacci() -> WordFamily:
    """The fixed point of a->ab, b->a (the Fibonacci word)."""
    return WordFamily(
        "fibonacci",
        _fixed_point_producer(FIBONACCI, "a"),
        _exact_from_morphism(FIBONACCI, "a"),
        rich_expected=True,
    )


def tribonacci() -> WordFamily:
    """Iterated palindromic closure along (abc)*."""
    return WordFamily("tribonacci", *_episturmian_parts("abc"), rich_expected=True)


def thue_morse() -> WordFamily:
    """The fixed point of a->ab, b->ba."""
    return WordFamily(
        "thue-morse",
        _fixed_point_producer(THUE_MORSE, "a"),
        _exact_from_morphism(THUE_MORSE, "a"),
        rich_expected=False,
    )


def cassaigne_aab() -> WordFamily:
    """The fixed point of a->aab, b->b (complexity ~ n^2/2)."""
    return WordFamily(
        "cassaigne-aab",
        _fixed_point_producer(CASSAIGNE_AAB, "a"),
        _exact_from_morphism(CASSAIGNE_AAB, "a"),
        rich_expected=True,
    )


def quadratic_abab() -> WordFamily:
    """The fixed point of a->abab, b->b (quadratic complexity)."""
    return WordFamily(
        "quadratic-abab",
        _fixed_point_producer(QUADRATIC_ABAB, "a"),
        _exact_from_morphism(QUADRATIC_ABAB, "a"),
        rich_expected=True,
    )


def psi_of_fibonacci(k: int = 0) -> WordFamily:
    """The image of the Fibonacci word under a->(aab)^{k+1} aabab, b->bab."""
    return WordFamily(
        "psi-of-fibonacci",
        _psi_of_fibonacci_producer(k),
        _psi_of_fibonacci_sets(k),
        rich_expected=True,
        params={"k": k},
    )


def periodic(block: str = "aabaabab") -> WordFamily:
    """The block repeated forever."""
    word = Word.parse(block)
    return WordFamily(
        "periodic",
        lambda length: periodic_word(word, length),
        lambda depth: periodic_factor_sets(word, depth),
        params={"block": block},
    )


def s_word_family() -> WordFamily:
    """bc a^2 bc a^3 ... (recurrent, not closed under reversal)."""
    return WordFamily("s-word", s_word, s_word_factor_sets, rich_expected=False)


def episturmian(directive: str = "ab") -> WordFamily:
    """Iterated palindromic closure along the directive, repeated."""
    return WordFamily(
        "episturmian",
        *_episturmian_parts(directive),
        rich_expected=True,
        params={"directive": directive},
    )


def morphic(morphism: str = "a->ab,b->a", seed: str = "a") -> WordFamily:
    """The fixed point of an inline morphism from a seed letter."""
    m = Morphism.parse(morphism)
    return WordFamily(
        "morphic",
        _fixed_point_producer(m, seed),
        _exact_from_morphism(m, seed),
        params={"morphism": morphism, "seed": seed},
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
