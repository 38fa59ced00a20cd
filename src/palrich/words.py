"""Finite words over small indexed alphabets, plus the word generators.

Letters live as dense small-integer indices packed into ``bytes``; printable
names exist only on the :class:`Alphabet` boundary.  Everything here is a pure
function of its arguments: morphism fixed points, periodic words and the
bc a^2 bc a^3 ... word.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptyBlock, ErasingMorphism, NotProlongable

_LOWER = set("abcdefghijklmnopqrstuvwxyz")


class Alphabet:
    """An ordered set of 1..26 distinct letters, each mapped to its index."""

    __slots__ = ("letters", "_index", "_ascii")

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not 1 <= len(letters) <= 26:
            raise ValueError("alphabet size must be between 1 and 26")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        for ch in letters:
            if len(ch) != 1 or ch not in _LOWER:
                raise ValueError(f"letters must be single characters a-z, got {ch!r}")
        self.letters = letters
        self._index = {ch: i for i, ch in enumerate(letters)}
        self._ascii = "".join(letters).encode("ascii").ljust(256, b"\xff")

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} not in alphabet {self.letters}") from None

    def encode(self, text: str) -> bytes:
        return bytes(self.index(ch) for ch in text)

    def decode(self, data: bytes) -> str:
        """The letters of ``data``, through one 256-byte translate table.

        Index i maps to the ASCII code of letter i and every other byte to
        0xFF, which is not ASCII, so ``decode("ascii")`` raises on a byte
        outside the alphabet instead of passing it through.
        """
        try:
            return data.translate(self._ascii).decode("ascii")
        except UnicodeDecodeError:
            raise ValueError("letter index out of range for alphabet") from None

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({''.join(self.letters)!r})"


BINARY = Alphabet("ab")
TERNARY = Alphabet("abc")


class Word:
    """An immutable finite word: an alphabet plus a byte string of indices."""

    __slots__ = ("alphabet", "data")

    def __init__(self, alphabet: Alphabet, data: bytes = b""):
        data = bytes(data)
        if data and max(data) >= alphabet.size:
            raise ValueError("letter index out of range for alphabet")
        self.alphabet = alphabet
        self.data = data

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet | None = None) -> "Word":
        """Parse an ASCII literal, inferring the alphabet when not supplied."""
        if alphabet is None:
            if not text:
                raise ValueError("cannot infer an alphabet from the empty literal")
            alphabet = Alphabet(sorted(set(text)))
        return cls(alphabet, alphabet.encode(text))

    @property
    def text(self) -> str:
        return self.alphabet.decode(self.data)

    def __len__(self):
        return len(self.data)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.alphabet, self.data[item])
        return self.data[item]

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.data == other.data
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        return hash((self.alphabet, self.data))

    def __repr__(self):
        return f"Word({self.text!r})"

    def reversed(self) -> "Word":
        return Word(self.alphabet, self.data[::-1])

    def is_palindrome(self) -> bool:
        return self.data == self.data[::-1]


class Morphism:
    """A non-erasing substitution: one non-empty image word per letter.

    ``__init__`` builds, once, the translate table and the (marker, image)
    pairs that ``apply_bytes`` runs on.
    """

    __slots__ = ("alphabet", "images", "_table", "_long")

    def __init__(self, alphabet: Alphabet, images: dict[str, str]):
        missing = [ch for ch in alphabet.letters if ch not in images]
        if missing:
            raise ValueError(f"missing images for letters {missing}")
        encoded, long = [], []
        table = bytearray(b"\xff" * 256)
        for c, ch in enumerate(alphabet.letters):
            img = alphabet.encode(images[ch])
            if not img:
                raise ErasingMorphism(f"image of {ch!r} is empty")
            encoded.append(img)
            if len(img) == 1:
                table[c] = img[0]
            else:
                table[c] = 128 + c
                long.append((bytes([128 + c]), img))
        self.alphabet = alphabet
        self.images = tuple(encoded)
        self._table = bytes(table)
        self._long = tuple(long)

    @classmethod
    def parse(cls, spec: str) -> "Morphism":
        """Parse ``"a->ab,b->a"``; the alphabet is every letter named, sorted."""
        rules: dict[str, str] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            lhs, sep, rhs = part.partition("->")
            lhs, rhs = lhs.strip(), rhs.strip()
            if not sep or len(lhs) != 1 or not rhs:
                raise ValueError(f"bad morphism rule {part!r}")
            if lhs in rules:
                raise ValueError(f"duplicate rule for {lhs!r}")
            rules[lhs] = rhs
        if not rules:
            raise ValueError("empty morphism specification")
        seen = set(rules)
        for rhs in rules.values():
            seen.update(rhs)
        alphabet = Alphabet(sorted(seen))
        for ch in alphabet.letters:
            rules.setdefault(ch, ch)
        return cls(alphabet, rules)

    def apply_bytes(self, data: bytes) -> bytes:
        """The concatenated images of the letters of ``data``, built in C.

        One ``bytes.translate`` maps each letter whose image is one letter
        straight to that letter, each letter c with a longer image to the
        marker byte 128 + c, and every byte outside the alphabet to 0xFF.
        Then one ``bytes.replace(marker, image)`` per longer image expands
        its markers.  Alphabets have at most 26 letters, so every image byte
        is below 26: no image holds a marker or 0xFF, and no replace sees
        another's output.  A one-letter image needs no replace, because the
        translate maps all bytes at once; so letter permutations such as
        a -> b, b -> a come out right.
        """
        out = data.translate(self._table)
        if 255 in out:
            raise ValueError("letter index out of range for alphabet")
        for marker, image in self._long:
            out = out.replace(marker, image)
        return out

    def __repr__(self):
        rules = ",".join(
            f"{ch}->{self.alphabet.decode(img)}"
            for ch, img in zip(self.alphabet.letters, self.images)
        )
        return f"Morphism({rules!r})"


def morphic_image(m: Morphism, w: Word) -> Word:
    """Apply the morphism letterwise and concatenate the images."""
    if w.alphabet != m.alphabet:
        raise ValueError("word alphabet does not match morphism alphabet")
    return Word(m.alphabet, m.apply_bytes(w.data))


def fixed_point(m: Morphism, seed: str, length: int) -> Word:
    """Length-``length`` prefix of the fixed point of ``m`` starting at ``seed``.

    Requires m(seed) to start with seed and have length at least 2, so the
    iterates are prefixes of one another.  Iteration happens on the current
    prefix only, truncated to ``length``; full iterates are never kept.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    s = m.alphabet.index(seed)
    img = m.images[s]
    if len(img) < 2 or img[0] != s:
        raise NotProlongable(
            f"image of seed {seed!r} must start with the seed and have length >= 2"
        )
    prefix = bytes([s])
    while len(prefix) < length:
        # The seed's image has >= 2 letters and no image is empty, so the
        # prefix grows on every pass.
        prefix = m.apply_bytes(prefix)[:length]
    return Word(m.alphabet, prefix[:length])


def periodic_word(block: Word, length: int) -> Word:
    """Prefix of length ``length`` of block repeated forever."""
    if len(block) == 0:
        raise EmptyBlock("the repeating block must be non-empty")
    reps = length // len(block) + 1
    return Word(block.alphabet, (block.data * reps)[:length])


def s_word(length: int) -> Word:
    """Prefix of the recurrent word bc a^2 bc a^3 bc a^2 bc a^4 ...

    Built from the recursion s_1 = bc, s_n = s_{n-1} a^n s_{n-1} by
    concatenation until s_n has at least ``length`` letters; s_{n-1} is a
    prefix of s_n, so the prefix of s_n is the prefix of the word.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    s = b"\x01\x02"  # bc
    n = 1
    while len(s) < length:
        n += 1
        s = s + b"\x00" * n + s
    return Word(TERNARY, s[:length])
