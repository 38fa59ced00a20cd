"""Exception types shared across the package."""


class PalrichError(Exception):
    """Base class for every error raised by this library."""


class WordTooShort(PalrichError):
    """The word is too short for the requested index depth."""


class OutOfRange(PalrichError):
    """A length or position argument falls outside the indexed range."""


class FactorAbsent(PalrichError):
    """The given word does not occur as a factor of the source."""


class SingleOccurrence(PalrichError):
    """A factor occurs only once, so it has no complete returns."""


class PalindromicInput(PalrichError):
    """The operation is defined only for non-palindromic inputs."""


class NotAWalk(PalrichError):
    """The vertex sequence is not a walk in the graph."""


class NotAPalindrome(PalrichError):
    """The operation requires a palindromic word."""


class NotApplicable(PalrichError):
    """A precondition of the check fails, so its verdict is undefined."""


class NotProlongable(PalrichError):
    """The morphism image of the seed does not extend the seed."""


class ErasingMorphism(PalrichError):
    """Morphisms with empty letter images are rejected at construction."""


class EmptyBlock(PalrichError):
    """Periodic words need a non-empty repeating block."""


class DirectiveExhausted(PalrichError):
    """The directive sequence ran out before enough letters were produced."""


class WindowTooShort(PalrichError):
    """The computed range is too short for the requested detection."""


class StabilizationFailed(PalrichError):
    """Factor sets kept changing up to the configured budget."""


class TooLarge(PalrichError):
    """The request exceeds the enumeration budget."""


class UnsupportedAlphabet(PalrichError):
    """The alphabet size is outside the supported range."""
