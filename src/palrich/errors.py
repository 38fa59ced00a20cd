"""Exception types shared across the package."""


class PalrichError(Exception):
    """Base class for every error raised by this library."""


class WordTooShort(PalrichError):
    """The word is too short for the requested index depth."""


class OutOfRange(PalrichError):
    """A length or position argument falls outside the indexed range."""


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


class StabilizationFailed(PalrichError):
    """Factor sets kept changing up to the configured budget."""


class TooLarge(PalrichError):
    """The request exceeds the enumeration budget."""


class UnsupportedAlphabet(PalrichError):
    """The alphabet size is outside the supported range."""
