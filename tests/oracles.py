"""Brute-force reference implementations used to validate the library.

Everything here trades speed for obviousness: plain window enumeration,
plain substring scans, constraint-filling for palindromic closure.  None of
it calls the code paths it is checking.
"""

from itertools import product


def window_factors(text: str, n: int) -> set[str]:
    if n == 0:
        return {""}
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def palindromic_substrings(text: str) -> set[str]:
    out = {""}
    for i in range(len(text)):
        for j in range(i + 1, len(text) + 1):
            sub = text[i:j]
            if sub == sub[::-1]:
                out.add(sub)
    return out


def distinct_palindromes_including_empty(text: str) -> int:
    return len(palindromic_substrings(text))


def is_rich_naive(text: str) -> bool:
    return distinct_palindromes_including_empty(text) == len(text) + 1


def occurrences(text: str, sub: str) -> list[int]:
    out = []
    start = text.find(sub)
    while start >= 0:
        out.append(start)
        start = text.find(sub, start + 1)
    return out


def complete_returns_naive(text: str, sub: str) -> list[str]:
    occ = occurrences(text, sub)
    return [text[a : b + len(sub)] for a, b in zip(occ, occ[1:])]


def all_returns_to_palindromes_palindromic(text: str) -> bool:
    for p in palindromic_substrings(text):
        if not p:
            continue
        for r in complete_returns_naive(text, p):
            if r != r[::-1]:
                return False
    return True


def returns_report_naive(text: str):
    """(rich, witness, first violating prefix, defect) of the return check.

    The witness is the least palindrome in string order that has a
    non-palindromic complete return, with its first such return; string
    order is the library's order when the alphabet lists its letters
    alphabetically.  The first violating prefix is the shortest prefix whose
    palindromic suffixes all occur earlier.
    """
    witness = None
    for p in sorted(palindromic_substrings(text) - {""}):
        bad = [r for r in complete_returns_naive(text, p) if r != r[::-1]]
        if bad:
            witness = (p, bad[0])
            break
    seen = set()
    first = None
    for i in range(1, len(text) + 1):
        suffixes = {text[j:i] for j in range(i) if text[j:i] == text[j:i][::-1]}
        if suffixes <= seen and first is None:
            first = i
        seen |= suffixes
    defect = len(text) + 1 - distinct_palindromes_including_empty(text)
    return witness is None, witness, first, defect


def shortest_palindrome_with_prefix(text: str) -> str:
    """Constraint-filling oracle for palindromic closure.

    A palindrome of length L with a given prefix is fully determined by the
    mirror constraints; the shortest consistent L in [len, 2*len] wins.
    """
    m = len(text)
    for length in range(m, 2 * m + 1):
        letters: list[str | None] = [None] * length
        ok = True
        for i, ch in enumerate(text):
            for pos in (i, length - 1 - i):
                if letters[pos] is None:
                    letters[pos] = ch
                elif letters[pos] != ch:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        filled = "".join(ch if ch is not None else "?" for ch in letters)
        if "?" not in filled and filled == filled[::-1] and filled.startswith(text):
            return filled
    raise AssertionError("no palindrome of length <= 2|w| found")


def is_balanced_naive(text: str) -> bool:
    for l in range(1, len(text) + 1):
        counts = {text[i : i + l].count("a") for i in range(len(text) - l + 1)}
        if counts and max(counts) - min(counts) > 1:
            return False
    return True


def totient_gcd_sweep(n: int) -> int:
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def all_words(alphabet: str, max_len: int):
    for length in range(max_len + 1):
        for letters in product(alphabet, repeat=length):
            yield "".join(letters)


def closure_naive(idx, n: int):
    """Reversal closure checked at every length 1..n of an index's sets.

    Returns (closed, witness bytes): the witness is taken at the longest
    failing length, the first factor there in first-occurrence order of the
    index's source (sorted order for factors the source lacks) whose
    reversal is absent.
    """
    failing = [
        m
        for m in range(1, n + 1)
        if any(u[::-1] not in idx.factor_set(m) for u in idx.factor_set(m))
    ]
    if not failing:
        return True, None
    m = max(failing)
    fset = idx.factor_set(m)
    data = idx.source.data
    firsts = dict.fromkeys(data[i : i + m] for i in range(len(data) - m + 1))
    for u in [*firsts, *sorted(fset)]:
        if u in fset and u[::-1] not in fset:
            return False, u
    raise AssertionError("failing length without failing factor")
