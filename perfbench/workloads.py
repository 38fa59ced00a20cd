"""The benchmark's workloads: job lists, seeded inputs and output checks.

A job is one ``palrich`` command line.  Its check reads the command's
standard output and tests it against an invariant that the paper or the
literature proves (or against a brute-force count made here), never against
a stored digest: a later fix that changes a number the theory does not pin,
such as the s-word complexities of an honest stabilization, still passes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = ROOT / "src" / "palrich" / "report_schema.json"
GOLDEN_RICH_BINARY = ROOT / "tests" / "golden" / "rich_binary_counts.csv"


class CheckFailed(Exception):
    """A job's output breaks an invariant it must satisfy."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]
    inputs: dict


# -- shared parsing and brute force -------------------------------------------


@functools.cache
def _schema_validator():
    import jsonschema

    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    return jsonschema.Draft7Validator(schema)


def _report(out: bytes, kind: str) -> dict:
    """Parse a JSON report and validate it against the package's schema."""
    payload = json.loads(out)
    errors = sorted(_schema_validator().iter_errors(payload), key=str)
    expect(not errors, f"schema violation: {errors[0].message if errors else ''}")
    expect(payload.get("report") == kind, f"expected a {kind} report")
    return payload


def _csv_rows(out: bytes) -> dict[int, tuple[int, str]]:
    rows = list(csv.reader(io.StringIO(out.decode())))
    expect(rows and rows[0] == ["n", "count", "provenance"], "bad CSV header")
    return {int(n): (int(count), prov) for n, count, prov in rows[1:]}


def distinct_factors(text: str, n: int) -> set[str]:
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def palindrome_count(text: str) -> int:
    """Distinct palindromic factors of text, the empty word included."""
    pals = {""}
    for center in range(2 * len(text) - 1):
        left = center // 2
        right = left + center % 2
        while left >= 0 and right < len(text) and text[left] == text[right]:
            pals.add(text[left : right + 1])
            left -= 1
            right += 1
    return len(pals)


def is_rich(text: str) -> bool:
    return palindrome_count(text) == len(text) + 1


def totient(i: int) -> int:
    return sum(1 for k in range(1, i + 1) if math.gcd(k, i) == 1)


def cassaigne_difference(n: int) -> int:
    """C(n+1) - C(n) for the fixed point of a->aab, b->b (Cassaigne)."""
    return n + 1 - sum(1 for k in range(1, n + 2) if 2**k + k - 2 < n)


# -- seeded literal palindromes -----------------------------------------------


def _palindromic_closure(w: str) -> str:
    for l in range(len(w), 0, -1):
        if w[len(w) - l :] == w[len(w) - l :][::-1]:
            return w + w[: len(w) - l][::-1]
    return w


def rich_palindrome(rng: random.Random, length: int) -> str:
    """A palindromic factor of an episturmian word with a seeded directive.

    The iterated palindromic closure u_{k+1} = (u_k d_k)^(+) gives the
    palindromic prefixes of the episturmian word along the directive; every
    factor of that word is rich, so any palindromic factor of the requested
    (odd) length is a rich palindrome.
    """
    directive = [rng.choice("abc") for _ in range(64)]
    u = ""
    step = 0
    while len(u) < 4 * length:
        u = _palindromic_closure(u + directive[step % len(directive)])
        step += 1
    for start in range(len(u) - length + 1):
        factor = u[start : start + length]
        if factor == factor[::-1]:
            return factor
    raise RuntimeError(f"no palindromic factor of length {length}")


def mirrored_palindrome(rng: random.Random, length: int) -> str:
    """A random half over {a,b,c} followed by its mirror image."""
    half = "".join(rng.choice("abc") for _ in range(length // 2))
    middle = rng.choice("abc") if length % 2 else ""
    return half + middle + half[::-1]


# -- triangle ------------------------------------------------------------------

# The TRIANGLE_CASES corpus of tests/test_acceptance.py, as CLI flags, with
# each family's known richness.  Of its three periodic blocks and its three
# psi-of-fibonacci powers only the first runs: the others take the same path
# (richness on a 65,536-letter sample) and would take a pass past the point
# where two fit in a run.
TRIANGLE_CASES = (
    ("fibonacci", (), True),
    ("tribonacci", (), True),
    ("periodic", ("--block", "aabaabab"), True),
    ("psi-of-fibonacci", ("--k", "0"), True),
    ("cassaigne-aab", (), True),
    ("quadratic-abab", (), True),
    ("morphic", ("--morphism", "a->aba,b->bb"), True),
    ("thue-morse", (), False),
    ("s-word", ("--prefix-cap", "262144"), False),
)


def _check_triangle(rich: bool):
    def check(out: bytes) -> None:
        report = _report(out, "verify-theorem1")
        verdicts = report["verdicts"]
        expect(verdicts["triangle_consistent"] is True, "triangle open")
        expect(report["discrepancies"] == [], f"{report['discrepancies']}")
        expect(verdicts["rich"] is rich, f"rich={verdicts['rich']}, known {rich}")

    return check


def triangle(seed: int) -> Workload:
    jobs = []
    for name, flags, rich in TRIANGLE_CASES:
        argv = ("verify", "--format", "json", "--n-max", "20", "--generator", name)
        jobs.append(Job(f"verify {name} {' '.join(flags)}".strip(), argv + flags,
                        _check_triangle(rich)))
    return Workload(
        "triangle",
        "the theorem-1 verdict triangle over the acceptance corpus; eertree and "
        "return oracle dominate",
        tuple(jobs),
        {},
    )


# -- deep-orders -----------------------------------------------------------------


def _check_slack_free(report: dict, key: str) -> list[dict]:
    rows = report[key]
    expect(len(rows) > 1, "no orders reported")
    bad = [r["n"] for r in rows if r["slack"] != 0]
    expect(not bad, f"nonzero slack at orders {bad[:5]}")
    return rows


def _check_deep_verify(cassaigne: bool):
    def check(out: bytes) -> None:
        report = _report(out, "verify-theorem1")
        expect(report["verdicts"]["triangle_consistent"] is True, "triangle open")
        expect(report["discrepancies"] == [], f"{report['discrepancies']}")
        rows = _check_slack_free(report, "orders")
        if cassaigne:
            C = [r["C"] for r in rows]
            for n in range(1, len(C) - 1):
                expect(C[n + 1] - C[n] == cassaigne_difference(n),
                       f"Cassaigne's formula fails at n={n}")

    return check


def _check_super_tree(out: bytes) -> None:
    lines = out.decode().splitlines()
    expect(lines[0].startswith("graph super_reduced_rauzy_"), "not a super DOT")
    edges = sum(1 for l in lines if " -- " in l)
    vertices = sum(1 for l in lines if l.startswith('  "[') and " -- " not in l)
    expect(vertices >= 1, "no reversal classes")
    expect(edges == vertices - 1, f"{vertices} classes but {edges} edges: not a tree")


def _check_fibonacci_profile(out: bytes) -> None:
    report = _report(out, "analyze")
    for r in _check_slack_free(report, "rows"):
        expect(r["C"] == r["n"] + 1, f"C({r['n']}) = {r['C']}, Sturmian needs n+1")
        expect(r["P"] == (1 if r["n"] % 2 == 0 else 2), f"P({r['n']}) = {r['P']}")


def deep_orders(seed: int) -> Workload:
    jobs = (
        Job("verify cassaigne-aab 120",
            ("verify", "--format", "json", "--n-max", "120", "--generator", "cassaigne-aab"),
            _check_deep_verify(True)),
        Job("verify quadratic-abab 120",
            ("verify", "--format", "json", "--n-max", "120", "--generator", "quadratic-abab"),
            _check_deep_verify(False)),
        Job("graph cassaigne-aab 140 super",
            ("graph", "--n", "140", "--tier", "super", "--generator", "cassaigne-aab"),
            _check_super_tree),
        Job("analyze fibonacci 300",
            ("analyze", "--format", "json", "--n-max", "300", "--generator", "fibonacci"),
            _check_fibonacci_profile),
    )
    return Workload(
        "deep-orders",
        "exact factor sets at high order; morphic closure and per-order Rauzy "
        "build/reduce dominate",
        jobs,
        {},
    )


# -- prefix-scan -----------------------------------------------------------------

LITERAL_LENGTHS = (301, 551, 801)
LITERAL_ANALYZE_ORDERS = 100


def _check_theorem2(word: str):
    def check(out: bytes) -> None:
        report = _report(out, "verify-theorem2")
        expect(report["word"] == word, "report names another word")
        expect(report["agree"] is True, "the three finite-palindrome properties disagree")
        expect(report["properties"]["count"] is is_rich(word),
               "palindrome count disagrees with brute force")
        expect(len(report["identity_rows"]) == len(word) + 1, "identity rows missing")

    return check


def _check_literal_profile(word: str):
    def check(out: bytes) -> None:
        report = _report(out, "analyze")
        expect(report["richness"]["rich"] is is_rich(word), "richness disagrees with brute force")
        rows = report["rows"]
        expect(len(rows) == LITERAL_ANALYZE_ORDERS + 1, f"{len(rows)} rows")
        for r in rows:
            factors = distinct_factors(word, r["n"])
            expect(r["C"] == len(factors), f"C({r['n']}) disagrees with brute force")
            pals = sum(1 for u in factors if u == u[::-1])
            expect(r["P"] == pals, f"P({r['n']}) disagrees with brute force")

    return check


def _check_not_closed(out: bytes) -> None:
    report = _report(out, "analyze")
    expect(report["reversal_closed"] is False, "the s-word is not closed under reversal")


def _check_tribonacci(out: bytes) -> None:
    report = _report(out, "analyze")
    rows = report["rows"]
    expect(len(rows) > 1, "no rows")
    for r in rows:
        expect(r["C"] == 2 * r["n"] + 1, f"C({r['n']}) = {r['C']}, Arnoux-Rauzy needs 2n+1")


def prefix_scan(seed: int) -> Workload:
    rng = random.Random(seed)
    words = []
    for length in LITERAL_LENGTHS:
        words.append(rich_palindrome(rng, length))
        words.append(mirrored_palindrome(rng, length))
    jobs = []
    for word in words:
        label = f"{len(word)} letters, {'rich' if is_rich(word) else 'not rich'}"
        jobs.append(Job(f"verify --word ({label})",
                        ("verify", "--format", "json", "--word", word),
                        _check_theorem2(word)))
        jobs.append(Job(f"analyze --word ({label})",
                        ("analyze", "--format", "json", "--n-max",
                         str(LITERAL_ANALYZE_ORDERS), "--word", word),
                        _check_literal_profile(word)))
    jobs.append(Job("analyze s-word 30",
                    ("analyze", "--format", "json", "--n-max", "30", "--generator", "s-word",
                     "--prefix-cap", "262144"),
                    _check_not_closed))
    jobs.append(Job("analyze tribonacci 400",
                    ("analyze", "--format", "json", "--n-max", "400", "--generator", "tribonacci"),
                    _check_tribonacci))
    return Workload(
        "prefix-scan",
        "factor sets scanned from concrete words; the window scan and its "
        "doubling stabilization dominate",
        tuple(jobs),
        {"literal_lengths": [len(w) for w in words],
         "literal_rich": [is_rich(w) for w in words]},
    )


# -- count -----------------------------------------------------------------------

RICH_BINARY_N = 20
RICH_TERNARY_N = 11
TERNARY_BRUTE_FORCE_MAX = 8


def _rich_count_brute_force(alphabet: str, n: int) -> int:
    return sum(1 for letters in product(alphabet, repeat=n) if is_rich("".join(letters)))


def _check_rich_binary(out: bytes) -> None:
    rows = _csv_rows(out)
    golden = _csv_rows(GOLDEN_RICH_BINARY.read_bytes())
    expect(sorted(rows) == list(range(RICH_BINARY_N + 1)), "rows missing")
    for n, row in golden.items():
        expect(rows[n] == row, f"row {n} differs from the golden table")


def _check_rich_ternary(out: bytes) -> None:
    rows = _csv_rows(out)
    expect(sorted(rows) == list(range(RICH_TERNARY_N + 1)), "rows missing")
    for n in range(TERNARY_BRUTE_FORCE_MAX + 1):
        expect(rows[n][0] == _rich_count_brute_force("abc", n),
               f"ternary rich count at n={n} disagrees with brute force")


def _check_formula(formula: Callable[[int], int], n_max: int):
    def check(out: bytes) -> None:
        rows = _csv_rows(out)
        expect(sorted(rows) == list(range(n_max + 1)), f"rows 0..{n_max} expected")
        for n, (count, _) in rows.items():
            expect(count == formula(n), f"row {n}: {count} != {formula(n)}")

    return check


def sturmian_count(n: int) -> int:
    return 1 + sum((n + 1 - i) * totient(i) for i in range(1, n + 1))


def sturmian_palindrome_count(n: int) -> int:
    return 1 + sum(totient(n - 2 * i) for i in range((n + 1) // 2))


def count(seed: int) -> Workload:
    jobs = (
        Job(f"count rich 2/{RICH_BINARY_N}",
            ("count", "--kind", "rich", "--alphabet", "2", "--n-max", str(RICH_BINARY_N)),
            _check_rich_binary),
        Job(f"count rich 3/{RICH_TERNARY_N}",
            ("count", "--kind", "rich", "--alphabet", "3", "--n-max", str(RICH_TERNARY_N)),
            _check_rich_ternary),
        Job("count sturmian 14", ("count", "--kind", "sturmian", "--n-max", "14"),
            _check_formula(sturmian_count, 14)),
        Job("count sturmian-palindrome 14",
            ("count", "--kind", "sturmian-palindrome", "--n-max", "14"),
            _check_formula(sturmian_palindrome_count, 14)),
    )
    return Workload(
        "count",
        "rich-word enumeration through eertree push/pop with undo, plus the "
        "runtime enumeration oracles",
        jobs,
        {},
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "triangle": triangle,
    "deep-orders": deep_orders,
    "prefix-scan": prefix_scan,
    "count": count,
}
