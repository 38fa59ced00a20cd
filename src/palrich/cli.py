"""Command-line surface: analyze, graph, verify, count.

Exit codes: 0 success, 1 usage error found after parsing (a bad value, an
oversized request, a parameter the source does not read, an ``--out`` path
that cannot be opened), 2 the parser rejected the command line (an unknown
option or one the subcommand does not take, a missing or malformed
argument), 3 internal consistency failure (a formula fails its oracle, or a
reversal-closed word's triangle is open).
The commands read the parser's namespace; ``_check`` makes every check of
its options that the parser cannot, before any command runs, and the
parser's ``choices`` leave no unknown command, tier or counting kind.
Every report goes through one writer: a command builds its JSON payload
once, and ``_report`` renders it and opens ``--out`` through ``_output``,
through which ``graph`` streams its DOT too.
A generator's C, P and graphs come from its exact factor sets, for the
orders 0..--n-max only, and ``rich`` reads only its first ``--prefix-cap``
letters (at most 4,096): a defect beyond the sample goes unseen, and can
open the verdict triangle.  A defect of the sample that no checked order
shows leaves it open too, but exits 0: that run is inconclusive.

A command executes only the modules it runs; the others stay deferred
(see ``_deferred``).  ``--help`` and a rejected command line run none but
``errors``; ``count`` adds ``counting`` alone; ``analyze`` and
``verify --word`` run ``analysis``, ``factors``, ``palindromes`` and
``words``; ``graph`` runs ``factors``, ``rauzy`` and ``words``.  A
generator source adds ``generators``, and ``verify`` of a generator adds
``rauzy`` too, so it runs every module but ``counting``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import sys

from .errors import PalrichError


def _deferred(name: str):
    """The submodule ``palrich.<name>``, executed on its first attribute access.

    The stdlib ``LazyLoader`` recipe: the module sits in ``sys.modules`` from
    the start, so code that looks it up there (``perfbench/tracing.py``
    does) finds it, but its body runs only when a command first reads one
    of its names.  A module that is already imported is returned as it is.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


analysis = _deferred("analysis")
counting = _deferred("counting")
factors = _deferred("factors")
generators = _deferred("generators")
palindromes = _deferred("palindromes")
rauzy = _deferred("rauzy")
words = _deferred("words")

# The parser's copies of sorted(generators.REGISTRY) and
# generators.RICHNESS_SAMPLE_CAP, so that --help and a rejected command line
# load no generator; tests/test_cli.py pins them to the originals.
GENERATOR_NAMES = (
    "cassaigne-aab",
    "episturmian",
    "fibonacci",
    "morphic",
    "periodic",
    "psi-of-fibonacci",
    "quadratic-abab",
    "s-word",
    "thue-morse",
    "tribonacci",
)
SAMPLE_CAP = 4096

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 3


class UsageError(PalrichError):
    pass


def _params(args: argparse.Namespace) -> dict:
    """The family parameters given on the command line."""
    params = {}
    for key in ("k", "block", "directive", "morphism", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _check(args: argparse.Namespace) -> None:
    """The checks of option values and combinations that the parser cannot make.

    A subcommand's namespace holds only its own options; others read as absent.
    """
    word = getattr(args, "word", None)
    n_max = getattr(args, "n_max", None)
    prefix_cap = getattr(args, "prefix_cap", None)
    # count takes no source; its parser has no source options.
    if args.command != "count":
        if (word is None) == (args.generator is None):
            raise UsageError("exactly one of --word or --generator is required")
        if word == "":
            raise UsageError("the literal word must be non-empty")
    if n_max is not None and n_max < 1:
        raise UsageError("--n-max must be at least 1")
    # Only generator sources read their parameters and the cap, which
    # sizes the richness sample; the factor sets are exact.  A literal
    # word is indexed and judged as it is.
    if word is not None:
        unread = [f"--{key}" for key in _params(args)]
        if prefix_cap is not None:
            unread.append("--prefix-cap")
        if unread:
            raise UsageError(f"a literal word takes no {', '.join(unread)}")
    elif prefix_cap is not None and prefix_cap < 1:
        raise UsageError(
            f"prefix cap {prefix_cap} must be at least 1: it is the "
            "length of the richness sample"
        )
    if args.command == "graph" and args.n < 0:
        raise UsageError("--n must be non-negative")
    if args.command == "count" and args.alphabet is not None and args.kind != "rich":
        raise UsageError(f"count --kind {args.kind} takes no --alphabet")


def _output(out: str | None):
    """A context giving the text stream a command writes to: the file ``out``, or stdout.

    A path that cannot be opened is a usage error.
    """
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None


def _report(args: argparse.Namespace, payload: dict, lines) -> None:
    """Write ``payload`` as JSON, or the text or CSV ``lines()`` built from it."""
    text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines())
    with _output(args.out) as fh:
        fh.write(text + "\n")


def _source(args: argparse.Namespace) -> words.Word | generators.WordFamily:
    """The parsed literal word, or the generator's family; a command builds it once."""
    if args.word is not None:
        return words.Word.parse(args.word)
    return generators.get_family(args.generator, **_params(args))


def _source_payload(args: argparse.Namespace) -> dict:
    if args.word is not None:
        return {"kind": "literal", "word": args.word}
    return {"kind": "generator", "name": args.generator, "params": _params(args)}


def _index_for(
    source: words.Word | generators.WordFamily, n: int
) -> factors.FactorIndex:
    """Index of the source for every order up to n.

    A generator's index is :meth:`WordFamily.index`, the exact set F_{n+1} of
    its infinite word.  A literal word w has no factor longer than |w|, so
    its index stops at order min(n, |w| - 1).
    """
    if isinstance(source, words.Word):
        return factors.build_index(source, min(n, len(source) - 1))
    return source.index(n)


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    source = _source(args)
    sample = source if args.word is not None else source.sample(args.prefix_cap)
    # The richness tree is dropped before the factor sets are built, so the
    # two never take memory at the same time.
    rich = palindromes.is_rich_incremental(palindromes.Eertree.build(sample))
    idx = _index_for(source, args.n_max)
    prof = analysis.profile_from_index(idx)
    rows = []
    for n, specials in enumerate(idx.specials()):
        right = sum(len(r) > 1 for _, r in specials.values())
        left = sum(is_left for is_left, _ in specials.values())
        both = sum(is_left and len(r) > 1 for is_left, r in specials.values())
        rows.append(
            {
                "n": n,
                "C": prof.C[n],
                "P": prof.P[n],
                "slack": prof.slack[n],
                "right_special": right,
                "left_special": left,
                "bispecial": both,
            }
        )
    payload = {
        "report": "analyze",
        "source": _source_payload(args),
        "n_max": idx.n_max,
        "reversal_closed": prof.reversal_closed,
        "closure_witness": prof.closure_witness.text if prof.closure_witness else None,
        "richness": {
            "rich": rich.rich,
            "defect": rich.defect,
            "first_violation_prefix": rich.first_violation_prefix,
            "witness": [w.text for w in rich.witness] if rich.witness else None,
        },
        "rows": rows,
    }

    def lines():
        richness = payload["richness"]
        if args.format == "csv":
            # The columns are the rows' keys, then the verdict; order 0 always has a row.
            yield ",".join([*rows[0], "rich"])
            yield from (",".join(map(str, [*r.values(), richness["rich"]])) for r in rows)
            return
        yield f"source: {payload['source']}"
        yield f"reversal_closed={payload['reversal_closed']}"
        yield f"rich={richness['rich']} defect={richness['defect']}"
        yield f"{'n':>4} {'C':>8} {'P':>6} {'slack':>6} {'special(r/l/bi)':>16}"
        for r in rows:
            special = f"{r['right_special']}/{r['left_special']}/{r['bispecial']}"
            yield f"{r['n']:>4} {r['C']:>8} {r['P']:>6} {r['slack']:>6} {special:>16}"

    _report(args, payload, lines)
    return EXIT_OK


# -- graph -------------------------------------------------------------------


def cmd_graph(args: argparse.Namespace) -> int:
    g = rauzy.build_rauzy(_index_for(_source(args), args.n), args.n)
    # The tier is built before the output is opened, so a failed build
    # writes no file; the DOT lines then go straight to the output.
    if args.tier == "raw":
        render, graphs = rauzy.rauzy_dot, (g,)
    elif args.tier == "reduced":
        render, graphs = rauzy.reduced_dot, (rauzy.reduce(g), g)
    else:
        sg = rauzy.super_reduce(rauzy.reduce(g))
        render, graphs = rauzy.super_dot, (sg, g.alphabet)
    with _output(args.out) as fh:
        render(*graphs, fh)
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _verify_literal(args: argparse.Namespace) -> int:
    report = analysis.theorem2_check(_source(args))
    payload = {
        "report": "verify-theorem2",
        "word": args.word,
        "properties": {
            "count": report.count_ok,
            "returns": report.returns_ok,
            "identity": report.identity_ok,
        },
        "agree": report.agree,
        "identity_rows": [list(row) for row in report.identity_rows],
    }

    def lines():
        props = payload["properties"]
        yield f"word: {payload['word']}"
        yield f"palindrome count = |w|+1: {props['count']}"
        yield f"complete returns palindromic: {props['returns']}"
        yield f"complexity identity on 0..|w|: {props['identity']}"
        yield f"three-way agreement: {payload['agree']}"

    _report(args, payload, lines)
    return EXIT_OK if report.agree else EXIT_INCONSISTENT


def _verify_generator(args: argparse.Namespace) -> int:
    report = analysis.theorem1_experiment(
        _source(args), args.n_max, prefix_cap=args.prefix_cap
    )
    prof = report.profile
    problems = report.discrepancies()
    payload = {
        "report": "verify-theorem1",
        "source": _source_payload(args),
        "n_max": prof.n_max,
        "prefix_length": report.prefix_length,
        "closure": {
            "ok": prof.reversal_closed,
            "witness": prof.closure_witness.text if prof.closure_witness else None,
        },
        "richness": {
            "incremental": report.incremental.rich,
            "by_returns": report.by_returns.rich,
            "agree": report.sweeps_agree,
        },
        "verdicts": {
            "rich": report.rich,
            "equality": report.equality_all,
            "conditions": report.conditions_all,
            "triangle_consistent": report.triangle_consistent,
        },
        "orders": [
            {
                "n": r.n,
                "C": prof.C[r.n],
                "P": prof.P[r.n],
                "slack": prof.slack[r.n],
                "equality": prof.equality(r.n),
                "condition1": r.condition1,
                "condition2": r.condition2,
                "periodic_route": r.periodic_route,
            }
            for r in report.orders
        ],
        "discrepancies": list(problems),
    }

    def lines():
        closure, v = payload["closure"], payload["verdicts"]
        w = closure["witness"]
        # The family's description is the one fact the JSON does not hold.
        yield f"source: {report.description}"
        yield f"prefix={payload['prefix_length']}"
        yield f"closure: {closure['ok']}" + (f" (witness {w!r}/{w[::-1]!r})" if w else "")
        yield f"rich={v['rich']} equality={v['equality']} conditions={v['conditions']}"
        yield f"triangle consistent: {v['triangle_consistent']}"
        yield from (f"discrepancy: {problem}" for problem in payload["discrepancies"])

    _report(args, payload, lines)
    return EXIT_INCONSISTENT if problems else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.word is not None:
        return _verify_literal(args)
    return _verify_generator(args)


# -- count -------------------------------------------------------------------

# The formula tables are checked against enumeration up to ORACLE_LIMIT,
# and the rich table against the exhaustive sweep up to RICH_ORACLE_LIMIT.
# The sweep visits all k^n words (at most 4^12, its budget): at 4^12 it
# sets the cost of `count --kind rich --alphabet 4 --n-max 12`, about 7 s
# on a 2-vCPU x86 host, where the table itself takes 0.13 s.
ORACLE_LIMIT = 14
RICH_ORACLE_LIMIT = 12


def cmd_count(args: argparse.Namespace) -> int:
    kind, n_max = args.kind, args.n_max
    alphabet_size = 2 if args.alphabet is None else args.alphabet
    # An oracle lists the counts of lengths 0..oracle_checked_to.
    oracle_checked_to = oracle = None
    provenance, mismatch = "formula", "formula/oracle"
    if kind == "sturmian":
        values = [counting.sturmian_count(n) for n in range(n_max + 1)]
        oracle_checked_to = min(n_max, ORACLE_LIMIT)
        oracle = [len(level) for level in counting.balanced_levels(oracle_checked_to)]
    elif kind == "sturmian-palindrome":
        values = [counting.sturmian_palindrome_count(n) for n in range(n_max + 1)]
        oracle_checked_to = min(n_max, ORACLE_LIMIT)
        oracle = counting.sturmian_palindrome_enumeration_oracle(oracle_checked_to)
    elif kind == "balanced-oracle":
        provenance = "enumeration"
        values = [len(level) for level in counting.balanced_levels(n_max)]
    else:  # rich
        # Asking for n_max first runs the one search; the shorter lengths
        # read its cache.
        top = counting.count_rich(alphabet_size, n_max)
        values = [counting.count_rich(alphabet_size, n) for n in range(n_max)] + [top]
        # The exhaustive sweep shares no code with the pruned search, so a
        # match is an independent check; its one sweep visits all k^n words
        # of the checked length and every shorter one.
        oracle_checked_to = min(n_max, RICH_ORACLE_LIMIT)
        oracle = counting.count_rich_naive(alphabet_size, oracle_checked_to)
        provenance, mismatch = "enumeration", "enumeration/sweep"
    for n, count in enumerate(oracle or ()):
        if count != values[n]:
            # The mismatch goes to stdout even with --out: no report is written.
            sys.stdout.write(f"{mismatch} mismatch at n={n}\n")
            return EXIT_INCONSISTENT
    payload = {
        "kind": kind,
        "alphabet_size": alphabet_size,
        "provenance": provenance,
        "values": [{"n": n, "count": count} for n, count in enumerate(values)],
        "report": "count",
        "oracle_checked_to": oracle_checked_to,
    }

    def lines():
        yield "n,count,provenance"
        yield from (f"{v['n']},{v['count']},{payload['provenance']}" for v in payload["values"])

    _report(args, payload, lines)
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palrich",
        description="Palindromic richness toolkit: complexity profiles, "
        "Rauzy graphs, richness verdicts, counting tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--word", help="literal word over a-z")
        p.add_argument(
            "--generator", choices=GENERATOR_NAMES, help="named word family"
        )
        p.add_argument("--k", type=int, help="parameter for parametrized families")
        p.add_argument("--block", help="repeating block for the periodic family")
        p.add_argument("--directive", help="directive string for episturmian")
        p.add_argument("--morphism", help="inline morphism, e.g. 'a->ab,b->a'")
        p.add_argument("--seed", help="seed letter for the morphic family")

    p_analyze = sub.add_parser("analyze", help="per-order complexity table")
    add_source(p_analyze)
    p_analyze.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_graph = sub.add_parser("graph", help="export a Rauzy graph tier as DOT")
    add_source(p_graph)
    p_graph.add_argument("--n", type=int, required=True, help="graph order")
    p_graph.add_argument("--tier", choices=["raw", "reduced", "super"], default="raw")

    p_verify = sub.add_parser("verify", help="run the theorem checks")
    add_source(p_verify)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")

    p_count = sub.add_parser("count", help="emit counting tables")
    p_count.add_argument(
        "--kind",
        choices=["sturmian", "sturmian-palindrome", "rich", "balanced-oracle"],
        required=True,
    )
    p_count.add_argument(
        "--alphabet", type=int, help="alphabet size of --kind rich (default 2)"
    )
    p_count.add_argument("--format", choices=["csv", "json"], default="csv")
    # graph reads only --n.
    for p in (p_analyze, p_verify, p_count):
        p.add_argument("--n-max", type=int, default=30)
    # Only the richness sample of analyze and verify reads the cap.
    for p in (p_analyze, p_verify):
        p.add_argument(
            "--prefix-cap",
            type=int,
            help="length of a generator's richness sample "
            f"(at most {SAMPLE_CAP}, the default)",
        )
    for p in (p_analyze, p_graph, p_verify, p_count):
        p.add_argument("--out", help="write output to this path")
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "graph": cmd_graph,
    "verify": cmd_verify,
    "count": cmd_count,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        return COMMANDS[args.command](args)
    except (PalrichError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
