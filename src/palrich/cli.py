"""Command-line surface: analyze, graph, verify, count.

Exit codes: 0 success, 1 usage error found after parsing (a bad value, an
oversized request, a parameter the source does not read), 2 the parser
rejected the command line (an unknown option or one the subcommand does not
take, a missing or malformed argument), 3 internal consistency failure (a
formula fails its oracle, or a reversal-closed word's triangle is open).
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


class RunConfig:
    """The options of one command, checked against each other.

    A plain class, not a dataclass, so that ``--help`` and a rejected
    command line import no ``dataclasses``.
    """

    def __init__(
        self,
        command: str,
        word: str | None,
        generator: str | None,
        generator_params: dict,
        n_max: int | None,
        prefix_cap: int | None,
        fmt: str,
        out: str | None,
    ):
        self.command = command
        self.word = word
        self.generator = generator
        self.generator_params = generator_params
        self.n_max = n_max
        self.prefix_cap = prefix_cap
        self.fmt = fmt
        self.out = out
        # count takes no source; its parser has no source options.
        if self.command != "count":
            if (self.word is None) == (self.generator is None):
                raise UsageError("exactly one of --word or --generator is required")
            if self.word is not None and not self.word:
                raise UsageError("the literal word must be non-empty")
        if self.n_max is not None and self.n_max < 1:
            raise UsageError("--n-max must be at least 1")
        # Only generator sources read their parameters and the cap, which
        # sizes the richness sample; the factor sets are exact.  A literal
        # word is indexed and judged as it is.
        if self.word is not None:
            unread = [f"--{key}" for key in self.generator_params]
            if self.prefix_cap is not None:
                unread.append("--prefix-cap")
            if unread:
                raise UsageError(f"a literal word takes no {', '.join(unread)}")
        if self.generator is not None:
            if self.prefix_cap is None:
                self.prefix_cap = generators.RICHNESS_SAMPLE_CAP
            elif self.prefix_cap < 1:
                raise UsageError(
                    f"prefix cap {self.prefix_cap} must be at least 1: it is the "
                    "length of the richness sample"
                )


@contextlib.contextmanager
def _output(out: str | None):
    """The text stream a command writes to: the file ``out``, or stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: str | None):
    with _output(out) as fh:
        fh.write(text)


def _family(cfg: RunConfig) -> generators.WordFamily:
    return generators.get_family(cfg.generator, **cfg.generator_params)


def _source_payload(cfg: RunConfig) -> dict:
    if cfg.word is not None:
        return {"kind": "literal", "word": cfg.word}
    return {
        "kind": "generator",
        "name": cfg.generator,
        "params": {k: v for k, v in cfg.generator_params.items()},
    }


def _source_word(cfg: RunConfig) -> words.Word:
    """The literal word, or the generator's richness sample."""
    if cfg.word is not None:
        return words.Word.parse(cfg.word)
    return _family(cfg).sample(cfg.prefix_cap)


def _index_for(cfg: RunConfig, n: int) -> factors.FactorIndex:
    """Index of the source for every order up to n.

    A generator's index is :meth:`WordFamily.index`, the exact set F_{n+1} of
    its infinite word.  A literal word w has no factor longer than |w|, so
    its index stops at order min(n, |w| - 1).
    """
    if cfg.word is not None:
        w = words.Word.parse(cfg.word)
        return factors.build_index(w, min(n, len(w) - 1))
    return _family(cfg).index(n)


# -- analyze -----------------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> int:
    # The richness tree is dropped before the factor sets are built, so the
    # two never take memory at the same time.
    rich = palindromes.is_rich_incremental(
        palindromes.Eertree.build(_source_word(cfg))
    )
    idx = _index_for(cfg, cfg.n_max)
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
        "source": _source_payload(cfg),
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
    if cfg.fmt == "json":
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    elif cfg.fmt == "csv":
        lines = ["n,C,P,slack,right_special,left_special,bispecial,rich"]
        for r in rows:
            lines.append(
                f"{r['n']},{r['C']},{r['P']},{r['slack']},{r['right_special']},"
                f"{r['left_special']},{r['bispecial']},{rich.rich}"
            )
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        lines = [
            f"source: {payload['source']}",
            f"reversal_closed={prof.reversal_closed}",
            f"rich={rich.rich} defect={rich.defect}",
            f"{'n':>4} {'C':>8} {'P':>6} {'slack':>6} {'special(r/l/bi)':>16}",
        ]
        for r in rows:
            special = f"{r['right_special']}/{r['left_special']}/{r['bispecial']}"
            lines.append(
                f"{r['n']:>4} {r['C']:>8} {r['P']:>6} {r['slack']:>6} {special:>16}"
            )
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


# -- graph -------------------------------------------------------------------


def cmd_graph(cfg: RunConfig, n: int, tier: str) -> int:
    if n < 0:
        raise UsageError("--n must be non-negative")
    idx = _index_for(cfg, n)
    g = rauzy.build_rauzy(idx, n)
    # The tier is built before the output is opened, so a failed build
    # writes no file; the DOT lines then go straight to the output.
    if tier == "raw":
        render, args = rauzy.rauzy_dot, (g,)
    elif tier == "reduced":
        render, args = rauzy.reduced_dot, (rauzy.reduce(g), g)
    elif tier == "super":
        sg = rauzy.super_reduce(rauzy.reduce(g))
        render, args = rauzy.super_dot, (sg, g.alphabet)
    else:
        raise UsageError(f"unknown tier {tier!r}")
    with _output(cfg.out) as fh:
        render(*args, fh)
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _verify_literal(cfg: RunConfig) -> int:
    w = words.Word.parse(cfg.word)
    report = analysis.theorem2_check(w)
    payload = {
        "report": "verify-theorem2",
        "word": cfg.word,
        "properties": {
            "count": report.count_ok,
            "returns": report.returns_ok,
            "identity": report.identity_ok,
        },
        "agree": report.agree,
        "identity_rows": [list(row) for row in report.identity_rows],
    }
    if cfg.fmt == "json":
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    else:
        lines = [
            f"word: {cfg.word}",
            f"palindrome count = |w|+1: {report.count_ok}",
            f"complete returns palindromic: {report.returns_ok}",
            f"complexity identity on 0..|w|: {report.identity_ok}",
            f"three-way agreement: {report.agree}",
        ]
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if report.agree else EXIT_INCONSISTENT


def _verify_generator(cfg: RunConfig) -> int:
    family = _family(cfg)
    report = analysis.theorem1_experiment(
        family, cfg.n_max, prefix_cap=cfg.prefix_cap
    )
    problems = report.discrepancies()
    payload = {
        "report": "verify-theorem1",
        "source": _source_payload(cfg),
        "n_max": report.n_max,
        "prefix_length": report.prefix_length,
        "closure": {
            "ok": report.closure_ok,
            "witness": report.closure_witness.text
            if report.closure_witness
            else None,
        },
        "richness": {
            "incremental": report.richness.incremental.rich,
            "by_returns": report.richness.by_returns.rich,
            "agree": report.richness.agree,
        },
        "verdicts": {
            "rich": report.richness.rich,
            "equality": report.equality_all,
            "conditions": report.conditions_all,
            "triangle_consistent": report.triangle_consistent,
        },
        "orders": [
            {
                "n": r.n,
                "C": r.C_n,
                "P": r.P_n,
                "slack": r.slack,
                "equality": r.equality,
                "condition1": r.condition1,
                "condition2": r.condition2,
                "periodic_route": r.periodic_route,
            }
            for r in report.orders
        ],
        "discrepancies": list(problems),
    }
    if cfg.fmt == "json":
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    else:
        lines = [
            f"source: {report.description}",
            f"prefix={report.prefix_length}",
            f"closure: {report.closure_ok}"
            + (
                f" (witness {report.closure_witness.text!r}/"
                f"{report.closure_witness.reversed().text!r})"
                if report.closure_witness
                else ""
            ),
            f"rich={report.richness.rich} equality={report.equality_all} "
            f"conditions={report.conditions_all}",
            f"triangle consistent: {report.triangle_consistent}",
        ]
        for problem in problems:
            lines.append(f"discrepancy: {problem}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_INCONSISTENT if problems else EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.word is not None:
        return _verify_literal(cfg)
    return _verify_generator(cfg)


# -- count -------------------------------------------------------------------

# The formula tables are checked against enumeration up to ORACLE_LIMIT,
# and the rich table against the exhaustive sweep up to RICH_ORACLE_LIMIT.
# The sweep visits all k^n words: at 4^12 it sets the cost of
# `count --kind rich --alphabet 4 --n-max 12`, about 12 s on a 2-vCPU
# x86 host, where the table itself takes 0.25 s.
ORACLE_LIMIT = 14
RICH_ORACLE_LIMIT = 12


def cmd_count(cfg: RunConfig, kind: str, alphabet_size: int | None) -> int:
    if alphabet_size is None:
        alphabet_size = 2
    elif kind != "rich":
        raise UsageError(f"count --kind {kind} takes no --alphabet")
    n_max = cfg.n_max
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
    elif kind == "rich":
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
    else:
        raise UsageError(f"unknown counting kind {kind!r}")
    for n, count in enumerate(oracle or ()):
        if count != values[n]:
            _emit(f"{mismatch} mismatch at n={n}\n", None)
            return EXIT_INCONSISTENT
    if cfg.fmt == "json":
        payload = {
            "kind": kind,
            "alphabet_size": alphabet_size,
            "provenance": provenance,
            "values": [{"n": n, "count": count} for n, count in enumerate(values)],
            "report": "count",
            "oracle_checked_to": oracle_checked_to,
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    else:
        rows = (f"{n},{count},{provenance}\n" for n, count in enumerate(values))
        _emit("n,count,provenance\n" + "".join(rows), cfg.out)
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


def _config_from(args: argparse.Namespace) -> RunConfig:
    params = {}
    for key in ("k", "block", "directive", "morphism", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return RunConfig(
        command=args.command,
        word=getattr(args, "word", None),
        generator=getattr(args, "generator", None),
        generator_params=params,
        n_max=getattr(args, "n_max", None),
        prefix_cap=getattr(args, "prefix_cap", None),
        fmt=getattr(args, "format", "text"),
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "graph":
            return cmd_graph(cfg, args.n, args.tier)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "count":
            return cmd_count(cfg, args.kind, args.alphabet)
        raise UsageError(f"unknown command {args.command!r}")
    except (PalrichError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
