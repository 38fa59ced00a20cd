import argparse
import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from palrich import analysis, cli, counting, generators
from palrich.cli import _build_parser, main
from palrich.factors import FactorIndex
from palrich.generators import RICHNESS_SAMPLE_CAP, get_family

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "palrich" / "report_schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def test_analyze_word_json(capsys):
    code, out, _ = run(capsys, "analyze", "--word", "abca", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["richness"]["rich"] is False
    assert payload["richness"]["defect"] == 1


def test_analyze_fibonacci_csv(capsys):
    code, out, _ = run(
        capsys, "analyze", "--generator", "fibonacci", "--n-max", "20",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 22  # header + 21 rows
    assert lines[0].startswith("n,C,P,slack")
    slack_col = [int(line.split(",")[3]) for line in lines[1:]]
    assert slack_col == [0] * 21


def test_analyze_text_and_out_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "analyze", "--word", "aabaa", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "rich=True" in target.read_text()


def test_verify_honors_prefix_cap_for_exact_sets(capsys):
    code, out, _ = run(
        capsys, "verify", "--generator", "fibonacci", "--n-max", "10",
        "--prefix-cap", "2048", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["prefix_length"] == 2048


def test_analyze_usage_errors(capsys):
    code, _, err = run(capsys, "analyze", "--word", "")
    assert code == 1 and "non-empty" in err
    code, _, err = run(capsys, "analyze", "--word", "ab", "--generator", "fibonacci")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--word", "ab", "--n-max", "0")
    assert code == 1
    code, out, err = run(
        capsys, "analyze", "--generator", "fibonacci", "--n-max", "5", "--prefix-cap", "0"
    )
    assert code == 1 and out == ""
    assert err == (
        "error: prefix cap 0 must be at least 1: it is the length of the richness sample\n"
    )


def test_literal_words_reject_generator_options(capsys):
    # A literal word is indexed and judged whole: no family parameter and no
    # sample cap applies to it.
    for argv, unread in (
        (("analyze", "--word", "abaab", "--k", "5"), "--k"),
        (("verify", "--word", "abaaba", "--prefix-cap", "0"), "--prefix-cap"),
        (("verify", "--word", "abacaba", "--prefix-cap", "8"), "--prefix-cap"),
        (("graph", "--word", "abacaba", "--n", "2", "--block", "ab"), "--block"),
        (
            ("analyze", "--word", "abacaba", "--morphism", "a->ab", "--prefix-cap", "8"),
            "--morphism, --prefix-cap",
        ),
    ):
        assert run(capsys, *argv) == (1, "", f"error: a literal word takes no {unread}\n")
    code, out, err = run(
        capsys, "verify", "--generator", "fibonacci", "--n-max", "3", "--prefix-cap", "8"
    )
    assert code == 0 and err == ""
    assert "prefix=8" in out


def test_generator_prefix_cap_below_the_order_count(capsys):
    # The cap only sizes the richness sample and the factor sets are exact,
    # so an 8-letter sample serves 21 orders.
    code, out, err = run(
        capsys, "verify", "--generator", "fibonacci", "--n-max", "20",
        "--prefix-cap", "8", "--format", "json",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    validate(payload)
    assert payload["prefix_length"] == 8


def test_graph_reduced_matches_golden(capsys):
    code, out, _ = run(
        capsys, "graph", "--generator", "fibonacci", "--n", "2", "--tier", "reduced"
    )
    assert code == 0
    assert out == (GOLDEN / "fibonacci_n2_reduced.dot").read_text()


def test_graph_super_matches_golden(capsys):
    code, out, _ = run(
        capsys, "graph", "--generator", "fibonacci", "--n", "2", "--tier", "super"
    )
    assert code == 0
    assert out == (GOLDEN / "fibonacci_n2_super.dot").read_text()


def test_graph_raw_matches_golden(capsys):
    code, out, _ = run(
        capsys, "graph", "--generator", "fibonacci", "--n", "2", "--tier", "raw"
    )
    assert code == 0
    assert out == (GOLDEN / "fibonacci_n2_raw.dot").read_text()


def test_graph_streams_its_dot_output(tmp_path):
    # The DOT lines go straight to the file, so the peak stays near the size
    # of the factor sets (about 2 MB of F_1000 and F_1001), not of the text.
    target = tmp_path / "fibonacci_1000.dot"
    tracemalloc.start()
    try:
        code = main(
            ["graph", "--generator", "fibonacci", "--n", "1000", "--out", str(target)]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 << 20
    # A header, C(1000) = 1001 vertices, C(1001) = 1002 edges and a closing brace.
    assert target.read_text().count("\n") == 2005


def test_graph_failed_build_writes_no_file(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, err = run(capsys, "graph", "--word", "abc", "--n", "5", "--out", str(target))
    assert code == 1 and out == "" and err.startswith("error:")
    assert not target.exists()


def test_graph_unary_cycle_note(capsys):
    code, out, _ = run(
        capsys, "graph", "--word", "aaaaaaaaaa", "--n", "1", "--tier", "reduced"
    )
    assert code == 0
    assert "single cycle" in out


def test_verify_word_theorem2(capsys):
    code, out, _ = run(capsys, "verify", "--word", "aabaa", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["agree"] is True
    code, _, err = run(capsys, "verify", "--word", "abca")
    assert code == 1 and "palindrome" in err


def test_verify_generator_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--generator", "fibonacci", "--n-max", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["verdicts"]["triangle_consistent"] is True
    code, out, _ = run(
        capsys, "verify", "--generator", "thue-morse", "--n-max", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["verdicts"]["rich"] is False
    assert payload["verdicts"]["equality"] is False


def test_count_csv_and_json(capsys):
    code, out, _ = run(capsys, "count", "--kind", "sturmian", "--n-max", "14")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert lines[1] == "0,1,formula"
    code, out, _ = run(
        capsys, "count", "--kind", "rich", "--n-max", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["values"][3]["count"] == 8
    code, out, _ = run(
        capsys, "count", "--kind", "sturmian-palindrome", "--n-max", "1"
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "0,1,formula"


COUNT_KINDS = {
    "sturmian": "formula",
    "sturmian-palindrome": "formula",
    "balanced-oracle": "enumeration",
    "rich": "enumeration",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_count_matches_golden(capsys, kind, fmt):
    extra = ("--alphabet", "3") if kind == "rich" else ()
    code, out, err = run(capsys, "count", "--kind", kind, *extra, "--n-max", "6", "--format", fmt)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"count_{kind}.{fmt}").read_bytes()


def test_count_table_layout_and_provenance(capsys):
    values = {}
    for kind, provenance in COUNT_KINDS.items():
        code, out, _ = run(capsys, "count", "--kind", kind, "--n-max", "6")
        assert code == 0
        assert "\r" not in out
        lines = out.split("\n")
        assert lines[0] == "n,count,provenance" and lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert [int(n) for n, _, _ in rows] == list(range(7))
        assert {p for _, _, p in rows} == {provenance}
        values[kind] = [int(c) for _, c, _ in rows]
        code, out, _ = run(capsys, "count", "--kind", kind, "--n-max", "6", "--format", "json")
        payload = json.loads(out)
        validate(payload)
        assert (payload["kind"], payload["provenance"]) == (kind, provenance)
        assert [v["count"] for v in payload["values"]] == values[kind]
    assert values["balanced-oracle"] == values["sturmian"]
    assert values["sturmian"][4] == 14


@pytest.mark.parametrize(
    "kind, oracle, message",
    [
        ("rich", "count_rich_naive", "enumeration/sweep mismatch at n=5"),
        ("sturmian", "enumerate_balanced", "formula/oracle mismatch at n=5"),
    ],
)
def test_count_reports_oracle_mismatch(capsys, monkeypatch, kind, oracle, message):
    original = getattr(counting, oracle)

    def off_by_one_at_5(*args):
        result = original(*args)
        if kind == "rich":
            # One sweep returns the counts of every length; perturb n = 5.
            return [r + (n == 5) for n, r in enumerate(result)]
        # One search to the top length; a spurious word whose 5-prefix
        # baabb is unbalanced (it holds aa and bb) raises the count of every
        # length from 5 on.
        return result + [b"\1\0\0\1\1".ljust(args[-1], b"\1")]

    monkeypatch.setattr(counting, oracle, off_by_one_at_5)
    code, out, _ = run(capsys, "count", "--kind", kind, "--n-max", "8")
    assert code == 3
    assert out == message + "\n"


def _assert_count_rejects(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--kind", "sturmian", "--n-max", "3", *extra])
    assert exc.value.code == 2, extra
    assert "unrecognized arguments" in capsys.readouterr().err, extra


def test_count_rejects_source(capsys):
    # count reads no source and no family parameter.
    for extra in (
        ("--word", "ab"),
        ("--generator", "fibonacci"),
        ("--block", "zzz"),
        ("--morphism", "x"),
    ):
        _assert_count_rejects(capsys, extra)


def test_count_rejects_prefix_cap(capsys):
    # count samples no word, so it takes no sample cap either.
    _assert_count_rejects(capsys, ("--prefix-cap", "8"))
    _assert_count_rejects(capsys, ("--prefix-cap", "0"))


def test_count_takes_alphabet_only_for_rich_words(capsys):
    # The other kinds count binary words and would drop the option unread.
    for kind in ("sturmian", "sturmian-palindrome", "balanced-oracle"):
        assert run(capsys, "count", "--kind", kind, "--n-max", "2", "--alphabet", "7") == (
            1, "", f"error: count --kind {kind} takes no --alphabet\n"
        )
    argv = ("count", "--kind", "rich", "--n-max", "2", "--format", "json")
    code, out, _ = run(capsys, *argv, "--alphabet", "3")
    assert code == 0 and json.loads(out)["alphabet_size"] == 3
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["alphabet_size"] == 2


def test_outputs_are_byte_deterministic(capsys):
    a = run(capsys, "count", "--kind", "rich", "--n-max", "9")
    b = run(capsys, "count", "--kind", "rich", "--n-max", "9")
    assert a == b
    a = run(capsys, "graph", "--generator", "tribonacci", "--n", "1", "--tier", "reduced")
    b = run(capsys, "graph", "--generator", "tribonacci", "--n", "1", "--tier", "reduced")
    assert a == b


def test_analyze_s_word_exact_complexities(capsys):
    # Exact values from the recursion s_m = s_{m-1} a^m s_{m-1}; a prefix of
    # 2^18 letters lacks one factor of length 18 and ten of length 21.
    code, out, _ = run(
        capsys, "analyze", "--generator", "s-word", "--n-max", "30",
        "--prefix-cap", "262144", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    rows = payload["rows"]
    assert (rows[18]["C"], rows[18]["P"], rows[21]["C"]) == (124, 1, 172)
    assert payload["reversal_closed"] is False


def test_verify_reports_richness_sweeps_that_disagree(capsys, monkeypatch):
    # Both sweeps read the one sample, so a defect that differs by one is a
    # discrepancy even though both call the word rich.
    by_returns = analysis.is_rich_by_returns

    def defect_off_by_one(w):
        report = by_returns(w)
        return dataclasses.replace(report, defect=report.defect + 1)

    monkeypatch.setattr(analysis, "is_rich_by_returns", defect_off_by_one)
    code, out, _ = run(capsys, "verify", "--generator", "fibonacci", "--n-max", "5")
    assert code == 3
    assert "discrepancy: richness checkers disagree: incremental=True returns=True\n" in out


def test_a_defect_past_the_checked_orders_is_not_an_inconsistency(capsys):
    # The sample fails at prefix 43 (Fibonacci prefix + c) and at prefix 8
    # (Thue-Morse), but orders 0..4 and 0..1 cannot see those defects: the
    # triangle reads as open and the run is inconclusive, not inconsistent.
    block = "abaababaabaababaababaabaababaabaabac"
    for argv in (
        ("--generator", "periodic", "--block", block, "--n-max", "4"),
        ("--generator", "thue-morse", "--n-max", "1"),
    ):
        code, out, _ = run(capsys, "verify", *argv)
        assert "closure: True\nrich=False equality=True conditions=True\n" in out
        assert "triangle consistent: False\n" in out and "discrepancy" not in out
        assert code == 0


def test_verify_checks_the_triangle_only_on_reversal_closed_words(capsys):
    # The theorem assumes closure under reversal; abbb... is not closed.
    code, out, _ = run(
        capsys, "verify", "--generator", "morphic", "--morphism", "a->ab,b->bb",
        "--n-max", "4",
    )
    assert code == 0
    assert "closure: False (witness 'abbbb'/'bbbba')\n" in out
    assert "triangle consistent: False\n" in out and "discrepancy" not in out


def test_analyze_counts_the_left_specials_of_a_finite_word(capsys):
    # b is left special in abcb (ab, cb), though no 3-letter window ends in
    # ab: the right specials of the sorted reversed windows miss it.
    code, out, _ = run(capsys, "analyze", "--format", "json", "--word", "abcb", "--n-max", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["right_special"], r["left_special"], r["bispecial"]) for r in rows] == [
        (1, 1, 1), (0, 1, 0), (0, 0, 0)
    ]


def test_prefix_cap_sizes_only_the_richness_sample(capsys):
    argv = ("verify", "--generator", "tribonacci", "--n-max", "12", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    full = json.loads(out)
    assert full["prefix_length"] == 4096
    code, out, _ = run(capsys, *argv, "--prefix-cap", "1000")
    assert code == 0
    small = json.loads(out)
    assert small["prefix_length"] == 1000
    assert small["orders"] == full["orders"]
    code, out, _ = run(capsys, *argv, "--prefix-cap", str(1 << 20))
    assert json.loads(out) == full


def test_analyze_judges_a_long_literal_word_whole(capsys):
    # The 65,536-letter Fibonacci prefix is rich; abbaab after it is not.
    # Its last letter ends baababaaabbaab, a complete return to baab that is
    # not a palindrome, and adds no new palindrome.
    text = get_family("fibonacci").produce(1 << 16).text + "abbaab"
    code, out, _ = run(
        capsys, "analyze", "--word", text, "--n-max", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["richness"] == {
        "rich": False,
        "defect": 1,
        "first_violation_prefix": 65542,
        "witness": ["baab", "baababaaabbaab"],
    }


SOURCE_OPTIONS = [
    "--block", "--directive", "--generator", "--k", "--morphism", "--seed", "--word",
]


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for a in p._actions for s in a.option_strings if s != "-h")
        for name, p in sub.choices.items()
    }
    assert options == {
        "analyze": sorted(
            SOURCE_OPTIONS + ["--format", "--help", "--n-max", "--out", "--prefix-cap"]
        ),
        "graph": sorted(SOURCE_OPTIONS + ["--help", "--n", "--out", "--tier"]),
        "verify": sorted(
            SOURCE_OPTIONS + ["--format", "--help", "--n-max", "--out", "--prefix-cap"]
        ),
        "count": ["--alphabet", "--format", "--help", "--kind", "--n-max", "--out"],
    }
    # graph reads only --n and builds no richness sample, so an --n-max or a
    # --prefix-cap it would ignore is an error.
    for argv in (
        ["graph", "--generator", "fibonacci", "--n", "3", "--n-max", "0"],
        ["graph", "--generator", "fibonacci", "--n", "3", "--prefix-cap", "8"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_parser_constants_are_the_generators_own(monkeypatch):
    # The parser spells out the generator names and the sample cap so that
    # building it loads no generator; both must stay the registry's.
    assert cli.GENERATOR_NAMES == tuple(sorted(generators.REGISTRY))
    assert cli.SAMPLE_CAP == generators.RICHNESS_SAMPLE_CAP
    # The help texts, captured at 80 columns before the constants existed.
    monkeypatch.setenv("COLUMNS", "80")
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert parser.format_help() == (GOLDEN / "help_palrich.txt").read_text()
    for name in ("analyze", "graph", "verify", "count"):
        assert sub.choices[name].format_help() == (GOLDEN / f"help_{name}.txt").read_text(), name


def test_generator_rejects_a_parameter_it_does_not_take(capsys):
    code, out, err = run(
        capsys, "verify", "--generator", "fibonacci", "--block", "zzz", "--format", "json"
    )
    assert (code, out) == (1, "")
    assert err == "error: generator 'fibonacci' takes no parameter block\n"


def test_generator_runs_index_exactly_the_orders_they_read(capsys, monkeypatch):
    built = []
    init = FactorIndex.__init__

    def recording_init(self, alphabet, n_max, top):
        built.append(n_max)
        init(self, alphabet, n_max, top)

    monkeypatch.setattr(FactorIndex, "__init__", recording_init)
    for argv in (("analyze", "--n-max", "7"), ("verify", "--n-max", "7"), ("graph", "--n", "7")):
        built.clear()
        assert run(capsys, *argv, "--generator", "fibonacci")[0] == 0, argv
        assert built == [7], argv


def test_literal_words_answer_every_order_they_have(capsys):
    # abbbbab has orders 0..6: its order-6 graph has the one edge abbbbab.
    code, out, err = run(capsys, "graph", "--word", "abbbbab", "--n", "6")
    assert (code, err) == (0, "")
    assert out == (
        "digraph rauzy_6 {\n"
        '  graph [note="no special vertices; single cycle"];\n'
        '  "abbbba";\n  "bbbbab";\n'
        '  "abbbba" -> "bbbbab" [label="abbbbab"];\n}\n'
    )
    # Without special vertices the reduced tier draws the walk of the raw
    # graph, which ends at the final suffix.
    code, out, _ = run(capsys, "graph", "--word", "abbbbab", "--n", "6", "--tier", "reduced")
    assert code == 0
    assert out.endswith('  "abbbba";\n  "bbbbab";\n  "abbbba" -> "bbbbab";\n}\n')
    code, out, err = run(capsys, "graph", "--word", "abbbbab", "--n", "7")
    assert (code, out) == (1, "")
    assert "0 <= n <= n_max = 6" in err
    code, out, _ = run(capsys, "analyze", "--word", "abbbbab", "--n-max", "30", "--format", "json")
    payload = json.loads(out)
    assert payload["n_max"] == 6 and [r["n"] for r in payload["rows"]] == list(range(7))
    # A one-letter word has the one order 0.
    code, out, _ = run(capsys, "analyze", "--word", "a", "--format", "json")
    assert code == 0
    assert [(r["n"], r["C"], r["P"]) for r in json.loads(out)["rows"]] == [(0, 1, 1)]


def test_only_the_richness_leg_produces_a_sample(capsys, monkeypatch):
    # Every index is built from the exact sets; a prefix of the word is
    # produced only as the richness sample of verify and analyze.
    produced = []

    def recording_get_family(name, **params):
        family = get_family(name, **params)

        def produce(length):
            produced.append(length)
            return family.produce(length)

        return dataclasses.replace(family, produce=produce)

    monkeypatch.setattr(generators, "get_family", recording_get_family)
    for argv, lengths in (
        (("graph", "--n", "9"), []),
        (("graph", "--n", "9", "--tier", "super"), []),
        (("verify", "--n-max", "9"), [RICHNESS_SAMPLE_CAP]),
        (("analyze", "--n-max", "9"), [RICHNESS_SAMPLE_CAP]),
        (("verify", "--n-max", "9", "--prefix-cap", "300"), [300]),
        (("analyze", "--n-max", "9", "--prefix-cap", str(1 << 20)), [RICHNESS_SAMPLE_CAP]),
    ):
        produced.clear()
        assert run(capsys, *argv, "--generator", "cassaigne-aab")[0] == 0, argv
        assert produced == lengths, argv
