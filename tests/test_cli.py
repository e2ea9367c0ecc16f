import io
import itertools
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cohkit.cli
import cohkit.coherence
import cohkit.compound
import cohkit.events
import cohkit.lp
import cohkit.tables
from cohkit.cli import main
from cohkit.rationals import rat
from cohkit.report import parse_report
from cohkit.tables import compute_intervals

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_check_incoherent_triple():
    code, text = run_cli("check", str(DATA / "additive_triple.coh"))
    assert code == 1
    report = parse_report(text)
    assert report.get("verdict") == "incoherent"
    assert report.get("failing-subfamily") == [1, 2, 3]
    assert report.get("stakes") == [rat(1), rat(1), rat(-1)]
    gains = report.get("gains")
    assert gains.get("C1") == rat(11, 10)
    assert gains.get("C2") == gains.get("C3") == gains.get("C4") == rat(1, 10)
    assert report.get("margin") == rat(1, 10)
    assert report.get("brier-dominator") == [rat(13, 30), rat(1, 3), rat(23, 30)]


def test_check_coherent_constrained_pair():
    code, text = run_cli("check", str(DATA / "nested_pair.coh"))
    assert code == 0
    report = parse_report(text)
    assert report.get("verdict") == "coherent"
    weights = report.get("hull-weights")
    assert sum(weights) == 1 and all(w >= 0 for w in weights)


def test_check_reports_are_deterministic():
    _, first = run_cli("check", str(DATA / "additive_triple.coh"))
    _, second = run_cli("check", str(DATA / "additive_triple.coh"))
    assert first == second


def test_dutchbook_output():
    code, text = run_cli("dutchbook", str(DATA / "additive_triple.coh"))
    assert code == 1
    report = parse_report(text)
    assert report.get("margin") > 0
    code, text = run_cli("dutchbook", str(DATA / "nested_pair.coh"))
    assert code == 0
    assert parse_report(text).get("dutch-book") == "none"


@pytest.mark.parametrize(
    "op, kind, lower, upper",
    [
        ("S", "and", rat(1, 3), rat(4, 5)),
        ("S", "or", rat(1, 2), rat(1)),
        ("B", "and", rat(0), rat(1)),
        ("gs", "and", rat(1, 3), rat(2, 3)),
        ("gs", "or", rat(2, 3), rat(1)),
    ],
)
def test_bounds_at_two_thirds(op, kind, lower, upper):
    code, text = run_cli(
        "bounds", str(DATA / "free_pair.coh"), "--op", op, "--kind", kind
    )
    assert code == 0
    interval = parse_report(text).get("interval")
    assert interval.get("lower") == lower
    assert interval.get("upper") == upper


def test_bounds_rejects_incoherent_base(tmp_path):
    bad = tmp_path / "bad.coh"
    bad.write_text(
        "atoms A H\nevent sure = A | A\nevent ah = A | H\n"
        "assess sure = 1/2\nassess ah = 1/2\n"
    )
    code, text = run_cli("bounds", str(bad), "--op", "K", "--kind", "and")
    assert code == 1
    assert parse_report(text).get("verdict") == "incoherent-base"


def test_entails_commands():
    code, text = run_cli("entails", str(DATA / "chain_entail.coh"))
    assert code == 0
    report = parse_report(text)
    assert report.get("p-entails") is True
    assert report.get("characterizations-agree") is True
    code, text = run_cli(
        "entails", str(DATA / "no_entail.coh"), "--target", "both"
    )
    assert code == 1
    assert parse_report(text).get("p-entails") is False


def test_entails_on_sixteen_atoms_without_per_world_evaluation(monkeypatch):
    """The 16-atom widening of chain_entail.coh (13 idle atoms) gives the
    same verdicts with formula evaluation world by world disabled, so
    worlds, constituents and compound values all come from bitsets."""

    def refuse(*_args):
        raise AssertionError("eval_formula called")

    _code, narrow = run_cli("entails", str(DATA / "chain_entail.coh"))
    monkeypatch.setattr(cohkit.events, "eval_formula", refuse)
    code, wide = run_cli("entails", str(DATA / "chain_entail_wide.coh"))
    assert code == 0
    assert wide == narrow


def test_compound_bounds_on_sixteen_atoms_without_per_world_values(monkeypatch):
    """The 16-atom widening of free_pair.coh (12 idle atoms) gives the gs
    conjunction's interval with the compound module's world-by-world
    reading of bitsets disabled, so the target reaches the extension LPs
    as levels."""

    def refuse(*_args):
        raise AssertionError("per-world reading used")

    argv = ("--op", "gs", "--kind", "and")
    _code, narrow = run_cli("bounds", str(DATA / "free_pair.coh"), *argv)
    monkeypatch.setattr(cohkit.compound, "set_bits", refuse)
    code, wide = run_cli("bounds", str(DATA / "pair_wide.coh"), *argv)
    assert code == 0
    assert parse_report(wide).get("interval") == parse_report(narrow).get("interval")
    assert parse_report(wide).get("interval").get("lower") == rat(1, 3)


@pytest.fixture
def coherence_checks(monkeypatch):
    """The assessments check_coherence is called on, through every
    module that calls it."""
    calls = []
    original = cohkit.coherence.check_coherence

    def counted(assessment, universe):
        calls.append(assessment)
        return original(assessment, universe)

    for module in (cohkit.cli, cohkit.coherence, cohkit.compound, cohkit.tables):
        monkeypatch.setattr(module, "check_coherence", counted)
    return calls


@pytest.mark.parametrize("command", ["check", "dutchbook"])
def test_witness_commands_build_one_member_table(command, monkeypatch):
    # the Dutch book and the dominator read the verdict's table
    scans = []
    original = cohkit.coherence.MemberTable._scan_worlds

    def counted(table):
        scans.append(table)
        return original(table)

    monkeypatch.setattr(cohkit.coherence.MemberTable, "_scan_worlds", counted)
    code, _text = run_cli(command, str(DATA / "additive_triple.coh"))
    assert code == 1
    assert len(scans) == 1


def test_bounds_checks_base_once(coherence_checks):
    code, _text = run_cli("bounds", str(DATA / "free_pair.coh"), "--op", "K", "--kind", "and")
    assert code == 0
    assert [len(a.family) for a in coherence_checks] == [2]


def test_entails_checks_premises_once(coherence_checks):
    code, _text = run_cli("entails", str(DATA / "chain_entail.coh"))
    assert code == 0
    assert [len(a.family) for a in coherence_checks] == [2]


def test_entails_runs_three_coherence_checks(monkeypatch):
    # the premises once, then the target at 1 and at 0 once each: both
    # characterizations read the same extension problem
    checked = []
    original = cohkit.coherence._gilio_check

    def counted(table, *args):
        checked.append(len(table.members))
        return original(table, *args)

    for module in (cohkit.coherence, cohkit.compound):
        monkeypatch.setattr(module, "_gilio_check", counted)
    code, _text = run_cli("entails", str(DATA / "chain_entail.coh"))
    assert code == 0
    assert checked == [2, 3, 3]


def test_entails_and_rule_on_twelve_premises(monkeypatch):
    # B_i|A for i = 1..12 p-entail B_1 & ... & B_12 | A; the widest table
    # is the premises plus the target, not one member per subset
    widths = []
    original = cohkit.coherence.MemberTable._build

    def counted(table, members, *args):
        widths.append(len(members))
        return original(table, members, *args)

    monkeypatch.setattr(cohkit.coherence.MemberTable, "_build", counted)
    argv = ["entails", "and_rule_12.coh"]
    code, text, err = run_captured(_in_data(argv))
    # the golden run of this command is held here, not in
    # test_cli_output_matches_golden, so that it runs once
    assert _transcript(argv, code, text, err) == _golden(argv)
    assert code == 0
    report = parse_report(text)
    assert report.get("p-entails") is True
    assert report.get("characterizations-agree") is True
    assert max(widths) <= 13


@pytest.mark.parametrize("path", sorted(DATA.glob("*.coh")), ids=lambda path: path.name)
def test_entails_runs_no_simplex(monkeypatch, path):
    # the premises at 1 and the target at 0 or 1: every round of every
    # check has its closed form, so no LP runs
    calls = []
    original = cohkit.lp.run_simplex

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cohkit.lp, "run_simplex", counted)
    run_captured(["entails", str(path)])
    assert len(calls) == 0


def test_interval_tables_check_each_base_once(coherence_checks):
    compute_intervals(rat(1, 4))
    bases = {a.values for a in coherence_checks}
    assert len(coherence_checks) == len(bases) == 25


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.coh")]) == 2
    bad = tmp_path / "b.coh"
    bad.write_text("atoms A\nevent e = A &\n")
    assert main(["check", str(bad)]) == 2
    empty = tmp_path / "e.coh"
    empty.write_text("atoms A\nevent e = A\n")
    assert main(["check", str(empty)]) == 2
    single = tmp_path / "s.coh"
    single.write_text("atoms A\nevent e = A\nassess e = 1/2\n")
    assert main(["bounds", str(single), "--op", "K", "--kind", "and"]) == 2
    assert main(["tables", "--step", "1/3"]) == 2
    capsys.readouterr()


def test_non_ascii_digits_exit_two_with_line_number(tmp_path, capsys):
    # "²" passes str.isdigit, but int() rejects it
    bad = tmp_path / "sup.coh"
    bad.write_text("atoms A\nevent e = A\nassess e = ²\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_non_utf8_input_exits_two_with_line_number(tmp_path, capsys):
    bad = tmp_path / "latin.coh"
    bad.write_bytes(b"atoms A\nevent e = \xff\nassess e = 1/2\n")
    assert main(["check", str(bad)]) == 2
    assert "line 2:" in capsys.readouterr().err


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_keeps_no_state():
    # one parser serves every call in a process; each call must give what
    # a freshly built parser gives
    triple = str(DATA / "additive_triple.coh")
    runs = [
        ["check", triple],
        ["bounds", str(DATA / "free_pair.coh"), "--op", "K", "--kind", "and"],
        ["dutchbook", triple],
        ["entails", str(DATA / "chain_entail.coh")],
        ["bounds", triple, "--op", "X", "--kind", "and"],
        ["check", triple],
    ]
    shared = [run_captured(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cohkit.cli._parser.cache_clear()
        fresh.append(run_captured(argv))
    assert shared == fresh
    assert [code for code, _out, _err in shared] == [1, 0, 1, 0, 2, 1]
    assert "invalid choice" in shared[4][2]


@pytest.mark.parametrize("step", ["1/0", "1/2/3"])
def test_tables_rejects_malformed_step(step, capsys):
    assert main(["tables", "--step", step]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_tables_quarter_grid_matches_golden():
    code, text = run_cli("tables", "--step", "1/4")
    assert code == 0
    normalized = re.sub(r"^kernel: .*$", "kernel: (normalized)", text, flags=re.M)
    golden = (GOLDEN / "tables_quarter.txt").read_text()
    assert normalized == golden


# every command on every file in tests/data, byte for byte: exit code,
# stdout and stderr, one section per run in tests/golden/cli/<file>.txt
GOLDEN_ARGS = [("check",), ("dutchbook",), ("entails",)] + [
    ("bounds", "--op", op, "--kind", kind)
    for op in ("K", "L", "B", "S", "gs")
    for kind in ("and", "or")
]
GOLDEN_RUNS = [
    [command, path.name, *options]
    for path in sorted(DATA.glob("*.coh"))
    for command, *options in GOLDEN_ARGS
]


def _in_data(argv):
    command, name, *options = argv
    return [command, str(DATA / name), *options]


def _transcript(argv, code, out, err):
    return f"$ cohkit {' '.join(argv)}\nexit: {code}\n--- stdout\n{out}--- stderr\n{err}"


def _golden(argv):
    """The section of argv's run in its file's golden transcript."""
    header = f"$ cohkit {' '.join(argv)}\n"
    text = (GOLDEN / "cli" / Path(argv[1]).with_suffix(".txt")).read_bytes().decode()
    sections = re.split(r"^(?=\$ cohkit )", text, flags=re.M)
    return next(section for section in sections if section.startswith(header))


@pytest.mark.parametrize(
    "argv",
    [argv for argv in GOLDEN_RUNS if argv != ["entails", "and_rule_12.coh"]],
    ids=lambda argv: "-".join([argv[1], argv[0], *argv[3::2]]),
)
def test_cli_output_matches_golden(argv):
    code, out, err = run_captured(_in_data(argv))
    assert _transcript(argv, code, out, err) == _golden(argv)


def test_family_cap_env(tmp_path, capsys):
    # the base family of an extension, here the premises of entails, is
    # capped at a fixed 12 members: 13 p-consistent premises exit 2
    atoms = "ABCD"
    subsets = [
        " & ".join(chosen)
        for size in range(1, 5)
        for chosen in itertools.combinations(atoms, size)
    ]
    lines = ["atoms " + " ".join(atoms)]
    lines += [f"event p{i} = {formula}" for i, formula in enumerate(subsets[:13])]
    lines += [f"assess p{i} = 1" for i in range(13)]
    lines += ["event all = A & B & C & D", "target all"]
    path = tmp_path / "thirteen.coh"
    path.write_text("\n".join(lines) + "\n")
    assert main(["entails", str(path)]) == 2
    assert "exceeds the cap 12" in capsys.readouterr().err
