"""Command-line front end.

Commands: check, bounds, tables, dutchbook, entails.  Exit codes: 0 when
the assessment is coherent or the property holds, 1 when incoherent or
failing (with a witness in the report), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .coherence import (
    Assessment,
    CoherenceError,
    ExtensionProblem,
    brier_dominator,
    check_coherence,
    dutch_book,
)
from .compound import CompoundError, entailment_problem, p_entails, p_entails_absorption
from .events import EventError
from .fileio import FileFormatError, parse_assessment_file
from .lp import kernel_name
from .rationals import rat
from .report import Report, render
from .tables import (
    GRID_STEPS,
    LOGICS,
    PROPERTY_ROWS,
    build_target,
    compute_intervals,
    compute_star_table,
    operator_name,
)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FileFormatError(0, f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise FileFormatError(line, f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_assessment_file(text)


def _family_section(report: Report, doc) -> Assessment:
    names = doc.assessed
    if not names:
        raise FileFormatError(0, "no assessed events")
    assessment = Assessment.build(doc.assessed_events(), doc.assessed_values())
    section = report.section("family")
    section.add("size", len(names))
    for i, name in enumerate(names):
        ce = doc.events[name]
        section.add(f"member {i + 1}", f"{name} = {ce}")
        section.add(f"value {i + 1}", doc.values[name])
    return assessment


def _gains_section(report: Report, book) -> None:
    gains = report.section("gains")
    for index, gain in book.gains:
        gains.add(f"C{index}", gain)


def cmd_check(args) -> int:
    doc = _load(args.file)
    report = Report().add("command", "check")
    assessment = _family_section(report, doc)
    verdict = check_coherence(assessment, doc.universe)
    report.add("verdict", "coherent" if verdict.coherent else "incoherent")
    if verdict.coherent:
        report.add("hull-weights", list(verdict.weights))
        print(render(report), end="")
        return 0
    report.add("failing-subfamily", [i + 1 for i in verdict.failing_subfamily])
    book = dutch_book(verdict)
    report.add("stakes", list(book.stakes))
    _gains_section(report, book)
    report.add("margin", book.margin)
    dominator = brier_dominator(verdict)
    report.add("brier-dominator", list(dominator))
    print(render(report), end="")
    return 1


def cmd_dutchbook(args) -> int:
    doc = _load(args.file)
    report = Report().add("command", "dutchbook")
    assessment = _family_section(report, doc)
    book = dutch_book(check_coherence(assessment, doc.universe))
    if book is None:
        report.add("verdict", "coherent")
        report.add("dutch-book", "none")
        print(render(report), end="")
        return 0
    report.add("verdict", "incoherent")
    report.add("subfamily", [i + 1 for i in book.subfamily])
    report.add("stakes", list(book.stakes))
    report.add("margin", book.margin)
    _gains_section(report, book)
    print(render(report), end="")
    return 1


def cmd_bounds(args) -> int:
    doc = _load(args.file)
    report = Report().add("command", "bounds")
    report.add("operator", operator_name(args.kind, args.op))
    assessment = _family_section(report, doc)
    if len(assessment.family) < 2:
        raise FileFormatError(0, "bounds needs two assessed events")
    ce1, ce2 = assessment.family[0], assessment.family[1]
    base = Assessment.build([ce1, ce2], assessment.values[:2])
    verdict = check_coherence(base, doc.universe)
    if not verdict.coherent:
        report.add("verdict", "incoherent-base")
        print(render(report), end="")
        return 1
    target = build_target(
        args.kind, args.op, ce1, ce2, base.values[0], base.values[1], doc.universe
    )
    bounds = ExtensionProblem(verdict, target).bounds()
    section = report.section("interval")
    section.add("lower", bounds.lower)
    section.add("upper", bounds.upper)
    print(render(report), end="")
    return 0


def cmd_tables(args) -> int:
    step = rat(args.step)
    if step not in GRID_STEPS:
        raise FileFormatError(0, "step must be one of 1/4, 1/10, 1/20")
    report = Report().add("command", "tables")
    report.add("grid-step", step)
    report.add("kernel", kernel_name())
    rows = compute_intervals(step)
    all_match = True
    intervals = report.section("intervals")
    for row in rows:
        section = intervals.section(operator_name(row.connective, row.logic))
        section.add("points", len(row.cells))
        gap = row.max_gap()
        all_match = all_match and gap == 0 and row.endpoints_confirmed
        section.add("matches-closed-form", gap == 0)
        section.add("max-gap", gap)
        section.add("closed-form-endpoints-confirmed", row.endpoints_confirmed)
        section.add("exact-cells", sum(1 for c in row.cells if c.exact_match()))
    star = compute_star_table(step, rows)
    properties = report.section("properties")
    for prop in PROPERTY_ROWS:
        prop_section = properties.section(prop)
        for logic in LOGICS:
            cell = star[(prop, logic)]
            prop_section.add(logic, "star" if cell.starred else "no-star")
            if not cell.starred and cell.counterexample:
                detail = prop_section.section(f"{logic}-counterexample")
                for key, value in cell.counterexample.items():
                    if isinstance(value, tuple):
                        detail.add(key, list(value))
                    elif isinstance(value, dict):
                        detail.add(key, ", ".join(f"{k}={v}" for k, v in value.items()))
                    else:
                        detail.add(key, value)
    print(render(report), end="")
    return 0 if all_match else 1


def cmd_entails(args) -> int:
    doc = _load(args.file)
    target_name = args.target or doc.target
    if not target_name:
        raise FileFormatError(0, "no target given (use --target or a target line)")
    if target_name not in doc.events:
        raise FileFormatError(0, f"target names undefined event {target_name!r}")
    report = Report().add("command", "entails")
    premises = [n for n in doc.assessed if n != target_name]
    if not premises:
        raise FileFormatError(0, "no premise events assessed")
    for name in premises:
        if doc.values[name] != 1:
            raise FileFormatError(0, f"premise {name!r} must be assessed at 1")
    report.add("premises", ", ".join(premises))
    report.add("target", target_name)
    family = [doc.events[n] for n in premises]
    target = doc.events[target_name]
    # p-consistency is the coherence of the all-ones assessment, which
    # both characterizations start from
    ones = Assessment.build(family, [rat(1)] * len(family))
    verdict = check_coherence(ones, doc.universe)
    report.add("p-consistent", verdict.coherent)
    if not verdict.coherent:
        print(render(report), end="")
        raise CompoundError("premise family is not p-consistent")
    # both characterizations read the coherent target values of one problem
    problem = entailment_problem(verdict, target)
    entails = p_entails(problem)
    absorption = p_entails_absorption(problem)
    report.add("p-entails", entails)
    report.add("absorption-check", absorption)
    report.add("characterizations-agree", entails == absorption)
    print(render(report), end="")
    return 0 if entails else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohkit",
        description="Coherence of conditional probability assessments, "
        "Dutch books, and compound-conditional tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide coherence of an assessment file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_bounds = sub.add_parser(
        "bounds", help="coherent-extension interval for a compound of the first two events"
    )
    p_bounds.add_argument("file")
    p_bounds.add_argument("--op", required=True, choices=LOGICS)
    p_bounds.add_argument("--kind", required=True, choices=("and", "or"))
    p_bounds.set_defaults(func=cmd_bounds)

    p_tables = sub.add_parser(
        "tables", help="regenerate the interval and property tables on a grid"
    )
    p_tables.add_argument("--step", default="1/10")
    p_tables.set_defaults(func=cmd_tables)

    p_book = sub.add_parser("dutchbook", help="construct a Dutch book when one exists")
    p_book.add_argument("file")
    p_book.set_defaults(func=cmd_dutchbook)

    p_entails_cmd = sub.add_parser(
        "entails", help="decide p-entailment of a target from unit-assessed premises"
    )
    p_entails_cmd.add_argument("file")
    p_entails_cmd.add_argument("--target")
    p_entails_cmd.set_defaults(func=cmd_entails)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileFormatError, EventError, CoherenceError, CompoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
