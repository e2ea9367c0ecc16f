"""The LP entry points read a MemberTable's ints.

The engine hands the LPs its table's int form (every value over one
denominator) instead of rationals.  These tests hold that route to the
rational one (the same LPs on the decoded rational patterns, converted
once with integer_row) round by round, count the conversions and pivots
it makes, and check that a revalued table computes its own int form.
"""

import random
from pathlib import Path

import pytest

import cohkit.coherence as coherence
import cohkit.lp as lp
from cohkit.coherence import (
    Assessment,
    ExtensionProblem,
    MemberTable,
    _extension_interval,
    _gilio_check,
    check_coherence,
    world_levels,
)
from cohkit.compound import gs_and, gs_or
from cohkit.events import Atom, EventError, TOP, Universe
from cohkit.fileio import parse_assessment_file
from cohkit.rationals import ONE, ZERO, rat
from cohkit.tables import OPERATORS, build_target
from cohkit.trivalent import ConditionalEvent

from oracles import rational_range, target_program

DATA = Path(__file__).parent / "data"
GRID = (ZERO, ONE, rat(1, 2), rat(1, 3), rat(3, 4))
FAMILIES = 60


def _load(name):
    doc = parse_assessment_file((DATA / name).read_text(encoding="utf-8"))
    return Assessment.build(doc.assessed_events(), doc.assessed_values()), doc.universe


# -- the table route against the rational route -------------------------------

def _formula(rng, names):
    """A literal, or two literals joined by & or |, as in coherent_wide.coh."""
    def literal():
        atom = Atom(rng.choice(names))
        return atom if rng.random() < 0.5 else ~atom

    f = literal()
    if rng.random() < 0.6:
        f = f & literal() if rng.random() < 0.5 else f | literal()
    return f


def _event(rng, names, universe):
    """A conditional event and its levels; the antecedent is TOP for
    some draws, and never empty."""
    while True:
        ante = TOP if rng.random() < 0.4 else _formula(rng, names)
        ce = ConditionalEvent(_formula(rng, names), ante)
        try:
            return ce, world_levels(ce, universe)
        except EventError:
            continue


def _prevision(levels, masses, rng):
    """The expectation of disjoint levels given their union, or a grid
    value where the union has zero mass."""
    num = den = ZERO
    for value, bits in levels:
        for pos in range(len(masses)):
            if bits >> pos & 1:
                num += masses[pos] * value
                den += masses[pos]
    return num / den if den else rng.choice(GRID)


def _wide_family(rng):
    """Levels and values of 4-7 conditional events over 5-6 atoms, each
    valued by one world distribution, and for some draws a compound
    conjunction or disjunction of two of them, whose levels carry their
    rational values; one value re-drawn from the grid for half the
    draws.  Also the universe and the events."""
    names = "ABCDEF"[: rng.randint(5, 6)]
    universe = Universe(names)
    # positive on every world, or on a few only, so that antecedents of
    # zero mass occur
    masses = [rat(rng.randint(1, 9)) for _ in range(len(universe))]
    if rng.random() < 0.5:
        support = set(rng.sample(range(len(universe)), rng.randint(1, 6)))
        masses = [m if pos in support else ZERO for pos, m in enumerate(masses)]
    events, levels = [], []
    for _ in range(rng.randint(4, 7)):
        ce, member = _event(rng, names, universe)
        events.append(ce)
        levels.append(member)
    values = [_prevision(member, masses, rng) for member in levels]
    if rng.random() < 0.4:
        i, j = rng.sample(range(len(events)), 2)
        build = gs_and if rng.random() < 0.5 else gs_or
        quantity = build(events[i], events[j], values[i], values[j], universe, check=False)
        levels.append(quantity.numeric_levels(universe))
        values.append(_prevision(levels[-1], masses, rng))
    if rng.random() < 0.5:
        values[rng.randrange(len(values))] = rng.choice(GRID)
    return universe, events, levels, values


def _decoded(table, subset, ranks):
    """The value patterns of a selection of the subfamily's rank patterns."""
    lookup = dict(zip(table.rank_patterns(subset), table.patterns(subset)))
    return [lookup[pattern] for pattern in ranks]


@pytest.fixture
def compared(monkeypatch):
    """Hold every subfamily_hull and every extension range the engine
    computes to the int cores on the table's decoded rational patterns,
    converted once with integer_row; counts them."""
    seen = {"hulls": 0, "ranges": 0}
    hull = MemberTable.subfamily_hull
    program = coherence._target_program

    def checked_hull(table, subset, ranks=None):
        outcome = hull(table, subset, ranks)
        if ranks is None:
            ranks = table.rank_patterns(subset)
        patterns = _decoded(table, subset, ranks)
        effective = [[k for k, e in enumerate(p) if e is not None] for p in patterns]
        values = [table.values[i] for i in subset]
        query = lp._hull_input(table.hull_rows(subset, patterns), values)
        assert outcome == lp.hull_zero_mass_ints(query, effective)
        seen["hulls"] += 1
        return outcome

    def checked_program(table, subset, ranks):
        ints = program(table, subset, ranks)
        target = len(table.members) - 1
        patterns = _decoded(table, subset + (target,), ranks)
        rational = target_program(patterns, [table.values[i] for i in subset])
        assert lp.linear_range_ints(*ints) == rational_range(*rational)
        seen["ranges"] += 1
        return ints

    monkeypatch.setattr(MemberTable, "subfamily_hull", checked_hull)
    monkeypatch.setattr(coherence, "_target_program", checked_program)
    return seen


def test_table_route_matches_rational_front_doors(compared):
    rng = random.Random(20261018)
    drawn = {"coherent": 0, "incoherent": 0, "deep": 0, "rational levels": 0, "deep extension": 0}
    for _ in range(FAMILIES):
        universe, events, levels, values = _wide_family(rng)
        table = MemberTable(levels, values, len(universe))
        verdict = _gilio_check(table)
        drawn["coherent" if verdict.coherent else "incoherent"] += 1
        drawn["deep"] += len(verdict.rounds) > 1
        drawn["rational levels"] += any(
            v.denominator != 1 for member in table.members for v, _bits in member
        )
        if not verdict.coherent:
            continue
        i, j = rng.sample(range(len(events)), 2)
        quantity = gs_and(events[i], events[j], values[i], values[j], universe, check=False)
        targets = [_event(rng, "ABCDE", universe)[1], quantity.numeric_levels(universe)]
        for target_levels in targets:
            bounds = _extension_interval(table.extended(target_levels, ZERO))
            drawn["deep extension"] += len(bounds.rounds) > 1
    assert min(drawn.values()) >= 3, drawn
    assert compared["hulls"] > FAMILIES and compared["ranges"] > FAMILIES, compared


# -- work counts -------------------------------------------------------------------

@pytest.fixture
def work(monkeypatch):
    """Counts of integer_row calls, where lp and coherence look it up,
    and of pivots."""
    counts = {"integer_row": 0, "pivots": 0}
    for module in (lp, coherence):
        original = module.integer_row

        def counted(values, _original=original):
            counts["integer_row"] += 1
            return _original(values)

        monkeypatch.setattr(module, "integer_row", counted)
    pivot = lp._pivot

    def counted_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    monkeypatch.setattr(lp, "_pivot", counted_pivot)
    return counts


def test_check_converts_its_table_once(work):
    assessment, universe = _load("coherent_wide.coh")
    assert check_coherence(assessment, universe).coherent
    # the table's int form is the one conversion; the pivots are the
    # ones the rational route made
    assert work["integer_row"] <= 1
    assert work["pivots"] == 34


# pivots of ExtensionProblem.bounds on free_pair.coh, made alike by the
# rational route
BOUNDS_PIVOTS = {
    ("and", "K"): 13, ("and", "L"): 13, ("and", "B"): 21, ("and", "S"): 12, ("and", "gs"): 10,
    ("or", "K"): 12, ("or", "L"): 12, ("or", "B"): 20, ("or", "S"): 12, ("or", "gs"): 10,
}


@pytest.mark.parametrize("connective, logic", OPERATORS)
def test_bounds_convert_at_most_twice(work, connective, logic):
    assessment, universe = _load("free_pair.coh")
    verdict = check_coherence(assessment, universe)
    target = build_target(connective, logic, *assessment.family, *assessment.values, universe)
    work.update(integer_row=0, pivots=0)
    ExtensionProblem(verdict, target).bounds()
    assert work["integer_row"] <= 2
    assert work["pivots"] == BOUNDS_PIVOTS[connective, logic]


# -- revalued twins ------------------------------------------------------------------

def test_revalued_twins_match_fresh_checks():
    # each twin computes its own int form: the table's, at the target's
    # placeholder value 0, must not leak into a twin at another value
    assessment, universe = _load("free_pair.coh")
    ah, bk = assessment.family
    target = ConditionalEvent(Atom("A") & Atom("B"), Atom("H") | Atom("K"))
    problem = ExtensionProblem(check_coherence(assessment, universe), target)
    problem.table.int_form()
    for t in (ZERO, rat(1, 2), ONE):
        fresh = Assessment.build([ah, bk, target], list(assessment.values) + [t])
        assert problem.coherent_at(t) == check_coherence(fresh, universe).coherent
