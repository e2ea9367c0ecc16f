"""Gilio rounds decided without an LP, against the LP route.

A round whose members are all assessed at the top or bottom of their
levels has a closed form (MemberTable.subfamily_hull, _extreme_round):
weight only on the free patterns, where no member takes another
non-void level.  Seeded families whose every value is 0 or 1 exercise
it: conditional events over 3-5 atoms, some constrained, drawn as
test_differential draws them, and for some draws the gs_and or gs_or
quantity of two of them at its top or bottom level.  The rounds are
held to hull_zero_mass_ints on the same query, the verdicts to the
all-subfamily oracle, and every Dutch book to its positive-gain check.
"""

import random
from pathlib import Path

import pytest

from cohkit.coherence import (
    Assessment,
    MemberTable,
    _checked_certificate,
    _checked_outside,
    _gilio_check,
    check_coherence,
    dutch_book,
)
from cohkit.compound import gs_and, gs_or
from cohkit.fileio import parse_assessment_file
from cohkit.lp import HullOutside, HullZeroMass, LPInternalError
from cohkit.rationals import ONE, ZERO, rat

from oracles import all_subfamily_check, check_round_against_lp, expand
from test_differential import GRID, _check_witness, _event, _universe

FAMILIES = 160
NUDGE = rat(1, 10**9)


def _extreme_family(rng):
    """Universe, events, levels and 0/1 values of 2-6 conditional
    events, and for some draws one more member: the gs_and or gs_or
    quantity of two of them, at operand values from the grid, assessed
    at its largest or smallest level."""
    names, universe = _universe(rng)
    events, levels = [], []
    for _ in range(rng.randint(2, 6)):
        ce, member = _event(rng, names, universe)
        events.append(ce)
        levels.append(member)
    values = [rng.choice((ZERO, ONE)) for _ in events]
    if rng.random() < 0.4:
        i, j = rng.sample(range(len(events)), 2)
        build = gs_and if rng.random() < 0.5 else gs_or
        x, y = rng.choice(GRID), rng.choice(GRID)
        member = build(events[i], events[j], x, y, universe, check=False).numeric_levels(universe)
        present = [value for value, bits in member if bits]
        levels.append(member)
        values.append(rng.choice((max(present), min(present))))
    return universe, events, levels, values


def test_closed_form_rounds_match_the_lp_route():
    rng = random.Random(20261020)
    counts = {"coherent": 0, "incoherent": 0, "deep": 0, "compound": 0}
    counts.update({"closed form": 0, "certified": 0, "outside": 0})
    for _ in range(FAMILIES):
        universe, events, levels, values = _extreme_family(rng)
        table = MemberTable(levels, values, len(universe))
        verdict = _gilio_check(table)
        for subset in verdict.rounds:
            # an event that is never false (or never true) given its
            # antecedent, assessed at 0 (or 1), has that value at no
            # level, and its rounds go to the LP
            if table._extreme_signs(subset) is None:
                continue
            ranks = table.rank_patterns(subset)
            outcome = table.subfamily_hull(subset, ranks)
            check_round_against_lp(table, subset, ranks, outcome)
            counts["closed form"] += 1
            counts["certified"] += isinstance(outcome, HullZeroMass) and bool(outcome.zero_mass)
            counts["outside"] += isinstance(outcome, HullOutside)
        members = [expand(member, len(universe)) for member in levels]
        coherent, _subset, _separator = all_subfamily_check(members, values)
        assert verdict.coherent == coherent, (members, values)
        _check_witness(members, values, verdict)
        counts["coherent" if coherent else "incoherent"] += 1
        counts["deep"] += len(verdict.rounds) > 1
        counts["compound"] += len(levels) > len(events)
        if len(levels) == len(events):
            book = dutch_book(check_coherence(Assessment.build(events, values), universe))
            assert (book is None) == coherent
    assert min(counts.values()) >= 10, counts


# -- the checks reject witnesses nudged by 1/10^9 -------------------------------------

def _p_inconsistent_table():
    """The table of tests/data/p_inconsistent.coh: A|H, ~A|H and B, all
    at 1."""
    path = Path(__file__).parent / "data" / "p_inconsistent.coh"
    doc = parse_assessment_file(path.read_text(encoding="utf-8"))
    assessment = Assessment.build(doc.assessed_events(), doc.assessed_values())
    return check_coherence(assessment, doc.universe)._table


def _round(table, subset):
    """The round's outcome, with its int points, target and D."""
    ranks = table.rank_patterns(subset)
    _levels, values, scale = table.int_form()
    p = [values[i] for i in subset]
    return table.subfamily_hull(subset, ranks), table._points(subset, ranks), p, scale


def test_closed_form_witnesses_of_p_inconsistent():
    table = _p_inconsistent_table()
    # round 1: the free patterns have H false and B true, so A|H and
    # ~A|H have zero mass; y = 2 s (s = -1 on each member at 1) covers
    # both where H holds and B does
    outcome, _points, _p, _scale = _round(table, (0, 1, 2))
    assert outcome.zero_mass == (0, 1)
    assert outcome.certificate == ((-2, -2, -2), 6)
    # round 2: where H holds, A|H or ~A|H is false
    outcome, _points, _p, _scale = _round(table, (0, 1))
    assert outcome == HullOutside((-1, -1), 1)


def test_checked_certificate_rejects_nudged_certificates():
    table = _p_inconsistent_table()
    outcome, points, p, scale = _round(table, (0, 1, 2))
    zero_mass = set(outcome.zero_mass)
    counts = [
        sum(1 for k, rank in enumerate(pattern) if k in zero_mass and rank != len(table.members[k]))
        for pattern in table.rank_patterns((0, 1, 2))
    ]
    (y1, y2, y3), y0 = outcome.certificate
    _checked_certificate(((y1, y2, y3), y0), points, p, scale, counts)
    with pytest.raises(LPInternalError, match="not zero at the target"):
        _checked_certificate(((y1, y2, y3), y0 + NUDGE), points, p, scale, counts)
    # y.p + y0 stays 0, but y.q + y0 drops below 2 where ~A|H and B hold
    with pytest.raises(LPInternalError, match="fails a constituent"):
        _checked_certificate(((y1 + NUDGE, y2, y3), y0 - NUDGE), points, p, scale, counts)


def test_checked_outside_rejects_nudged_separators():
    table = _p_inconsistent_table()
    outcome, points, p, scale = _round(table, (0, 1))
    (s1, s2), margin = outcome.separator, outcome.margin
    _checked_outside(outcome, points, p, scale)
    with pytest.raises(LPInternalError, match="not normalized"):
        _checked_outside(HullOutside((s1 + NUDGE, s2 + NUDGE), margin), points, p, scale)
    # a stake on ~A|H of the wrong sign loses NUDGE where ~A|H is false
    with pytest.raises(LPInternalError, match="strictness"):
        _checked_outside(HullOutside((s1, NUDGE), margin), points, p, scale)
    with pytest.raises(LPInternalError, match="least gain"):
        _checked_outside(HullOutside((s1, s2), margin + NUDGE), points, p, scale)
