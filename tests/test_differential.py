"""Gilio's iterative check against the all-subfamily oracle.

Seeded random families over 3-5 atoms, some with constraints: plain
conditional events and generalized members from the compound
conjunction, all given as (value, world bitset) levels, valued on a
grid that includes 0 and 1 or through a world distribution with zero
masses (so antecedents of zero probability occur), sometimes perturbed
into incoherence.  incoherent_event_families
draws plain conditional-event families the same way, for the witness
tests in test_coherence.py.
"""

import random

from cohkit.coherence import Assessment, MemberTable, _gilio_check, check_coherence, world_levels
from cohkit.compound import _compound_levels
from cohkit.events import Atom, EventError, TOP, Universe
from cohkit.rationals import ONE, ZERO, rat
from cohkit.trivalent import ConditionalEvent

from oracles import all_subfamily_check, expand, subfamily_points

NAMES = "ABCDE"
GRID = (ZERO, ONE, rat(1, 2), rat(1, 3), rat(3, 4))
FAMILIES = 320


def _literal(rng, names):
    atom = Atom(rng.choice(names))
    return atom if rng.random() < 0.5 else ~atom


def _formula(rng, names):
    f = _literal(rng, names)
    if rng.random() < 0.5:
        g = _literal(rng, names)
        f = f & g if rng.random() < 0.6 else f | g
    return f


def _universe(rng):
    names = NAMES[: rng.randint(3, 5)]
    while True:
        constraints = []
        if rng.random() < 0.4:
            for _ in range(rng.randint(1, 2)):
                constraints.append((_literal(rng, names) & _literal(rng, names), False))
        try:
            return names, Universe(names, constraints)
        except EventError:
            continue


def _event(rng, names, universe):
    while True:
        ante = TOP if rng.random() < 0.3 else _formula(rng, names)
        ce = ConditionalEvent(_formula(rng, names), ante)
        try:
            return ce, world_levels(ce, universe)
        except EventError:
            continue


def _distribution(rng, universe):
    masses = [rat(rng.randint(1, 4)) if rng.random() < 0.5 else ZERO for _ in range(len(universe))]
    if not any(masses):
        masses[rng.randrange(len(masses))] = ONE
    total = sum(masses, ZERO)
    return [m / total for m in masses]


def _prevision(member, masses):
    """Conditional expectation of a member's levels under the
    distribution, None on a zero-mass antecedent."""
    num = den = ZERO
    for value, m in zip(expand(member, len(masses)), masses):
        if value is not None:
            num += m * value
            den += m
    return num / den if den else None


def _compound_members(rng, names, universe, masses):
    """The subset conjunctions of two conditionals, as generalized
    members, with their previsions (from the distribution where it can
    give them, else from the grid)."""
    family = [_event(rng, names, universe)[0] for _ in range(2)]
    prevs = {}
    members = []
    for subset in (frozenset([0]), frozenset([1]), frozenset([0, 1])):
        member = _compound_levels(family, universe, prevs, subset, True)
        value = _prevision(member, masses) if masses is not None else None
        prevs[subset] = rng.choice(GRID) if value is None else value
        members.append(member)
    return members, [prevs[s] for s in (frozenset([0]), frozenset([1]), frozenset([0, 1]))]


def random_setting(rng):
    """Atom names, universe, members and values of one random family, and
    whether its first three members are the compound conjunction system
    of two conditionals."""
    names, universe = _universe(rng)
    masses = _distribution(rng, universe) if rng.random() < 0.6 else None
    members, values = [], []
    compound = rng.random() < 0.25
    if compound:
        members, values = _compound_members(rng, names, universe, masses)
    _add_events(rng, names, universe, masses, rng.randint(2, 5) - len(members) // 2, members, values)
    return names, universe, members, values, compound


def _add_events(rng, names, universe, masses, count, members, values):
    """Append count random conditional events (their levels) and
    their values to members and values, perturbing one value when there is
    no distribution, and sometimes when there is; returns the events."""
    events = []
    for _ in range(count):
        ce, member = _event(rng, names, universe)
        value = _prevision(member, masses) if masses is not None else None
        events.append(ce)
        members.append(member)
        values.append(rng.choice(GRID) if value is None else value)
    if masses is None or rng.random() < 0.4:
        values[rng.randrange(len(values))] = rng.choice(GRID)
    return events


def incoherent_event_families(seed, count):
    """count incoherent assessments of 2-5 plain conditional events, as
    (universe, Assessment) pairs, drawn as random_setting draws its
    families."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        names, universe = _universe(rng)
        masses = _distribution(rng, universe) if rng.random() < 0.6 else None
        values = []
        family = _add_events(rng, names, universe, masses, rng.randint(2, 5), [], values)
        assessment = Assessment.build(family, values)
        if not check_coherence(assessment, universe).coherent:
            found.append((universe, assessment))
    return found


def _check_witness(members, values, verdict):
    n = len(members)
    if verdict.coherent:
        points = subfamily_points(members, values, tuple(range(n)))
        weights = verdict.weights
        assert len(weights) == len(points) and all(w >= 0 for w in weights)
        assert sum(weights, ZERO) == 1
        for i in range(n):
            assert sum((w * q[i] for w, q in zip(weights, points)), ZERO) == values[i]
        return
    subset, stakes = verdict.failing_subfamily, verdict.stakes
    assert subset and len(stakes) == len(subset) and all(s != 0 for s in stakes)
    constituents = 0
    for pos in range(len(members[0])):
        effective = [(s, members[i][pos], values[i]) for s, i in zip(stakes, subset)]
        effective = [(s, v, p) for s, v, p in effective if v is not None]
        if not effective:
            continue
        constituents += 1
        assert sum((s * (v - p) for s, v, p in effective), ZERO) > 0
    assert constituents > 0


def test_gilio_agrees_with_all_subfamily_oracle():
    rng = random.Random(20000124)
    counts = {"coherent": 0, "incoherent": 0, "deep": 0, "late": 0}
    for _ in range(FAMILIES):
        _names, universe, members, values, _compound = random_setting(rng)
        verdict = _gilio_check(MemberTable(members, values, len(universe)))
        members = [expand(member, len(universe)) for member in members]
        coherent, _subset, _separator = all_subfamily_check(members, values)
        assert verdict.coherent == coherent, (members, values)
        _check_witness(members, values, verdict)
        assert verdict.rounds[0] == tuple(range(len(members)))
        counts["coherent" if coherent else "incoherent"] += 1
        if len(verdict.rounds) > 1:
            counts["deep" if coherent else "late"] += 1
    # the draw exercises both verdicts and zero-antecedent rounds of both
    assert min(counts.values()) >= 10, counts
