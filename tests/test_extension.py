"""Exact coherent-extension endpoints against the bisection oracle.

Bases and targets come from the differential generators: plain
conditional events and compound conjunctions over 3-5 atoms, some with
constraints and zero-mass antecedents.  Every exact endpoint must be
coherent by the all-subfamily check and lie inside the oracle's
brackets.
"""

import random

import pytest

import cohkit.lp as lp
from cohkit.coherence import (
    Assessment,
    MemberTable,
    _extension_interval,
    _gilio_check,
    extension_bounds,
)
from cohkit.events import Atom, TOP, Universe
from cohkit.rationals import ZERO, integer_row, rat
from cohkit.tables import build_target
from cohkit.trivalent import ConditionalEvent, free_universe

from oracles import bisection_brackets, expand, extension_oracle, rational_range
from test_differential import _event, random_setting

BASES = 300
TOLERANCE = rat(1, 2**6)
A, B, H, K = (Atom(name) for name in "ABHK")


def _extension_case(rng):
    """A coherent base and a target member, as levels, and the number of
    worlds: the target is a fresh conditional event, a copy of a base
    member, or the compound conjunction of the first two members when
    the family has one."""
    while True:
        names, universe, members, values, compound = random_setting(rng)
        draw = rng.random()
        if compound and draw < 0.5:
            # a compound member: its levels read only the previsions of
            # the first two members, which stay in the base
            target = members.pop(2)
            values.pop(2)
        elif draw < 0.15:
            target = members[rng.randrange(len(members))]
        else:
            target = _event(rng, names, universe)[1]
        # the oracle's cost doubles with each member, so bases stop at 5
        width = len(universe)
        if 0 < len(members) <= 5 and _gilio_check(MemberTable(members, values, width)).coherent:
            return members, values, target, width


def test_exact_endpoints_inside_bisection_brackets():
    rng = random.Random(20000125)
    deep = 0
    for _ in range(BASES):
        members, values, target, width = _extension_case(rng)
        bounds = _extension_interval(MemberTable(members + [target], values + [ZERO], width))
        members = [expand(member, width) for member in members]
        target = expand(target, width)
        case = (members, values, target, bounds)
        coherent_at = extension_oracle(members, values, target)
        assert coherent_at(bounds.lower) and coherent_at(bounds.upper), case
        seed = (bounds.lower + bounds.upper) / 2
        lower, upper = bisection_brackets(coherent_at, seed, TOLERANCE)
        assert lower[0] <= bounds.lower <= lower[1], case
        assert upper[0] <= bounds.upper <= upper[1], case
        deep += len(bounds.rounds) > 1
    # the draw reaches past the first round (zero-mass target-void hulls)
    assert deep >= 10, deep


@pytest.mark.parametrize(
    "y, z",
    [(rat(3, 5), rat(1, 5)), (rat(7, 10), rat(1, 2)), (rat(5, 6), rat(1, 3)), (rat(3, 7), rat(2, 7))],
)
def test_ratio_forced_bases(y, z):
    # H = y and A & H = z force A|H to the non-dyadic z / y
    u = Universe(["A", "H"])
    base = Assessment.build([ConditionalEvent(H, TOP), ConditionalEvent(A & H, TOP)], [y, z])
    bounds = extension_bounds(base, ConditionalEvent(A, H), u)
    assert (bounds.lower, bounds.upper) == (z / y, z / y)


@pytest.mark.parametrize(
    "x, y, target, rounds, lower, upper",
    [
        # no target-void pattern on the whole base
        (0, 0, "S-or", ((0, 1),), 0, 0),
        # none on the one zero-mass member either, in round 2
        (0, 0, "H|K", ((0, 1), (1,)), 0, 1),
        # no base member at zero mass: a last round on the empty subset
        (0, 0, "B-and", ((0, 1), ()), 0, 1),
        # the base outside its target-void hull, in round 1 and round 2
        (0, 0, "K-and", ((0, 1),), 0, 0),
        (0, 1, "K-and", ((0, 1), (0,)), 0, 0),
    ],
)
def test_extension_round_sequences(x, y, target, rounds, lower, upper):
    # the rounds are Gilio's on the target-void patterns, from A|H, B|K
    u = free_universe()
    ah, bk = ConditionalEvent(A, H), ConditionalEvent(B, K)
    if target == "H|K":
        target = ConditionalEvent(H, K)
    else:
        logic, connective = target.split("-")
        target = build_target(connective, logic, ah, bk, x, y, u)
    bounds = extension_bounds(Assessment.build([ah, bk], [x, y]), target, u)
    assert (bounds.rounds, bounds.lower, bounds.upper) == (rounds, lower, upper)


def _corrupt_duals(monkeypatch, corrupt):
    """Apply corrupt, a map of rational dual vectors, to the duals the
    engine computes as ints Y over a denominator L: to the rationals
    Y / L, brought back to ints over their lcm."""
    original = lp._basis_duals

    def corrupted(cols, basis, costs):
        ints, scale = original(cols, basis, costs)
        return integer_row(corrupt([rat(v, scale) for v in ints]))

    monkeypatch.setattr(lp, "_basis_duals", corrupted)


def test_corrupted_dual_value_raises(monkeypatch):
    # lowering the normalisation row's dual keeps y dual feasible (that
    # row's entries are 0 or 1) but takes y.b below c.x
    _corrupt_duals(monkeypatch, lambda y: y[:-1] + [y[-1] - rat(1, 97)])
    u = Universe(["A", "H"])
    base = Assessment.build([ConditionalEvent(H, TOP)], [rat(1, 2)])
    with pytest.raises(lp.LPInternalError, match="values differ"):
        extension_bounds(base, ConditionalEvent(A, H), u)


def test_corrupted_dual_feasibility_raises(monkeypatch):
    # on the segment [0, 1] at 1/2 the minimum's duals are y = (1, 0);
    # (1 + d, -d/2) keeps y.b = 1/2 but prices the point 1 above its cost
    _corrupt_duals(monkeypatch, lambda y: [y[0] + rat(1, 5), y[1] - rat(1, 10)])
    with pytest.raises(lp.LPInternalError, match="dual feasibility"):
        rational_range([(0, 1), (1, 1)], (rat(1, 2), 1), [0, 1])
