"""Worlds, constituents, member patterns and compound values from world
bitsets, against the per-world scans kept in oracles.py."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cohkit.coherence import MemberTable, world_levels
from cohkit.compound import _compound_levels
from cohkit.events import (
    And,
    Atom,
    BOTTOM,
    EmptyConditioningError,
    EmptyUniverseError,
    Not,
    Or,
    TOP,
    Universe,
    _cube_atom_sets,
)
from cohkit.rationals import rat
from cohkit.trivalent import ConditionalEvent

from oracles import SIG_FALSE, SIG_TRUE, SIG_VOID, compound_world_values, constituent_signatures
from oracles import cube_atom_sets, expand, formula_bits, subfamily_patterns, world_filter

NAMES = ("A", "B", "C", "D", "E", "F")


def formulas(atoms):
    return st.recursive(
        st.sampled_from([Atom(a) for a in atoms]) | st.sampled_from([TOP, BOTTOM]),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
        ),
        max_leaves=8,
    )


@st.composite
def settings_on_atoms(draw):
    """Atoms, constraints, a family of conditional events and one more
    formula, all over 1-6 atoms."""
    atoms = NAMES[: draw(st.integers(1, 6))]
    fs = formulas(atoms)
    constraints = draw(st.lists(st.tuples(fs, st.booleans()), max_size=2))
    family = draw(st.lists(st.builds(ConditionalEvent, fs, fs), min_size=1, max_size=4))
    return atoms, constraints, family, draw(fs)


@settings(max_examples=80, deadline=None)
@given(settings_on_atoms(), st.randoms(use_true_random=False))
def test_bitsets_agree_with_per_world_scans(setting, rng):
    atoms, constraints, family, formula = setting
    worlds, atom_sets = world_filter(atoms, constraints)
    try:
        u = Universe(atoms, constraints)
    except EmptyUniverseError:
        assert not worlds
        return
    assert u.worlds == worlds
    assert u._atom_sets == atom_sets
    assert u.world_set(formula) == formula_bits(formula, u)

    try:
        levels = MemberTable([world_levels(ce, u) for ce in family], [0] * len(family), len(u))
    except EmptyConditioningError:
        assert not all(u.satisfiable(ce.antecedent) for ce in family)
        return
    # the full family's patterns are its constituents C_1 .. C_m in order
    entry = {SIG_TRUE: 1, SIG_FALSE: 0, SIG_VOID: None}
    assert list(levels.patterns(tuple(range(len(family))))) == [
        tuple(entry[code] for code in sig) for sig in constituent_signatures(family, u)
    ]
    members = [expand(world_levels(ce, u), len(u)) for ce in family]
    for size in range(1, len(family) + 1):
        for subset in itertools.combinations(range(len(family)), size):
            assert list(levels.patterns(subset)) == subfamily_patterns(members, subset)

    # the subset compounds of the family, both connectives
    prevs = {
        frozenset(s): rat(rng.randint(0, 4), 4)
        for size in range(1, len(family) + 1)
        for s in itertools.combinations(range(len(family)), size)
    }
    for subset in prevs:
        for conjunction in (True, False):
            got = expand(_compound_levels(family, u, prevs, subset, conjunction), len(u))
            assert got == compound_world_values(family, u, prevs, subset, conjunction)


def test_patterns_follow_the_value_order():
    """patterns sorts by level rank as the per-world scan sorts by value:
    per member larger values first, void last, equal values merged."""
    rng = random.Random(7)
    for _ in range(200):
        num_worlds = rng.randint(1, 12)
        members = []
        for _member in range(rng.randint(1, 4)):
            # fresh objects, so equal values come from distinct ones
            pool = [Fraction(rng.randint(-3, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            members.append(
                tuple(
                    None if rng.random() < 0.25 else Fraction(rng.choice(pool))
                    for _ in range(num_worlds)
                )
            )
        # one level per world, equal values held by distinct objects
        levels = [[(v, 1 << pos) for pos, v in enumerate(m) if v is not None] for m in members]
        table = MemberTable(levels, [0] * len(members), num_worlds)
        for size in range(len(members) + 1):
            for subset in itertools.combinations(range(len(members)), size):
                assert list(table.patterns(subset)) == subfamily_patterns(members, subset)


def test_cube_doubling_matches_the_repunit_builder():
    for k in range(17):
        assert _cube_atom_sets(k) == cube_atom_sets(k), k
