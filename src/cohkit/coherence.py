"""Coherence checking, Dutch books, penalty dominance, extension bounds.

An assessment attaches exact rational values to a family of conditional
events.  Coherence is decided geometrically by Gilio's iteration: the
value vector of the current subfamily J (at first the whole family) must
lie in the convex hull of J's constituent points, where a constituent
contributes the member's indicator value and void coordinates carry the
assessed value itself.  The members of J whose antecedent mass is zero
at every hull solution form the next subfamily; the check ends coherent
when there are none, and incoherent at the first subfamily outside its
hull.  That takes at most n rounds for n members.  The all-void
constituent is excluded throughout (its point is the assessment itself).
Coherent-extension intervals follow the same iteration, with a pair of
endpoint LPs per round (see _extension_interval).

The same machinery accepts generalized members given as disjoint
(value, world bitset) levels, void elsewhere, which is how conditional
random quantities from cohkit.compound are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .events import Universe, conditional_sets, refine
from .lp import (
    HullOutside,
    IntHull,
    hull_membership,
    hull_projection_ints,
    hull_zero_mass_ints,
    linear_range_ints,
)
from .rationals import ONE, ZERO, integer_row, rat
from .trivalent import ConditionalEvent

MAX_FAMILY = 12  # largest base family ExtensionProblem accepts


class CoherenceError(Exception):
    pass


class FamilyCapError(CoherenceError):
    pass


@dataclass(frozen=True)
class Assessment:
    """Family of conditional events with their assessed probabilities."""

    family: tuple
    values: tuple

    @staticmethod
    def build(family: Sequence[ConditionalEvent], values: Sequence) -> "Assessment":
        family = tuple(family)
        vals = tuple(rat(v) for v in values)
        if len(family) != len(vals):
            raise CoherenceError("family and value counts differ")
        if not family:
            raise CoherenceError("empty family")
        return Assessment(family, vals)


@dataclass(frozen=True)
class CoherenceVerdict:
    """Outcome of Gilio's check.  A verdict of check_coherence keeps the
    assessment and universe it decided and the MemberTable it was decided
    on, from which dutch_book, brier_dominator, ExtensionProblem and the
    p-entailment tests read their constituents."""

    coherent: bool
    failing_subfamily: Optional[tuple] = None  # indices into the family
    stakes: Optional[tuple] = None  # separating stakes over that subfamily
    weights: Optional[tuple] = None  # hull weights of the full family when coherent
    rounds: tuple = ()  # the subfamily tested in each round, in order
    assessment: Optional[Assessment] = None
    universe: Optional[Universe] = None
    _table: Optional[MemberTable] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DutchBook:
    subfamily: tuple
    stakes: tuple
    margin: object  # min gain over the subfamily's constituents, > 0
    gains: tuple  # (constituent index, gain) over the subfamily's constituents


def world_levels(ce: ConditionalEvent, universe: Universe) -> tuple:
    """(value, world bitset) levels of a conditional event: one where it
    is true, zero where it is false; void elsewhere."""
    true, false, _void = conditional_sets(ce, universe)
    return ((ONE, true), (ZERO, false))


def _ranked(levels) -> tuple:
    """A member's levels with equal values merged, largest value first."""
    merged: dict = {}
    for value, bits in levels:
        if bits:
            value = rat(value)
            merged[value] = merged.get(value, 0) | bits
    return tuple(sorted(merged.items(), key=lambda level: level[0], reverse=True))


class MemberTable:
    """Levels of a generalized family, with subfamily grouping.

    levels: one sequence per member of (value, world bitset) pairs over
    num_worlds world positions, the member being void on the worlds of
    no level.  Grouping a subfamily yields its constituent value
    patterns, the all-void pattern excluded, ordered member by member
    with values largest first and void last.

    The LPs read the table's int form instead of its rationals: every
    level value and assessed value as ints over their lcm, computed once
    per table, and the rank patterns kept beside the decoded ones.
    """

    def __init__(self, levels: Sequence, values: Sequence, num_worlds: int):
        self._build([_ranked(member) for member in levels], [rat(v) for v in values], num_worlds)

    def _build(self, members: list, values: list, num_worlds: int, scan=None) -> None:
        """scan: the (decode, groups, distinct) of a twin over the same
        members, which depend on the members only."""
        self.members = members
        self.values = values
        if len(self.members) != len(self.values):
            raise CoherenceError("member and value counts differ")
        if not self.members:
            raise CoherenceError("empty family")
        self.num_worlds = num_worlds
        self._int_form = None
        if scan is not None:
            self._decode, self._groups, self._distinct = scan
            return
        # a pattern holds per member the rank of its level, or the level
        # count where the member is void, so int order is the value order
        self._decode = [tuple(v for v, _bits in m) + (None,) for m in self.members]
        self._groups: dict = {}
        self._distinct = tuple(self._scan_worlds())

    def extended(self, levels: Sequence, value) -> "MemberTable":
        """The family plus one member given by its levels, at the given
        value; the other members keep their ranked levels."""
        table = MemberTable.__new__(MemberTable)
        table._build(self.members + [_ranked(levels)], self.values + [rat(value)], self.num_worlds)
        return table

    def revalued(self, values: Sequence) -> "MemberTable":
        """The same members under other values, sharing the world scan
        and the pattern cache (patterns do not depend on values); the
        twin computes its own int form."""
        twin = MemberTable.__new__(MemberTable)
        scan = (self._decode, self._groups, self._distinct)
        twin._build(self.members, [rat(v) for v in values], self.num_worlds, scan)
        return twin

    def _scan_worlds(self) -> dict:
        """Distinct full-family rank patterns -> world bitsets, by one
        partition refinement of the worlds."""
        return refine(
            (1 << self.num_worlds) - 1,
            [(tuple(enumerate(bits for _v, bits in m)), len(m)) for m in self.members],
        )

    def patterns(self, subset: tuple) -> tuple:
        """Distinct non-all-void value patterns of the subfamily."""
        cached = self._groups.get(subset)
        if cached is None:
            seen = {tuple([full[i] for i in subset]) for full in self._distinct}
            seen.discard(tuple([len(self.members[i]) for i in subset]))
            ranks = tuple(sorted(seen))
            decode = [self._decode[i] for i in subset]
            decoded = tuple(
                tuple([d[rank] for d, rank in zip(decode, pattern)]) for pattern in ranks
            )
            cached = self._groups[subset] = (decoded, ranks)
        return cached[0]

    def rank_patterns(self, subset: tuple) -> tuple:
        """The patterns of the subfamily as level ranks, the level count
        standing for void; grouped by patterns."""
        self.patterns(subset)
        return self._groups[subset][1]

    def int_form(self) -> tuple:
        """(levels, values, D): per member its level values, then its
        assessed value in the void position, and the assessed values,
        all as ints over D, the lcm of their denominators."""
        if self._int_form is None:
            n = len(self.values)
            flat, scale = integer_row([v for d in self._decode for v in d[:-1]] + self.values)
            values = flat[-n:]
            levels = []
            start = 0
            for i, member in enumerate(self.members):
                stop = start + len(member)
                levels.append(tuple(flat[start:stop]) + (values[i],))
                start = stop
            self._int_form = (levels, values, scale)
        return self._int_form

    def hull_rows(self, subset: tuple, patterns: Optional[Sequence] = None):
        """Constituent points of the subfamily, or of a selection of its
        patterns; voids carry the assessed value."""
        subs = [self.values[i] for i in subset]
        if patterns is None:
            patterns = self.patterns(subset)
        return [
            tuple(s if entry is None else entry for s, entry in zip(subs, pattern))
            for pattern in patterns
        ]

    def int_hull(self, subset: tuple, ranks: Optional[Sequence] = None) -> IntHull:
        """hull_rows of the subfamily (or of a selection of its rank
        patterns) and its values, as an IntHull over the table's D."""
        if ranks is None:
            ranks = self.rank_patterns(subset)
        levels, values, scale = self.int_form()
        decode = [levels[i] for i in subset]
        points = [tuple([d[rank] for d, rank in zip(decode, pattern)]) for pattern in ranks]
        return IntHull.build(points, [values[i] for i in subset], scale)

    def subfamily_hull(self, subset: tuple, ranks: Optional[Sequence] = None):
        """One round on the subfamily (or on a selection of its rank
        patterns): HullOutside, or HullZeroMass whose zero_mass holds the
        positions in subset of the members with zero antecedent mass at
        every hull solution."""
        if ranks is None:
            ranks = self.rank_patterns(subset)
        if not ranks:
            raise CoherenceError("subfamily has no effective constituent")
        voids = [len(self.members[i]) for i in subset]
        effective = [
            [k for k, (rank, void) in enumerate(zip(pattern, voids)) if rank != void]
            for pattern in ranks
        ]
        return hull_zero_mass_ints(self.int_hull(subset, ranks), effective)


def _gilio_check(table: MemberTable, assessment=None, universe=None) -> CoherenceVerdict:
    """Gilio's check (see check_coherence) on the members of a table:
    each round tests the current subfamily and continues with its
    zero-antecedent-mass members."""
    held = {"assessment": assessment, "universe": universe, "_table": table}
    subset = tuple(range(len(table.members)))
    rounds = []
    full_weights = None
    while True:
        rounds.append(subset)
        outcome = table.subfamily_hull(subset)
        if isinstance(outcome, HullOutside):
            support = [k for k, s in enumerate(outcome.separator) if s != 0]
            return CoherenceVerdict(
                False,
                tuple(subset[k] for k in support),
                tuple(outcome.separator[k] for k in support),
                None,
                tuple(rounds),
                **held,
            )
        if full_weights is None:
            full_weights = outcome.weights
        if not outcome.zero_mass:
            return CoherenceVerdict(True, None, None, full_weights, tuple(rounds), **held)
        subset = tuple(subset[k] for k in outcome.zero_mass)


# -- public operations on assessments ---------------------------------------

def _member_table(assessment: Assessment, universe: Universe) -> MemberTable:
    levels = [world_levels(ce, universe) for ce in assessment.family]
    return MemberTable(levels, assessment.values, len(universe))


def check_hull(assessment: Assessment, universe: Universe):
    """Full-family hull test only (necessary, not sufficient)."""
    table = _member_table(assessment, universe)
    rows = table.hull_rows(tuple(range(len(table.members))))
    if not rows:
        raise CoherenceError("family has no effective constituent")
    return hull_membership(rows, assessment.values)


def check_coherence(assessment: Assessment, universe: Universe) -> CoherenceVerdict:
    """Gilio's iterative hull test: at most one round per member, each a
    hull LP on the current subfamily plus the LPs that find its
    zero-antecedent-mass members.  An incoherent verdict reports the
    support of the separating stakes within the failing round, on which
    they are a Dutch book.  The verdict is the handle that the witnesses
    and extensions take."""
    return _gilio_check(_member_table(assessment, universe), assessment, universe)


def _checked_table(verdict: CoherenceVerdict) -> MemberTable:
    """The MemberTable a check_coherence verdict was decided on."""
    if verdict.assessment is None:
        raise CoherenceError("not a check_coherence verdict on an assessment")
    return verdict._table


def dutch_book(verdict: CoherenceVerdict) -> Optional[DutchBook]:
    """Stakes making the gain strictly positive on every effective
    constituent of some subfamily, from the assessment's check_coherence
    verdict; None when it is coherent."""
    table = _checked_table(verdict)
    if verdict.coherent:
        return None
    subset = verdict.failing_subfamily
    stakes = [rat(s) for s in verdict.stakes]
    values = [table.values[i] for i in subset]
    # the subfamily's patterns come in constituent order C_1 .. C_m; the
    # gain stakes . (q_h - p) adds s (1 - p) on a true member and -s p on
    # a false one
    patterns = table.patterns(subset)
    win = [s * (1 - p) for s, p in zip(stakes, values)]
    lose = [-s * p for s, p in zip(stakes, values)]
    gains = tuple(enumerate(_effective_sums(patterns, win, lose), 1))
    margin = min((g for _index, g in gains), default=None)
    if margin is None or margin <= 0:
        raise CoherenceError("separating stakes fail the positive-gain check")
    return DutchBook(subset, verdict.stakes, margin, gains)


# -- penalty-criterion dominance --------------------------------------------

def brier_dominator(verdict: CoherenceVerdict) -> Optional[tuple]:
    """Values penalty-dominating an incoherent assessment, from its
    check_coherence verdict; None when it is coherent.

    The failing subfamily's coordinates are replaced by the exact
    Euclidean projection of its value vector onto its constituent hull
    (Gilio & Sanfilippo, ISIPTA 2011: the projection penalty-dominates an
    incoherent vector).  Weak dominance with at least one strict
    reduction is then verified in exact arithmetic over the full family's
    constituents (the reading with one strict inequality, as in the
    conditional-case definitions).
    """
    table = _checked_table(verdict)
    if verdict.coherent:
        return None
    subset = verdict.failing_subfamily
    projected = hull_projection_ints(table.int_hull(subset)).point
    candidate = list(table.values)
    for k, i in enumerate(subset):
        candidate[i] = projected[k]
    candidate = tuple(candidate)
    if not _dominates(table, candidate):
        raise CoherenceError("projection fails the exact dominance check")
    return candidate


def _dominates(table: MemberTable, candidate: tuple) -> bool:
    """Does the candidate weakly penalty-dominate the table's values (an
    assessment of conditional events), with one strict reduction?
    Checked on integer rows over the full family's patterns: with the
    assessed values and the candidate as ints V and C over their common
    denominator D, a constituent's penalty changes by D^-2 times the sum
    over its effective members of (E - C)^2 - (E - V)^2, where E is D on
    a true member and 0 on a false one."""
    n = len(table.values)
    ints, scale = integer_row(list(table.values) + list(candidate))
    pairs = list(zip(ints[:n], ints[n:]))
    on_true = [(scale - c) ** 2 - (scale - v) ** 2 for v, c in pairs]
    on_false = [c * c - v * v for v, c in pairs]
    diffs = _effective_sums(table.patterns(tuple(range(n))), on_true, on_false)
    return all(d <= 0 for d in diffs) and any(d < 0 for d in diffs)


def _effective_sums(patterns, on_true, on_false) -> list:
    """Per pattern of a conditional-event family (entries 1, 0 or None),
    the sum over its effective members of on_true[i] where the entry is
    1 and on_false[i] where it is 0."""
    return [
        sum(on_true[i] if q else on_false[i] for i, q in enumerate(pattern) if q is not None)
        for pattern in patterns
    ]


# -- coherent extension bounds ----------------------------------------------

@dataclass(frozen=True)
class ExtensionBounds:
    """Interval of coherent values for one further object.

    lower and upper are exact, each the verified optimum of an endpoint
    LP.  rounds lists the base subfamily of each LP pair, in order.
    """

    lower: object
    upper: object
    rounds: tuple


def _extension_interval(table: MemberTable) -> ExtensionBounds:
    """Gilio's iteration for the extension of a coherent base (every
    member of the table but the last) to the target (the last member).

    Round J (at first the whole base) ranges the target's prevision
    sum_h lambda_h t_h over lambda >= 0 on the constituents of J plus
    the target, with unit mass where the target is non-void (the
    Charnes-Cooper normalisation) and a fair bet on every member of J;
    every value in that range is coherent.  Values outside it need the
    target's mass to be zero, so the base values of J must lie in the
    hull of the target-void constituents; if they do, the next round
    runs on the members of J with zero mass throughout that hull.  The
    interval is the hull of the ranges found (Biazzo & Gilio, IJAR 24,
    2000).  At most n + 1 rounds for n base members.
    """
    target = len(table.members) - 1
    target_void = len(table.members[target])
    subset = tuple(range(target))
    lower = upper = None
    rounds = []
    while True:
        rounds.append(subset)
        ranks = table.rank_patterns(subset + (target,))
        found = linear_range_ints(*_target_program(table, subset, ranks))
        if found is not None:
            lower = found[0] if lower is None else min(lower, found[0])
            upper = found[1] if upper is None else max(upper, found[1])
        void = [pattern[:-1] for pattern in ranks if pattern[-1] == target_void]
        if not subset or not void:
            break
        outcome = table.subfamily_hull(subset, void)
        if isinstance(outcome, HullOutside):
            break
        subset = tuple(subset[k] for k in outcome.zero_mass)
    if lower is None:
        raise CoherenceError("empty extension interval for a coherent base")
    return ExtensionBounds(lower, upper, tuple(rounds))


def _target_program(table: MemberTable, subset: tuple, ranks) -> tuple:
    """linear_range_ints arguments of one round, from the rank patterns
    of the subset plus the target (the table's last member), as ints
    over the table's denominator D: a column per pattern (the bet
    E_i - P_i of each effective base member, then D when the target is
    non-void), right-hand side (0, ..., 0, D), the target's value as
    cost (0 where it is void), and D.  A void base member reads its
    assessed value, so its bet is 0."""
    levels, values, scale = table.int_form()
    target_levels = levels[-1]
    target_void = len(target_levels) - 1
    bets = [[level - values[i] for level in levels[i]] for i in subset]
    columns = []
    costs = []
    for pattern in ranks:
        *base, rank = pattern
        column = tuple([bet[r] for bet, r in zip(bets, base)])
        if rank == target_void:
            columns.append(column + (0,))
            costs.append(0)
        else:
            columns.append(column + (scale,))
            costs.append(target_levels[rank])
    return columns, [0] * len(subset) + [scale], costs, scale


class ExtensionProblem:
    """Coherent extension of a checked base assessment by one target
    object, from the base's check_coherence verdict.

    The target is a ConditionalEvent or anything exposing
    numeric_levels(universe) -> disjoint (value, world bitset) levels,
    void elsewhere, such as an instantiated conditional random quantity.
    Both kinds take the same route: exact endpoint LPs by Gilio's iteration
    (_extension_interval).
    """

    def __init__(self, verdict: CoherenceVerdict, target):
        base = _checked_table(verdict)
        if len(base.members) > MAX_FAMILY:
            raise FamilyCapError(
                f"base family size {len(base.members)} exceeds the cap {MAX_FAMILY}"
            )
        if not verdict.coherent:
            raise CoherenceError("base assessment is incoherent")
        if isinstance(target, ConditionalEvent):
            levels = world_levels(target, verdict.universe)
        else:
            levels = target.numeric_levels(verdict.universe)
        self.verdict = verdict
        self.target = target
        self.table = base.extended(levels, ZERO)
        self._coherent: dict = {}

    def coherent_at(self, t) -> bool:
        """Is the base plus the target at value t coherent?  Gilio's
        check on the whole extended family, once per value: the table
        is fixed, so the answer is kept."""
        t = rat(t)
        if t not in self._coherent:
            values = self.table.values[:-1] + [t]
            self._coherent[t] = _gilio_check(self.table.revalued(values)).coherent
        return self._coherent[t]

    def bounds(self) -> ExtensionBounds:
        return _extension_interval(self.table)


def extension_bounds(
    assessment: Assessment, target, universe: Universe, tolerance=None
) -> ExtensionBounds:
    """Interval of values coherently extending the assessment to the
    target (a ConditionalEvent, or a numeric-valued random quantity
    exposing numeric_levels).  The endpoints are exact; tolerance is
    accepted for older callers and ignored."""
    return ExtensionProblem(check_coherence(assessment, universe), target).bounds()
