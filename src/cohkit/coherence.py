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
One generator, _rounds, runs the iteration.  A round whose members are
all assessed at the top or bottom of their levels (an event at 0 or 1)
is decided in closed form, with no LP (_extreme_round), which is how
p-consistency and p-entailment are checked.  Coherent-extension
intervals read the same rounds on the target-void patterns, with a pair
of endpoint LPs per round (see _extension_interval).

The same machinery accepts generalized members given as disjoint
(value, world bitset) levels, void elsewhere, which is how conditional
random quantities from cohkit.compound are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence

from .events import Universe, conditional_sets, refine
from .lp import (
    HullOutside,
    HullZeroMass,
    IntHull,
    LPInternalError,
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

    def _points(self, subset: tuple, ranks: Sequence) -> list:
        """The int points of rank patterns of the subfamily, over D."""
        levels = self.int_form()[0]
        decode = [levels[i] for i in subset]
        return [tuple([d[rank] for d, rank in zip(decode, pattern)]) for pattern in ranks]

    def int_hull(self, subset: tuple, ranks: Optional[Sequence] = None) -> IntHull:
        """hull_rows of the subfamily (or of a selection of its rank
        patterns) and its values, as an IntHull over the table's D."""
        if ranks is None:
            ranks = self.rank_patterns(subset)
        _levels, values, scale = self.int_form()
        return IntHull.build(self._points(subset, ranks), [values[i] for i in subset], scale)

    def _extreme_signs(self, subset: tuple) -> Optional[list]:
        """Per member of the subfamily -1 when it is assessed at its top
        level and +1 at its bottom level (-1 when they are one level);
        None when some member is assessed at neither."""
        levels, values, _scale = self.int_form()
        signs = []
        for i in subset:
            if values[i] == levels[i][0]:
                signs.append(-1)
            elif values[i] == levels[i][-2]:
                signs.append(1)
            else:
                return None
        return signs

    def subfamily_hull(self, subset: tuple, ranks: Sequence):
        """One round on a selection of the subfamily's rank patterns:
        HullOutside, or HullZeroMass whose zero_mass holds the positions
        in subset of the members with zero antecedent mass at every hull
        solution.  A subfamily assessed at the top or bottom of every
        member's levels is decided in closed form (_extreme_round), any
        other by the LPs of hull_zero_mass_ints."""
        voids = [len(self.members[i]) for i in subset]
        signs = self._extreme_signs(subset)
        if signs is not None:
            _levels, values, scale = self.int_form()
            p = [values[i] for i in subset]
            return _extreme_round(self._points(subset, ranks), p, scale, signs, ranks, voids)
        effective = [
            [k for k, (rank, void) in enumerate(zip(pattern, voids)) if rank != void]
            for pattern in ranks
        ]
        return hull_zero_mass_ints(self.int_hull(subset, ranks), effective)


def _dot(u, v):
    return sum(map(mul, u, v))


def _extreme_round(points, p, scale, signs, ranks, voids):
    """The round of subfamily_hull, without an LP, on the int points Q
    and target P over D of a subfamily whose member k is assessed at its
    top level (signs[k] = -1) or its bottom level (+1); ranks are the
    points' rank patterns, voids[k] the rank where member k is void.

    Every coordinate of s (q - p), s the signs, is then >= 0, and zero
    exactly where member k is void or at its assessed level.  So the
    fair-bet row of member k gives zero weight to every constituent
    where it takes another level, and gap(q) = s.(q - p) is zero exactly
    on the free patterns, those where no member does, whose point is p.
    The hull solutions are the distributions on the free patterns: the
    tolerance test of p-consistency (Goldszmidt & Pearl, AI 52, 1991;
    Gilio, AMAI 34, 2002).

    With no free pattern, p is outside, and s, zeroed on the members
    that no pattern violates, separates it with margin min gap.  Else
    the weights put 1 on the first free pattern, zero_mass holds the
    members void on every free pattern, and the certificate is y = c s,
    y0 = -y.p, with c the least for which c gap(q_h) covers the number
    of zero-mass members that count pattern h.  Each witness is checked
    on every point before it is returned.
    """
    base = _dot(signs, p)
    gaps = [_dot(signs, q) - base for q in points]
    free = [h for h, gap in enumerate(gaps) if gap == 0]
    if not free:
        violated = [any(q[k] != p[k] for q in points) for k in range(len(p))]
        separator = tuple(rat(s) if v else ZERO for s, v in zip(signs, violated))
        outside = HullOutside(separator, rat(min(gaps), scale))
        _checked_outside(outside, points, p, scale)
        return outside
    weights = [ZERO] * len(points)
    weights[free[0]] = ONE
    zero_mass = tuple(k for k, void in enumerate(voids) if all(ranks[h][k] == void for h in free))
    if not zero_mass:
        return HullZeroMass(tuple(weights), (), None)
    counts = [sum(1 for k in zero_mass if pattern[k] != voids[k]) for pattern in ranks]
    # c = D max(n / gap), the ratios compared as int cross products
    most, least = 0, 1
    for n, gap in zip(counts, gaps):
        if n * least > most * gap:
            most, least = n, gap
    c = rat(most * scale, least)
    y = tuple(c * s for s in signs)
    certificate = (y, -c * rat(base, scale))
    _checked_certificate(certificate, points, p, scale, counts)
    return HullZeroMass(tuple(weights), zero_mass, certificate)


def _checked_outside(outside: HullOutside, points, p, scale) -> None:
    """Checks a separator s against the int points Q and target P over
    D, with s as ints S over L: the largest |S_k| is L, S.(Q - P) > 0 for
    every point, and the margin is the least of them over L D."""
    ints, unit = integer_row(outside.separator)
    if max(map(abs, ints)) != unit:
        raise LPInternalError("separator is not normalized")
    least = min(_dot(ints, q) for q in points) - _dot(ints, p)
    if least <= 0:
        raise LPInternalError("separator fails strictness check")
    if rat(least, unit * scale) != outside.margin:
        raise LPInternalError("margin is not the least gain")


def _checked_certificate(certificate, points, p, scale, counts) -> None:
    """Checks a zero-mass certificate (y, y0) against the int points Q
    and target P over D, with (y, y0) as ints (Y, Y0) over L: Y.P + Y0 D
    = 0, and Y.Q_h + Y0 D >= counts[h] L D for every point h, which is
    y.q_h + y0 >= counts[h]."""
    y, y0 = certificate
    ints, unit = integer_row(list(y) + [y0])
    *ys, y0s = ints
    if _dot(ys, p) + y0s * scale != 0:
        raise LPInternalError("certificate is not zero at the target")
    for q, n in zip(points, counts):
        if _dot(ys, q) + y0s * scale < n * unit * scale:
            raise LPInternalError("certificate fails a constituent")


def _rounds(table: MemberTable, subset: tuple, ranks_of):
    """Gilio's iteration from the subfamily: per round (subset, outcome),
    the outcome the subfamily_hull of the patterns ranks_of(subset), or
    None where there are none.  A HullZeroMass continues with its
    zero-mass members; anything else, or an empty subset, ends it."""
    while subset:
        ranks = ranks_of(subset)
        outcome = table.subfamily_hull(subset, ranks) if ranks else None
        yield subset, outcome
        if not isinstance(outcome, HullZeroMass):
            return
        subset = tuple(subset[k] for k in outcome.zero_mass)


def _gilio_check(table: MemberTable, assessment=None, universe=None) -> CoherenceVerdict:
    """Gilio's check (see check_coherence) on the members of a table:
    the rounds of _rounds on every pattern, from the whole family."""
    held = {"assessment": assessment, "universe": universe, "_table": table}
    everyone = tuple(range(len(table.members)))
    rounds, outcomes = zip(*_rounds(table, everyone, table.rank_patterns))
    last = outcomes[-1]
    if last is None:
        raise CoherenceError("subfamily has no effective constituent")
    if isinstance(last, HullOutside):
        support = [k for k, s in enumerate(last.separator) if s != 0]
        failing = tuple(rounds[-1][k] for k in support)
        stakes = tuple(last.separator[k] for k in support)
        return CoherenceVerdict(False, failing, stakes, None, rounds, **held)
    return CoherenceVerdict(True, None, None, outcomes[0].weights, rounds, **held)


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

    Round J ranges the target's prevision sum_h lambda_h t_h over
    lambda >= 0 on the constituents of J plus the target, with unit mass
    where the target is non-void (the Charnes-Cooper normalisation) and
    a fair bet on every member of J; every value in that range is
    coherent.  Values outside it need the target's mass to be zero, so
    the base values of J must lie in the hull of the target-void
    constituents; if they do, the next round runs on the members of J
    with zero mass throughout that hull.  So the subsets J are the
    check's rounds (_rounds) on the target-void patterns, from the whole
    base, plus the empty subset when the last of them leaves no member
    at zero mass.  The interval is the hull of the ranges found (Biazzo
    & Gilio, IJAR 24, 2000).  At most n + 1 rounds for n base members.
    """
    target = len(table.members) - 1
    target_void = len(table.members[target])

    def void_ranks(subset):
        ranks = table.rank_patterns(subset + (target,))
        return [pattern[:-1] for pattern in ranks if pattern[-1] == target_void]

    rounds, outcomes = zip(*_rounds(table, tuple(range(target)), void_ranks))
    if isinstance(outcomes[-1], HullZeroMass):
        rounds += ((),)
    found = [
        linear_range_ints(*_target_program(table, subset, table.rank_patterns(subset + (target,))))
        for subset in rounds
    ]
    found = [ends for ends in found if ends is not None]
    if not found:
        raise CoherenceError("empty extension interval for a coherent base")
    lowers, uppers = zip(*found)
    return ExtensionBounds(min(lowers), max(uppers), rounds)


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
