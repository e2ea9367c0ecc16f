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

The same machinery accepts generalized members given as per-world
numeric values with voids, which is how conditional random quantities
from cohkit.compound are checked.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .events import (
    Constituent,
    SIG_FALSE,
    SIG_TRUE,
    Universe,
    conditional_sets,
    enumerate_constituents,
)
from .lp import (
    HullOutside,
    hull_membership,
    hull_projection,
    hull_zero_mass,
    polytope_range,
)
from .rationals import ONE, ZERO, rat
from .trivalent import ConditionalEvent

DEFAULT_MAX_FAMILY = 12
_MAX_FAMILY_ENV = "COHKIT_MAX_FAMILY"


class CoherenceError(Exception):
    pass


class FamilyCapError(CoherenceError):
    pass


class ExtensionSeedError(CoherenceError):
    """No coherent value for the target could be located by probing."""


def family_cap() -> int:
    raw = os.environ.get(_MAX_FAMILY_ENV, "")
    if raw.strip():
        try:
            return int(raw)
        except ValueError:
            raise CoherenceError(f"bad {_MAX_FAMILY_ENV} value {raw!r}") from None
    return DEFAULT_MAX_FAMILY


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

    def in_unit_range(self) -> bool:
        return all(0 <= v <= 1 for v in self.values)


@dataclass(frozen=True)
class CoherenceVerdict:
    coherent: bool
    failing_subfamily: Optional[tuple] = None  # indices into the family
    stakes: Optional[tuple] = None  # separating stakes over that subfamily
    weights: Optional[tuple] = None  # hull weights of the full family when coherent
    rounds: tuple = ()  # the subfamily tested in each round, in order


@dataclass(frozen=True)
class DutchBook:
    subfamily: tuple
    stakes: tuple
    margin: object  # min gain over the subfamily's constituents, > 0


def world_values(ce: ConditionalEvent, universe: Universe) -> tuple:
    """Per-world indicator values of a conditional event; None when void."""
    true, false, _void = conditional_sets(ce, universe)
    out = []
    for pos in range(len(universe)):
        bit = 1 << pos
        if true & bit:
            out.append(ONE)
        elif false & bit:
            out.append(ZERO)
        else:
            out.append(None)
    return tuple(out)


def _sort_key(entry):
    return (1,) if entry is None else (0, -entry)


class MemberTable:
    """Per-world values of a generalized family, with subfamily grouping.

    members: one tuple per member, a value or None (void) per world
    position.  Grouping a subfamily yields its constituent value
    patterns, the all-void pattern excluded, in a deterministic order.
    """

    def __init__(self, members: Sequence[tuple], values: Sequence):
        self.members = [tuple(m) for m in members]
        self.values = [rat(v) for v in values]
        if len(self.members) != len(self.values):
            raise CoherenceError("member and value counts differ")
        if not self.members:
            raise CoherenceError("empty family")
        self.num_worlds = len(self.members[0])
        if any(len(m) != self.num_worlds for m in self.members):
            raise CoherenceError("member world counts differ")
        self._groups: dict = {}
        self._distinct: Optional[set] = None

    def _scan_worlds(self) -> set:
        """Distinct full-family value patterns, one pass over the worlds.

        Worlds are grouped by the identities of their entries, which
        hashes machine integers instead of rationals; the few groups are
        then merged by value (members reuse a handful of value objects,
        and the table keeps them alive, so identities are stable)."""
        ids = [list(map(id, member)) for member in self.members]
        objects = [dict(zip(keys, member)) for keys, member in zip(ids, self.members)]
        return {
            tuple(lookup[key] for lookup, key in zip(objects, keys))
            for keys in set(zip(*ids))
        }

    def patterns(self, subset: tuple) -> tuple:
        """Distinct non-all-void value patterns of the subfamily."""
        cached = self._groups.get(subset)
        if cached is not None:
            return cached
        if self._distinct is None:
            self._distinct = self._scan_worlds()
        seen = set()
        for full in self._distinct:
            pattern = tuple(full[i] for i in subset)
            if any(entry is not None for entry in pattern):
                seen.add(pattern)
        ordered = tuple(sorted(seen, key=lambda pat: [_sort_key(e) for e in pat]))
        self._groups[subset] = ordered
        return ordered

    def hull_rows(self, subset: tuple, substitutes: Optional[Sequence] = None):
        """Constituent points of the subfamily; voids carry the assessed
        value (or an explicit substitute)."""
        subs = (
            [self.values[i] for i in subset]
            if substitutes is None
            else list(substitutes)
        )
        rows = []
        for pattern in self.patterns(subset):
            rows.append(
                tuple(
                    subs[k] if entry is None else entry
                    for k, entry in enumerate(pattern)
                )
            )
        return rows

    def subfamily_hull(self, subset: tuple):
        """One round on the subfamily: HullOutside, or HullZeroMass whose
        zero_mass holds the positions in subset of the members with zero
        antecedent mass at every hull solution."""
        rows = self.hull_rows(subset)
        if not rows:
            raise CoherenceError("subfamily has no effective constituent")
        point = tuple(self.values[i] for i in subset)
        effective = [
            [k for k, entry in enumerate(pattern) if entry is not None]
            for pattern in self.patterns(subset)
        ]
        return hull_zero_mass(rows, point, effective)


def check_coherence_members(members, values) -> CoherenceVerdict:
    """Gilio's iterative check over generalized members.

    Each round tests the current subfamily and continues with its
    zero-antecedent-mass members; an incoherent verdict reports the
    support of the separating stakes within the failing round, on which
    they are a Dutch book."""
    table = MemberTable(members, values)
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
            )
        if full_weights is None:
            full_weights = outcome.weights
        if not outcome.zero_mass:
            return CoherenceVerdict(True, None, None, full_weights, tuple(rounds))
        subset = tuple(subset[k] for k in outcome.zero_mass)


# -- public operations on assessments ---------------------------------------

def _member_table(assessment: Assessment, universe: Universe) -> MemberTable:
    members = [world_values(ce, universe) for ce in assessment.family]
    return MemberTable(members, assessment.values)


def _constituent_points(assessment: Assessment, universe: Universe) -> list:
    """Constituent points of the whole family, one row per C_h, h >= 1,
    in constituent order."""
    table = _member_table(assessment, universe)
    rows = table.hull_rows(tuple(range(len(table.members))))
    if not rows:
        raise CoherenceError("family has no effective constituent")
    return rows


def check_hull(assessment: Assessment, universe: Universe):
    """Full-family hull test only (necessary, not sufficient)."""
    return hull_membership(_constituent_points(assessment, universe), assessment.values)


def check_coherence(assessment: Assessment, universe: Universe) -> CoherenceVerdict:
    """Gilio's iterative hull test: at most one round per member, each a
    hull LP on the current subfamily plus the LPs that find its
    zero-antecedent-mass members (see check_coherence_members)."""
    table = _member_table(assessment, universe)
    return check_coherence_members(table.members, table.values)


def random_gain(assessment: Assessment, stakes: Sequence, constituent: Constituent):
    """Bettor's gain on one constituent for the given stakes."""
    if len(stakes) != len(assessment.family):
        raise CoherenceError("one stake per family member required")
    total = rat(0)
    for i, code in enumerate(constituent.signature):
        s = rat(stakes[i])
        p = assessment.values[i]
        if code == SIG_TRUE:
            total += s * (1 - p)
        elif code == SIG_FALSE:
            total -= s * p
    return total


def penalty_loss(assessment: Assessment, constituent: Constituent):
    """Quadratic penalty on one constituent: sum over effective bets of
    (indicator - value)^2."""
    total = rat(0)
    for i, code in enumerate(constituent.signature):
        if code == SIG_TRUE:
            d = 1 - assessment.values[i]
        elif code == SIG_FALSE:
            d = assessment.values[i]
        else:
            continue
        total += d * d
    return total


def dutch_book(
    assessment: Assessment,
    universe: Universe,
    verdict: Optional[CoherenceVerdict] = None,
) -> Optional[DutchBook]:
    """Stakes making the gain strictly positive on every effective
    constituent of some subfamily; None when the assessment is coherent.
    verdict: the assessment's check_coherence result, when already known."""
    if verdict is None:
        verdict = check_coherence(assessment, universe)
    if verdict.coherent:
        return None
    subset = verdict.failing_subfamily
    sub = Assessment.build(
        [assessment.family[i] for i in subset],
        [assessment.values[i] for i in subset],
    )
    table = enumerate_constituents(sub.family, universe)
    margin = None
    for constituent in table.constituents:
        g = random_gain(sub, verdict.stakes, constituent)
        if margin is None or g < margin:
            margin = g
    if margin is None or margin <= 0:
        raise CoherenceError("separating stakes fail the positive-gain check")
    return DutchBook(subset, verdict.stakes, margin)


# -- penalty-criterion dominance --------------------------------------------

def brier_dominator(
    assessment: Assessment,
    universe: Universe,
    verdict: Optional[CoherenceVerdict] = None,
) -> Optional[tuple]:
    """Values penalty-dominating an incoherent assessment, else None.

    The failing subfamily's coordinates are replaced by the exact
    Euclidean projection of its value vector onto its constituent hull
    (Gilio & Sanfilippo, ISIPTA 2011: the projection penalty-dominates an
    incoherent vector).  Weak dominance with at least one strict
    reduction is then verified in exact arithmetic over the full family's
    constituents (the reading with one strict inequality, as in the
    conditional-case definitions).  verdict: the assessment's
    check_coherence result, when already known.
    """
    if verdict is None:
        verdict = check_coherence(assessment, universe)
    if verdict.coherent:
        return None
    subset = verdict.failing_subfamily
    sub = Assessment.build(
        [assessment.family[i] for i in subset],
        [assessment.values[i] for i in subset],
    )
    projected = hull_projection(_constituent_points(sub, universe), sub.values).point
    candidate = list(assessment.values)
    for k, i in enumerate(subset):
        candidate[i] = projected[k]
    candidate = tuple(candidate)
    if not _dominates(assessment, candidate, universe):
        raise CoherenceError("projection fails the exact dominance check")
    return candidate


def _dominates(assessment: Assessment, candidate: tuple, universe: Universe) -> bool:
    dominated = Assessment.build(assessment.family, candidate)
    table = enumerate_constituents(assessment.family, universe)
    strict = False
    for constituent in table.constituents:
        old = penalty_loss(assessment, constituent)
        new = penalty_loss(dominated, constituent)
        if new > old:
            return False
        if new < old:
            strict = True
    return strict


# -- coherent extension bounds ----------------------------------------------

@dataclass(frozen=True)
class ExtensionBounds:
    """Interval of coherent values for one further object.

    lower/upper are confirmed-coherent endpoint reports; the brackets
    enclose the true endpoints, with bracket width zero exactly when the
    endpoint is exact (always the case on the polytope route, and at
    probed endpoints on the bisection route).
    """

    lower: object
    upper: object
    lower_bracket: tuple
    upper_bracket: tuple

    @property
    def lower_exact(self) -> bool:
        return self.lower_bracket[0] == self.lower_bracket[1]

    @property
    def upper_exact(self) -> bool:
        return self.upper_bracket[0] == self.upper_bracket[1]


DEFAULT_TOLERANCE = rat(1, 2**40)


class ExtensionProblem:
    """Coherent extension of a base assessment by one target object.

    The target is a ConditionalEvent or anything exposing
    world_values(universe) -> per-world values (None when void), such as
    an instantiated conditional random quantity.  Conditional-event
    targets place the unknown value on their void constituents, so their
    interval is found by rational bisection; numeric targets admit exact
    endpoints through linear programs per subfamily.
    """

    def __init__(
        self,
        assessment: Assessment,
        target,
        universe: Universe,
        cap: Optional[int] = None,
    ):
        # every subfamily of the base is visited, so its size is capped
        self.base_n = len(assessment.family)
        limit = family_cap() if cap is None else cap
        if self.base_n > limit:
            raise FamilyCapError(f"base family size {self.base_n} exceeds the cap {limit}")
        if not check_coherence(assessment, universe).coherent:
            raise CoherenceError("base assessment is incoherent")
        self.assessment = assessment
        self.universe = universe
        members = [world_values(ce, universe) for ce in assessment.family]
        if isinstance(target, ConditionalEvent):
            members.append(world_values(target, universe))
        else:
            members.append(tuple(target.world_values(universe)))
        self.table = MemberTable(members, list(assessment.values) + [ZERO])
        self.target_index = self.base_n
        # the unknown value enters the constituent points themselves
        # whenever the target can be void while some base member is
        # effective; only then is bisection needed
        target_col = members[-1]
        self.target_value_in_rows = any(
            target_col[pos] is None
            and any(members[i][pos] is not None for i in range(self.base_n))
            for pos in range(len(target_col))
        )
        self._subsets = [
            subset + (self.target_index,)
            for size in range(self.base_n, -1, -1)
            for subset in itertools.combinations(range(self.base_n), size)
        ]

    def coherent_at(self, t) -> bool:
        t = rat(t)
        subs_values = list(self.assessment.values) + [t]
        for subset in self._subsets:
            rows = self.table.hull_rows(subset, [subs_values[i] for i in subset])
            point = tuple(subs_values[i] for i in subset)
            if isinstance(hull_membership(rows, point), HullOutside):
                return False
        return True

    def exact_interval(self):
        """Endpoint computation for numeric targets: intersect, over the
        subfamilies, the range of the target coordinate over the base
        polytope."""
        lo = None
        hi = None
        for subset in self._subsets:
            base_part = subset[:-1]
            fixed = tuple(self.assessment.values[i] for i in base_part)
            rows = []
            scores = []
            for pattern in self.table.patterns(subset):
                row = []
                for k, i in enumerate(base_part):
                    entry = pattern[k]
                    row.append(self.assessment.values[i] if entry is None else entry)
                target_entry = pattern[-1]
                if target_entry is None:
                    # all-void patterns are excluded and stray voids send
                    # the problem down the bisection route instead
                    raise CoherenceError("numeric target with stray void pattern")
                rows.append(tuple(row))
                scores.append(target_entry)
            bounds = polytope_range(rows, fixed, scores)
            if bounds is None:
                raise CoherenceError("base assessment infeasible on a subfamily")
            blo, bhi = bounds
            lo = blo if lo is None or blo > lo else lo
            hi = bhi if hi is None or bhi < hi else hi
        if lo > hi:
            raise CoherenceError("empty extension interval for a coherent base")
        return lo, hi

    def seed(self):
        """Some coherent target value, located by probing."""
        for t in self._probe_values():
            if 0 <= t <= 1 and self.coherent_at(t):
                return t
        raise ExtensionSeedError(
            "no coherent extension value found by probing; "
            "the interval may be a degenerate non-dyadic point"
        )

    def _probe_values(self):
        seen = set()
        probes = []

        def emit(v):
            v = rat(v)
            if v not in seen:
                seen.add(v)
                probes.append(v)

        emit(0)
        emit(1)
        for depth in range(1, 7):
            scale = 1 << depth
            for num in range(1, scale, 2):
                emit(rat(num, scale))
        vals = self.assessment.values
        for v in vals:
            emit(v)
            emit(1 - v)
        for a, b in itertools.combinations_with_replacement(vals, 2):
            emit(a * b)
            if 0 <= a + b - 1:
                emit(a + b - 1)
            if a + b <= 1:
                emit(a + b)
        return probes

    def bisect_interval(self, tolerance=DEFAULT_TOLERANCE):
        seed = self.seed()
        lower_bracket = self._bisect_edge(rat(0), seed, tolerance, lower=True)
        upper_bracket = self._bisect_edge(seed, rat(1), tolerance, lower=False)
        return lower_bracket, upper_bracket

    def _bisect_edge(self, lo, hi, tolerance, lower: bool):
        """Shrink toward the endpoint; returns (outer, inner) for the
        lower edge and (inner, outer) for the upper edge, inner always a
        confirmed coherent value."""
        if lower:
            if self.coherent_at(lo):
                return (lo, lo)
            bad, good = lo, hi
            while good - bad >= tolerance:
                mid = (good + bad) / 2
                if self.coherent_at(mid):
                    good = mid
                else:
                    bad = mid
            return (bad, good)
        if self.coherent_at(hi):
            return (hi, hi)
        good, bad = lo, hi
        while bad - good >= tolerance:
            mid = (good + bad) / 2
            if self.coherent_at(mid):
                good = mid
            else:
                bad = mid
        return (good, bad)

    def bounds(self, tolerance=DEFAULT_TOLERANCE) -> ExtensionBounds:
        if not self.target_value_in_rows:
            lo, hi = self.exact_interval()
            return ExtensionBounds(lo, hi, (lo, lo), (hi, hi))
        lower_bracket, upper_bracket = self.bisect_interval(tolerance)
        return ExtensionBounds(
            lower_bracket[1], upper_bracket[0], lower_bracket, upper_bracket
        )


def extension_bounds(
    assessment: Assessment,
    target,
    universe: Universe,
    tolerance=DEFAULT_TOLERANCE,
    cap: Optional[int] = None,
) -> ExtensionBounds:
    """Interval of values coherently extending the assessment to the
    target (a ConditionalEvent, or a numeric-valued random quantity
    exposing world_values)."""
    return ExtensionProblem(assessment, target, universe, cap).bounds(tolerance)
