"""Conjunction and disjunction of conditionals as random quantities.

Here a compound of conditional events is not a third conditional event
but a finitely-valued random quantity conditioned on the disjunction of
the antecedents: the binary conjunction takes 1 where both operands are
true, 0 where either is false, the opposite operand's probability where
exactly one is void, and its own prevision where both are void.  Values
are stored as linear forms over named prevision symbols, one per level
(a world bitset of the constituent partition), so identities can be
checked structurally before any numbers are plugged in.

Coherence of prevision systems is decided by the same constituent-point
hull machinery as for plain conditional events, with void coordinates
carrying the assessed prevision; this transfers the geometric criterion
to random quantities with values in [0, 1].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .coherence import (
    Assessment,
    CoherenceVerdict,
    ExtensionProblem,
    MemberTable,
    _gilio_check,
    check_coherence,
)
from .events import TOP, And, Atom, Formula, Universe, conditional_sets, refine, set_bits
from .rationals import ONE, ZERO, rat
from .trivalent import ConditionalEvent, negate, _pair_region_universes, _A, _H, _B, _K


class CompoundError(Exception):
    pass


# -- linear forms over prevision symbols -------------------------------------

@dataclass(frozen=True)
class LinForm:
    """const + sum of coeff * symbol, exact rational coefficients."""

    const: object
    terms: tuple  # sorted (name, coeff) pairs, coeff != 0

    @staticmethod
    def of(value) -> "LinForm":
        if isinstance(value, LinForm):
            return value
        return LinForm(rat(value), ())

    @staticmethod
    def symbol(name: str) -> "LinForm":
        return LinForm(ZERO, ((name, ONE),))

    def __add__(self, other):
        other = LinForm.of(other)
        acc = dict(self.terms)
        for name, coeff in other.terms:
            acc[name] = acc.get(name, ZERO) + coeff
        terms = tuple(sorted((n, c) for n, c in acc.items() if c != 0))
        return LinForm(self.const + other.const, terms)

    def __sub__(self, other):
        return self + LinForm.of(other).scale(rat(-1))

    def __rsub__(self, other):
        return LinForm.of(other) + self.scale(rat(-1))

    __radd__ = __add__

    def scale(self, factor) -> "LinForm":
        factor = rat(factor)
        if factor == 0:
            return LinForm(ZERO, ())
        return LinForm(
            self.const * factor,
            tuple((n, c * factor) for n, c in self.terms),
        )

    def substitute(self, mapping: Mapping[str, object]) -> "LinForm":
        out = LinForm(self.const, ())
        for name, coeff in self.terms:
            if name in mapping:
                out = out + LinForm.of(mapping[name]).scale(coeff)
            else:
                out = out + LinForm(ZERO, ((name, coeff),))
        return out

    def is_constant(self) -> bool:
        return not self.terms

    def constant_value(self):
        if self.terms:
            raise CompoundError(f"unresolved symbols {self.terms}")
        return self.const

    def __str__(self) -> str:
        parts = [] if self.const == 0 and self.terms else [str(self.const)]
        for name, coeff in self.terms:
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        return " + ".join(parts) if parts else "0"


# -- conditional random quantities -------------------------------------------

@dataclass(frozen=True)
class ConditionalRandomQuantity:
    """Linear-form values on world bitsets.

    levels holds disjoint (LinForm, world bitset) pairs; the quantity is
    void on the worlds of no level, exactly where its conditioning event
    fails, and there it is worth its own prevision.
    """

    universe: Universe
    levels: tuple

    def substitute(self, mapping: Mapping[str, object]) -> "ConditionalRandomQuantity":
        return ConditionalRandomQuantity(
            self.universe, tuple((f.substitute(mapping), bits) for f, bits in self.levels)
        )

    def numeric_levels(self, universe: Universe) -> tuple:
        """(value, world bitset) levels for the coherence engine over a
        universe with the same atoms and worlds."""
        if universe is not self.universe and (
            universe.atoms != self.universe.atoms or universe.worlds != self.universe.worlds
        ):
            raise CompoundError("universe mismatch")
        return tuple((f.constant_value(), bits) for f, bits in self.levels)


def event_quantity(ce: ConditionalEvent, universe: Universe) -> ConditionalRandomQuantity:
    """A conditional event as a random quantity: 1, 0, or void."""
    true, false, _void = conditional_sets(ce, universe)
    return ConditionalRandomQuantity(universe, ((LinForm.of(1), true), (LinForm.of(0), false)))


def _compound_quantity(family, universe, prevs, conjunction: bool):
    """The compound of the whole family, its values as linear forms."""
    full = frozenset(range(len(family)))
    levels = _compound_levels(family, universe, prevs, full, conjunction)
    return ConditionalRandomQuantity(universe, tuple((LinForm.of(v), bits) for v, bits in levels))


def _require_coherent_pair(ce1, ce2, x, y, universe):
    pair = Assessment.build([ce1, ce2], [x, y])
    if not check_coherence(pair, universe).coherent:
        raise CompoundError("operand assessment is incoherent")


_FIRST, _SECOND = frozenset([0]), frozenset([1])


def gs_and(
    ce1: ConditionalEvent,
    ce2: ConditionalEvent,
    x,
    y,
    universe: Universe,
    check: bool = True,
) -> ConditionalRandomQuantity:
    """Five-valued conjunction: 1, 0, x, y, or its own prevision."""
    if check:
        _require_coherent_pair(ce1, ce2, x, y, universe)
    prevs = {_FIRST: x, _SECOND: y}
    return _compound_quantity((ce1, ce2), universe, prevs, True)


def gs_or(
    ce1: ConditionalEvent,
    ce2: ConditionalEvent,
    x,
    y,
    universe: Universe,
    check: bool = True,
) -> ConditionalRandomQuantity:
    """Five-valued disjunction, dual to gs_and."""
    if check:
        _require_coherent_pair(ce1, ce2, x, y, universe)
    prevs = {_FIRST: x, _SECOND: y}
    return _compound_quantity((ce1, ce2), universe, prevs, False)


def _nary_compound(family, universe, previsions, conjunction: bool, check: bool):
    n = len(family)
    if n == 0:
        raise CompoundError("empty family")
    prevs = {frozenset(k): rat(v) for k, v in previsions.items()}
    for size in range(1, n + 1):
        for s in itertools.combinations(range(n), size):
            if frozenset(s) not in prevs:
                raise CompoundError(f"missing prevision for subset {sorted(s)}")
    if check and not _system_coherent(family, universe, prevs, conjunction):
        raise CompoundError("incoherent prevision system")
    return _compound_quantity(family, universe, prevs, conjunction)


def _compound_levels(family, universe, prevs, subset: frozenset, conjunction: bool):
    """Disjoint (value, world bitset) levels of the subset compound, void
    where all its antecedents fail.  An operand false (conjunction) or true
    (disjunction) absorbs the world; the other worlds are split by their
    void operands, and a partial void set takes its prevision."""
    indices = sorted(subset)
    sets = [conditional_sets(family[i], universe) for i in indices]
    absorbed = 0
    for true, false, _void in sets:
        absorbed |= false if conjunction else true
    # each operand splits the blocks by its void set: True where void
    classes = refine(
        universe.all_set & ~absorbed, [(((True, void),), False) for _t, _f, void in sets]
    )
    levels = [(ZERO if conjunction else ONE, absorbed)]
    for pattern, bits in classes.items():
        voids = frozenset(i for i, is_void in zip(indices, pattern) if is_void)
        if not voids:
            levels.append((ONE if conjunction else ZERO, bits))
        elif len(voids) < len(indices):
            levels.append((prevs[voids], bits))
    return tuple(levels)


def _system_coherent(family, universe, prevs, conjunction: bool) -> bool:
    """Joint hull check of all subset compounds against their previsions,
    which gs_and_n and gs_or_n take as input."""
    subsets = [
        frozenset(s)
        for size in range(1, len(family) + 1)
        for s in itertools.combinations(range(len(family)), size)
    ]
    levels = [
        _compound_levels(family, universe, prevs, s, conjunction) for s in subsets
    ]
    values = [prevs[s] for s in subsets]
    return _gilio_check(MemberTable(levels, values, len(universe))).coherent


def gs_and_n(
    family: Sequence[ConditionalEvent],
    previsions: Mapping,
    universe: Universe,
    check: bool = True,
) -> ConditionalRandomQuantity:
    """Conjunction of n conditionals: 1 where all hold, 0 where any
    fails, and the joint prevision of the void subset elsewhere.

    previsions maps every nonempty index subset (any iterable of indices)
    to its conjunction prevision; singletons are the operand values.
    """
    return _nary_compound(tuple(family), universe, previsions, True, check)


def gs_or_n(
    family: Sequence[ConditionalEvent],
    previsions: Mapping,
    universe: Universe,
    check: bool = True,
) -> ConditionalRandomQuantity:
    """Disjunction of n conditionals, dual to gs_and_n."""
    return _nary_compound(tuple(family), universe, previsions, False, check)


# -- previsions from a full distribution -------------------------------------

def _normalize_mu(mu, universe: Universe):
    if isinstance(mu, Mapping):
        masses = [rat(mu.get(pos, 0)) for pos in range(len(universe))]
    else:
        masses = [rat(m) for m in mu]
        if len(masses) != len(universe):
            raise CompoundError("one mass per universe world required")
    if any(m < 0 for m in masses):
        raise CompoundError("negative mass")
    if sum(masses, ZERO) != 1:
        raise CompoundError("masses must sum to 1")
    return masses


def mu_previsions(
    family: Sequence[ConditionalEvent],
    mu,
    universe: Universe,
    conjunction: bool = True,
) -> dict:
    """All subset-compound previsions induced by a world distribution.

    Built upward in subset size: a compound's value on a partial-void
    world is the already-computed prevision of its void part, and its own
    prevision is the conditional expectation given its conditioning
    event.  Every conditioning event needs positive mass.
    """
    family = tuple(family)
    masses = _normalize_mu(mu, universe)
    prevs: dict = {}
    for size in range(1, len(family) + 1):
        for subset in itertools.combinations(range(len(family)), size):
            s = frozenset(subset)
            levels = _compound_levels(family, universe, prevs, s, conjunction)
            prevs[s] = _expectation(levels, masses)
    return prevs


def _expectation(levels, masses):
    """Expectation of disjoint (value, world bitset) levels given their
    union, under per-world masses."""
    num = ZERO
    den = ZERO
    for value, bits in levels:
        mass = sum((masses[pos] for pos in set_bits(bits)), ZERO)
        den += mass
        num += mass * value
    if den == 0:
        raise CompoundError("zero mass on conditioning formula")
    return num / den


def prevision_from_distribution(
    crq: ConditionalRandomQuantity, mu, universe: Optional[Universe] = None
):
    """Conditional expectation of a numeric-valued quantity under a world
    distribution; the conditioning event needs positive mass."""
    u = crq.universe if universe is None else universe
    return _expectation(crq.numeric_levels(u), _normalize_mu(mu, u))


# -- bounds and arithmetic identities ----------------------------------------

def frechet_bounds(xs: Sequence):
    """Sharp conjunction bounds (max{sum - n + 1, 0}, min)."""
    vals = [rat(v) for v in xs]
    if not vals:
        raise CompoundError("empty value list")
    if any(v < 0 or v > 1 for v in vals):
        raise CompoundError("values must lie in [0, 1]")
    lower = sum(vals, ZERO) - len(vals) + 1
    if lower < 0:
        lower = ZERO
    return lower, min(vals)


def frechet_bounds_or(xs: Sequence):
    """Sharp disjunction bounds (max, min{sum, 1})."""
    vals = [rat(v) for v in xs]
    if not vals:
        raise CompoundError("empty value list")
    if any(v < 0 or v > 1 for v in vals):
        raise CompoundError("values must lie in [0, 1]")
    upper = sum(vals, ZERO)
    if upper > 1:
        upper = ONE
    return max(vals), upper


def sum_rule_check(x, y, z, w) -> bool:
    """Disjunction prevision equals x + y - z; (x, y, z) must sit in the
    conjunction's coherence box."""
    x, y, z, w = rat(x), rat(y), rat(z), rat(w)
    lo, hi = frechet_bounds([x, y])
    if not lo <= z <= hi:
        raise CompoundError("(x, y, z) violates the conjunction bounds")
    return w == x + y - z


def demorgan_check(ce1, ce2, x, y, z, universe: Universe) -> bool:
    """Disjunction equals one minus the conjunction of the negations,
    value by value, with the disjunction prevision set to 1 - z; z is the
    prevision assessed on that negated conjunction."""
    x, y, z = rat(x), rat(y), rat(z)
    lo, hi = frechet_bounds([1 - x, 1 - y])
    if not lo <= z <= hi:
        raise CompoundError("negated-conjunction prevision outside its bounds")
    disj = gs_or(ce1, ce2, x, y, universe, check=False)
    neg_conj = gs_and(negate(ce1), negate(ce2), 1 - x, 1 - y, universe, check=False)
    return all(
        (a is None) == (b is None)
        and (a is None or a.constant_value() == 1 - b.constant_value())
        for a, b, _bits in _joint_classes(disj, neg_conj)
    )


def inclusion_exclusion(previsions: Mapping, n: int):
    """Alternating sum of the conjunction previsions: the prevision of
    the n-ary disjunction."""
    prevs = {frozenset(k): rat(v) for k, v in previsions.items()}
    total = ZERO
    for size in range(1, n + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in itertools.combinations(range(n), size):
            total += sign * prevs[frozenset(subset)]
    return total


def chain_family(events: Sequence[Formula]) -> tuple:
    """E1, E2|E1, E3|E1&E2, ... as conditional events."""
    out = []
    antecedent: Formula = TOP
    for e in events:
        out.append(ConditionalEvent(e, antecedent))
        antecedent = e if antecedent is TOP else And(antecedent, e)
    return tuple(out)


def chain_rule_prevision(probabilities: Sequence):
    """Product of the chain's conditional probabilities."""
    total = ONE
    for p in probabilities:
        total *= rat(p)
    return total


# -- p-consistency and p-entailment ------------------------------------------

def p_consistent(family: Sequence[ConditionalEvent], universe: Universe) -> bool:
    """Assigning probability one to every member is coherent."""
    ones = Assessment.build(tuple(family), [ONE] * len(tuple(family)))
    return check_coherence(ones, universe).coherent


def _unit_premises(verdict: CoherenceVerdict) -> tuple:
    """The family of a check_coherence verdict on an all-ones assessment,
    which must be coherent (the family p-consistent)."""
    premises = verdict.assessment
    if premises is None or any(v != 1 for v in premises.values):
        raise CompoundError("p-entailment takes the verdict of premises assessed at 1")
    if not verdict.coherent:
        raise CompoundError("family is not p-consistent")
    return premises.family


def entailment_problem(verdict: CoherenceVerdict, target: ConditionalEvent) -> ExtensionProblem:
    """The extension problem both characterizations of p-entailment
    read: the target over the verdict of check_coherence on the premises
    assessed at 1, which must be coherent (the family p-consistent)."""
    _unit_premises(verdict)
    return ExtensionProblem(verdict, target)


def p_entails(problem: ExtensionProblem) -> bool:
    """Probability one on the family forces probability one on the target.

    Under an all-ones assessment the coherent extension set is {0}, {1}
    or [0, 1]: hull mass is pinned to constituents where no member fails,
    so the target value is either free (some such constituent leaves the
    target void), or spans the hull of plain 0/1 indicator values.  Two
    exact tests therefore decide the interval.  Every round of both has
    its members at 0 or 1, so each is decided in closed form, without an
    LP (see cohkit.coherence._extreme_round).  problem: the
    entailment_problem of the premises' verdict and the target.
    """
    _unit_premises(problem.verdict)
    return problem.coherent_at(ONE) and not problem.coherent_at(ZERO)


class _ForcedPrevisions:
    """Previsions of the subset conjunctions of premises at 1 and a
    target (operand target_index) at t: t for a subset holding the
    target, 1 for the others."""

    def __init__(self, target_index: int, t):
        self.target_index = target_index
        self.t = t

    def __getitem__(self, subset: frozenset):
        return self.t if self.target_index in subset else ONE


def p_entails_absorption(problem: ExtensionProblem) -> bool:
    """Conjunction-absorption characterization of p-entailment.

    Adjoining the target to the family's conjunction must change nothing:
    at every coherent target value t, the conjunction of the premises and
    the target must have the value map of the premises' conjunction.

    Under unit premises every prevision of the joint system of the
    2^(n+1) - 1 subset conjunctions is forced by the Frechet-Hoeffding
    bounds max(sum - k + 1, 0) <= prevision <= min, which the conjunction
    keeps: a subset of premises only is at 1, and one holding the target
    is at max(t + (k - 1) - k + 1, 0) = t = min(1, t).  The premises and
    the target are a subfamily of that system, so the system at t is
    coherent only if the premises at 1 plus the target at t are.
    Conversely, such an assessment extends coherently to every subset
    conjunction (the fundamental theorem of prevision), and the extension
    can only take the forced values.  So the joint system at t is
    coherent exactly when problem.coherent_at(t) holds, and it is never
    built.  The value maps are compared at the coherent ends of [0, 1]
    and, when both are coherent, at 1/2; a partial void set of the
    conjunction is worth t when it holds the target, else 1.

    Both characterizations therefore share the coherent-t step; the
    independent part is the absorption identity on the value maps.  Note
    that a target failing only where some premise fails is not enough: it
    may still be coherently assessed below one through a vacuous
    antecedent.  problem: the entailment_problem of the premises' verdict
    and the target.
    """
    family = _unit_premises(problem.verdict)
    universe = problem.verdict.universe
    n = len(family)
    everything = family + (problem.target,)
    small = _compound_quantity(family, universe, _ForcedPrevisions(n, ONE), True)

    def maps_equal(t) -> bool:
        big = _compound_quantity(everything, universe, _ForcedPrevisions(n, t), True)
        # where only the smaller conjunction is void it is worth its own
        # prevision, forced to one
        return _forms_equal_modulo_void(big, small, ONE)

    at_zero = problem.coherent_at(ZERO)
    at_one = problem.coherent_at(ONE)
    if not (at_zero or at_one):
        raise CompoundError("no coherent target value")
    points = []
    if at_zero:
        points.append(ZERO)
    if at_one:
        points.append(ONE)
    if at_zero and at_one:
        points.append(rat(1, 2))
    return all(maps_equal(t) for t in points)


# -- structural identity checks ----------------------------------------------

IDENTITIES = ("p1", "p2a", "p2b", "p2c", "p3", "chain")


def _joint_classes(q1: ConditionalRandomQuantity, q2: ConditionalRandomQuantity) -> list:
    """(q1 form, q2 form, world bitset) over the classes of one
    refinement of the worlds by both quantities' levels; a form is None
    where its quantity is void."""
    members = [(tuple(enumerate(bits for _f, bits in q.levels)), None) for q in (q1, q2)]
    return [
        (
            None if i is None else q1.levels[i][0],
            None if j is None else q2.levels[j][0],
            bits,
        )
        for (i, j), bits in refine(q1.universe.all_set, members).items()
    ]


def _forms_equal(q1: ConditionalRandomQuantity, q2: ConditionalRandomQuantity) -> bool:
    return all(a == b for a, b, _bits in _joint_classes(q1, q2))


def _sum_quantity(q1, q2):
    levels = []
    for a, b, bits in _joint_classes(q1, q2):
        if (a is None) != (b is None):
            raise CompoundError("void patterns differ; sum undefined")
        if a is not None:
            levels.append((a + b, bits))
    return ConditionalRandomQuantity(q1.universe, tuple(levels))


def _check_p2b() -> bool:
    u = Universe(("A", "H", "K"))
    ah = ConditionalEvent(_A, _H)
    kk = ConditionalEvent(_K, _K)
    x = LinForm.symbol("x")
    conj = gs_and(ah, kk, x, ONE, u, check=False)
    target = event_quantity(ah, u)
    # wherever exactly one side is void its value must match the other's
    # worth x; on the common void part the prevision equation z = x holds
    # by the comparison convention
    return _forms_equal_modulo_void(conj, target, x)


def _forms_equal_modulo_void(q1, q2, void_value) -> bool:
    """Equality where either quantity is void and the other is not: there
    the other must carry void_value."""
    void = LinForm.of(void_value)
    return all(
        (void if a is None else a) == (void if b is None else b)
        for a, b, _bits in _joint_classes(q1, q2)
    )


def _check_p2a() -> bool:
    u = Universe(("A", "H", "B", "K"))
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    conj1 = gs_and(ah, bk, x, y, u, check=False)
    conj2 = gs_and(ah, negate(bk), x, 1 - y, u, check=False)
    # the two compounds share the conditioning H|K-or, so the sum is a
    # quantity on the same conditioning; its own prevision must be x
    total = _sum_quantity(conj1, conj2)
    target = event_quantity(ah, u)
    return _forms_equal_modulo_void(total, target, x)


def _check_p2c() -> bool:
    u = Universe(("A", "H", "B", "K"))
    bk = ConditionalEvent(_B, _K)
    y = LinForm.symbol("y")
    both = gs_or(bk, negate(bk), y, 1 - y, u, check=False)
    both = both.substitute({"w": ONE})
    kk = event_quantity(ConditionalEvent(_K, _K), u)
    return _forms_equal(both, kk) and _check_p2b() and _check_p2a()


def _check_p3() -> bool:
    u = Universe(("A", "H", "B", "K"))
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    zneg = LinForm.symbol("zneg")
    disj = gs_or(ah, bk, x, y, u, check=False)
    conj = gs_and(negate(ah), bk, 1 - x, y, u, check=False)
    rhs_levels = tuple(
        ((x if a is None else a) + (zneg if b is None else b), bits)
        for a, b, bits in _joint_classes(event_quantity(ah, u), conj)
        if a is not None or b is not None
    )
    rhs = ConditionalRandomQuantity(u, rhs_levels)
    return _forms_equal(disj, rhs)


def _check_chain() -> bool:
    u = Universe(("E", "H", "K"))
    e, h, k = Atom("E"), Atom("H"), Atom("K")
    inner = ConditionalEvent(e, h & k)
    outer = ConditionalEvent(h, k)
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    conj = gs_and(inner, outer, x, y, u, check=False)
    target = event_quantity(ConditionalEvent(e & h, k), u)
    if not _forms_equal_modulo_void(conj, target, LinForm.symbol("z")):
        return False
    # prevision collapse: the only coherent target value is x * y
    samples = [
        (rat(1, 2), rat(1, 3)),
        (rat(2, 3), rat(3, 4)),
        (ONE, rat(1, 2)),
        (ZERO, rat(2, 5)),
        (rat(3, 7), ONE),
    ]
    for xv, yv in samples:
        base = Assessment.build([inner, outer], [xv, yv])
        problem = ExtensionProblem(check_coherence(base, u), ConditionalEvent(e & h, k))
        want = xv * yv
        if not problem.coherent_at(want):
            return False
        for other in (want / 2, (want + 1) / 2):
            if other != want and problem.coherent_at(other):
                return False
    return True


def _forced_probability(true_bits: int, false_bits: int):
    """Value forced on a conditional event when it can never be false
    (one) or never true (zero); None when both cases are possible."""
    if false_bits == 0 and true_bits != 0:
        return ONE
    if true_bits == 0 and false_bits != 0:
        return ZERO
    return None


def _check_p1() -> bool:
    """Inclusion-or-degeneracy is equivalent to the conjunction
    collapsing onto the first operand, across all emptiness patterns of
    the pair regions."""
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    for _selected, u in _pair_region_universes():
        t1, f1, _ = conditional_sets(ah, u)
        t2, f2, _ = conditional_sets(bk, u)
        subs = {}
        forced_x = _forced_probability(t1, f1)
        forced_y = _forced_probability(t2, f2)
        if forced_x is not None:
            subs["x"] = forced_x
        if forced_y is not None:
            subs["y"] = forced_y
        conj = gs_and(ah, bk, x, y, u, check=False).substitute(subs)
        target = event_quantity(ah, u)
        equal = _forms_equal_modulo_void(conj, target, x.substitute(subs))
        gn = (t1 & ~t2 == 0) and (f2 & ~f1 == 0)
        leq = gn or t1 == 0 or f2 == 0
        if equal != leq:
            return False
    return True


def compound_identity_check(identity: str) -> bool:
    """Structural verification of the compound-conditional identities."""
    checks = {
        "p1": _check_p1,
        "p2a": _check_p2a,
        "p2b": _check_p2b,
        "p2c": _check_p2c,
        "p3": _check_p3,
        "chain": _check_chain,
    }
    if identity not in checks:
        raise CompoundError(
            f"unknown identity {identity!r}; expected one of {IDENTITIES}"
        )
    return checks[identity]()
