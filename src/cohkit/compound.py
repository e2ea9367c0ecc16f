"""Conjunction and disjunction of conditionals as random quantities.

Here a compound of conditional events is not a third conditional event
but a finitely-valued random quantity conditioned on the disjunction of
the antecedents: the binary conjunction takes 1 where both operands are
true, 0 where either is false, the opposite operand's probability where
exactly one is void, and its own prevision where both are void.  Values
are stored as linear forms over named prevision symbols so identities
can be checked structurally before any numbers are plugged in.

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
from .events import (
    Formula,
    Or,
    SIG_FALSE,
    SIG_TRUE,
    SIG_VOID,
    Universe,
    conditional_sets,
    enumerate_constituents,
    refine,
    set_bits,
)
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


def _lf(value) -> LinForm:
    return LinForm.of(value)


# -- conditional random quantities -------------------------------------------

@dataclass(frozen=True)
class ConditionalRandomQuantity:
    """Value per world (linear forms), conditioned on a formula.

    world_forms holds one LinForm per universe world, None exactly on the
    worlds where the conditioning formula fails; there the quantity is
    worth its own prevision, named by self_symbol.
    """

    universe: Universe
    conditioning: Formula
    world_forms: tuple
    self_symbol: str

    def substitute(self, mapping: Mapping[str, object]) -> "ConditionalRandomQuantity":
        return ConditionalRandomQuantity(
            self.universe,
            self.conditioning,
            tuple(f if f is None else f.substitute(mapping) for f in self.world_forms),
            self.self_symbol,
        )

    def world_values(self, universe: Universe):
        """Numeric per-world values for the coherence engine."""
        if universe is not self.universe and universe.worlds != self.universe.worlds:
            raise CompoundError("universe mismatch")
        return tuple(
            None if f is None else f.constant_value() for f in self.world_forms
        )

    def values_in_range(self) -> bool:
        return all(
            f is None or (0 <= f.constant_value() <= 1) for f in self.world_forms
        )


def event_quantity(
    ce: ConditionalEvent, universe: Universe, probability
) -> ConditionalRandomQuantity:
    """A conditional event as a random quantity: 1, 0, or its probability."""
    prob = _lf(probability)
    true, false, _void = conditional_sets(ce, universe)
    forms: list = [None] * len(universe)
    _fill(forms, true, _lf(1))
    _fill(forms, false, _lf(0))
    name = prob.terms[0][0] if (prob.const == 0 and len(prob.terms) == 1) else "p"
    return ConditionalRandomQuantity(universe, ce.antecedent, tuple(forms), name)


def _fill(forms: list, bits: int, value) -> None:
    """Set the forms of the worlds in bits to value."""
    for pos in set_bits(bits):
        forms[pos] = value


def _binary_compound(ce1, ce2, universe, x, y, self_name, conjunction: bool):
    table = enumerate_constituents([ce1, ce2], universe)
    x = _lf(x)
    y = _lf(y)
    forms: list = [None] * len(universe)
    for constituent in table.constituents:
        s1, s2 = constituent.signature
        if conjunction:
            if SIG_FALSE in (s1, s2):
                value = _lf(0)
            elif s1 == SIG_TRUE and s2 == SIG_TRUE:
                value = _lf(1)
            elif s1 == SIG_TRUE:  # other operand void
                value = y
            else:
                value = x
        else:
            if SIG_TRUE in (s1, s2):
                value = _lf(1)
            elif s1 == SIG_FALSE and s2 == SIG_FALSE:
                value = _lf(0)
            elif s1 == SIG_FALSE:
                value = y
            else:
                value = x
        _fill(forms, constituent.world_bits, value)
    conditioning = Or(ce1.antecedent, ce2.antecedent)
    return ConditionalRandomQuantity(universe, conditioning, tuple(forms), self_name)


def _require_coherent_pair(ce1, ce2, x, y, universe):
    pair = Assessment.build([ce1, ce2], [x, y])
    if not check_coherence(pair, universe).coherent:
        raise CompoundError("operand assessment is incoherent")


def gs_and(
    ce1: ConditionalEvent,
    ce2: ConditionalEvent,
    x,
    y,
    universe: Universe,
    self_name: str = "z",
    check: bool = True,
) -> ConditionalRandomQuantity:
    """Five-valued conjunction: 1, 0, x, y, or its own prevision."""
    if check:
        _require_coherent_pair(ce1, ce2, x, y, universe)
    return _binary_compound(ce1, ce2, universe, x, y, self_name, True)


def gs_or(
    ce1: ConditionalEvent,
    ce2: ConditionalEvent,
    x,
    y,
    universe: Universe,
    self_name: str = "w",
    check: bool = True,
) -> ConditionalRandomQuantity:
    """Five-valued disjunction, dual to gs_and."""
    if check:
        _require_coherent_pair(ce1, ce2, x, y, universe)
    return _binary_compound(ce1, ce2, universe, x, y, self_name, False)


def _subset_name(prefix: str, subset: frozenset) -> str:
    return prefix + "{" + ",".join(str(i + 1) for i in sorted(subset)) + "}"


def _nary_compound(family, universe, previsions, conjunction: bool, check: bool):
    n = len(family)
    if n == 0:
        raise CompoundError("empty family")
    table = enumerate_constituents(family, universe)
    prevs = {frozenset(k): rat(v) for k, v in previsions.items()}
    full = frozenset(range(n))
    needed = [
        frozenset(s)
        for size in range(1, n + 1)
        for s in itertools.combinations(range(n), size)
    ]
    for s in needed:
        if s not in prevs:
            raise CompoundError(f"missing prevision for subset {sorted(s)}")
    if check and not _system_coherent(family, universe, prevs, conjunction):
        raise CompoundError("incoherent prevision system")

    forms: list = [None] * len(universe)
    for constituent in table.constituents:
        sig = constituent.signature
        voids = frozenset(i for i, code in enumerate(sig) if code == SIG_VOID)
        if conjunction:
            if any(code == SIG_FALSE for code in sig):
                value = _lf(0)
            elif not voids:
                value = _lf(1)
            else:
                value = _lf(prevs[voids])
        else:
            if any(code == SIG_TRUE for code in sig):
                value = _lf(1)
            elif not voids:
                value = _lf(0)
            else:
                value = _lf(prevs[voids])
        _fill(forms, constituent.world_bits, value)
    conditioning = family[0].antecedent
    for ce in family[1:]:
        conditioning = Or(conditioning, ce.antecedent)
    prefix = "x" if conjunction else "y"
    return ConditionalRandomQuantity(
        universe, conditioning, tuple(forms), _subset_name(prefix, full)
    )


def _compound_levels(family, universe, prevs, subset: frozenset, conjunction: bool):
    """(value, world bitset) levels of the subset compound, void where
    all its antecedents fail.  An operand false (conjunction) or true
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
    """Joint hull check of all subset compounds against their previsions."""
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
            num = ZERO
            den = ZERO
            for value, bits in _compound_levels(family, universe, prevs, s, conjunction):
                mass = sum((masses[pos] for pos in set_bits(bits)), ZERO)
                den += mass
                num += mass * value
            if den == 0:
                raise CompoundError("zero mass on conditioning formula")
            prevs[s] = num / den
    return prevs


def prevision_from_distribution(
    crq: ConditionalRandomQuantity, mu, universe: Optional[Universe] = None
):
    """Conditional expectation of a numeric-valued quantity under a world
    distribution; the conditioning event needs positive mass."""
    u = crq.universe if universe is None else universe
    masses = _normalize_mu(mu, u)
    values = crq.world_values(u)
    num = ZERO
    den = ZERO
    for pos, value in enumerate(values):
        if value is None:
            continue
        den += masses[pos]
        num += masses[pos] * value
    if den == 0:
        raise CompoundError("zero mass on conditioning formula")
    return num / den


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
    for a, b in zip(disj.world_forms, neg_conj.world_forms):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if a.constant_value() != 1 - b.constant_value():
            return False
    return True


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
    from .events import TOP, And as FAnd

    out = []
    antecedent: Formula = TOP
    for e in events:
        out.append(ConditionalEvent(e, antecedent))
        antecedent = e if antecedent is TOP else FAnd(antecedent, e)
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


def p_entails(
    family: Sequence[ConditionalEvent],
    target: ConditionalEvent,
    universe: Universe,
    cap: Optional[int] = None,
    verdict: Optional[CoherenceVerdict] = None,
) -> bool:
    """Probability one on the family forces probability one on the target.

    Under an all-ones assessment the coherent extension set is {0}, {1}
    or [0, 1]: hull mass is pinned to constituents where no member fails,
    so the target value is either free (some such constituent leaves the
    target void), or spans the hull of plain 0/1 indicator values.  Two
    exact tests therefore decide the interval.  verdict: the all-ones
    assessment's check_coherence result, when already known.
    """
    family = tuple(family)
    ones = Assessment.build(family, [ONE] * len(family))
    if verdict is None:
        verdict = check_coherence(ones, universe)
    if not verdict.coherent:
        raise CompoundError("family is not p-consistent")
    problem = ExtensionProblem(ones, target, universe, cap, verdict)
    return problem.coherent_at(ONE) and not problem.coherent_at(ZERO)


def p_entails_absorption(
    family: Sequence[ConditionalEvent],
    target: ConditionalEvent,
    universe: Universe,
    verdict: Optional[CoherenceVerdict] = None,
) -> bool:
    """Conjunction-absorption characterization of p-entailment.

    Adjoining the target to the family's conjunction must change nothing.
    Under unit premises every prevision in the enlarged conjunction
    system is forced: base subsets to one, subsets containing the target
    to the target's value t.  The identity holds exactly when the two
    conjunctions' value maps agree at every prevision assignment the
    joint system admits, so the coherent t values are found through the
    joint system and the maps are compared there.  Note that a target
    failing only where some premise fails is not enough: it may still be
    coherently assessed below one through a vacuous antecedent.  verdict:
    the all-ones assessment's check_coherence result, when already known.
    """
    family = tuple(family)
    consistent = p_consistent(family, universe) if verdict is None else verdict.coherent
    if not consistent:
        raise CompoundError("family is not p-consistent")
    n = len(family)
    everything = family + (target,)

    def prevision_system(t):
        prevs = {}
        for size in range(1, n + 2):
            for subset in itertools.combinations(range(n + 1), size):
                s = frozenset(subset)
                prevs[s] = rat(t) if n in s else ONE
        return prevs

    def joint_coherent(t) -> bool:
        return _system_coherent(everything, universe, prevision_system(t), True)

    def maps_equal(t) -> bool:
        big = gs_and_n(everything, prevision_system(t), universe, check=False)
        small = gs_and_n(
            family,
            {
                frozenset(s): ONE
                for size in range(1, n + 1)
                for s in itertools.combinations(range(n), size)
            },
            universe,
            check=False,
        )
        # where only the smaller conjunction is void it is worth its own
        # prevision, forced to one
        return _forms_equal_modulo_void(big, small, ONE)

    at_zero = joint_coherent(ZERO)
    at_one = joint_coherent(ONE)
    if not (at_zero or at_one):
        raise CompoundError("no coherent target value in the joint system")
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


def _forms_equal(q1: ConditionalRandomQuantity, q2: ConditionalRandomQuantity) -> bool:
    for a, b in _distinct_form_pairs(q1, q2):
        if (a is None) != (b is None):
            return False
        if a is not None and a != b:
            return False
    return True


def _sum_quantity(q1, q2, conditioning, self_symbol):
    forms = []
    for a, b in zip(q1.world_forms, q2.world_forms):
        if a is None and b is None:
            forms.append(None)
        elif a is None or b is None:
            raise CompoundError("void patterns differ; sum undefined")
        else:
            forms.append(a + b)
    return ConditionalRandomQuantity(q1.universe, conditioning, tuple(forms), self_symbol)


def _event_forms(ce, universe, prob) -> ConditionalRandomQuantity:
    return event_quantity(ce, universe, prob)


def _check_p2b() -> bool:
    u = Universe(("A", "H", "K"))
    ah = ConditionalEvent(_A, _H)
    kk = ConditionalEvent(_K, _K)
    x = LinForm.symbol("x")
    conj = gs_and(ah, kk, x, ONE, u, self_name="z", check=False)
    target = _event_forms(ah, u, x)
    # wherever exactly one side is void its value must match the other's
    # worth x; on the common void part the prevision equation z = x holds
    # by the comparison convention
    return _forms_equal_modulo_void(conj, target, x)


def _distinct_form_pairs(q1, q2) -> list:
    """The distinct (q1 form, q2 form) pairs over the worlds.  Worlds are
    grouped by the identities of their forms, which compound quantities
    share across the worlds of a constituent, so the forms themselves
    are compared once per pair rather than once per world."""
    forms = q1.world_forms + q2.world_forms
    objects = dict(zip(map(id, forms), forms))
    pairs = set(zip(map(id, q1.world_forms), map(id, q2.world_forms)))
    return [(objects[a], objects[b]) for a, b in pairs]


def _forms_equal_modulo_void(q1, q2, void_value) -> bool:
    """Equality where q1's void worlds must carry q2's value void_value."""
    for a, b in _distinct_form_pairs(q1, q2):
        if a is None and b is None:
            continue
        if a is None:
            if b != LinForm.of(void_value):
                return False
            continue
        if b is None:
            if a != LinForm.of(void_value):
                return False
            continue
        if a != b:
            return False
    return True


def _check_p2a() -> bool:
    u = Universe(("A", "H", "B", "K"))
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    conj1 = gs_and(ah, bk, x, y, u, self_name="z1", check=False)
    conj2 = gs_and(ah, negate(bk), x, 1 - y, u, self_name="z2", check=False)
    # the two compounds share the conditioning H|K-or, so the sum is a
    # quantity on the same conditioning; its own prevision must be x
    total = _sum_quantity(conj1, conj2, conj1.conditioning, "x")
    target = _event_forms(ah, u, x)
    return _forms_equal_modulo_void(total, target, x)


def _check_p2c() -> bool:
    u = Universe(("A", "H", "B", "K"))
    bk = ConditionalEvent(_B, _K)
    y = LinForm.symbol("y")
    both = gs_or(bk, negate(bk), y, 1 - y, u, self_name="w", check=False)
    both = both.substitute({"w": ONE})
    kk = _event_forms(ConditionalEvent(_K, _K), u, ONE)
    return _forms_equal(both, kk) and _check_p2b() and _check_p2a()


def _check_p3() -> bool:
    u = Universe(("A", "H", "B", "K"))
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    zneg = LinForm.symbol("zneg")
    disj = gs_or(ah, bk, x, y, u, self_name="w", check=False)
    conj = gs_and(negate(ah), bk, 1 - x, y, u, self_name="zneg", check=False)
    rhs_forms = []
    ah_q = _event_forms(ah, u, x)
    for a, b in zip(ah_q.world_forms, conj.world_forms):
        if a is None and b is None:
            rhs_forms.append(None)
        else:
            left = a if a is not None else x
            right = b if b is not None else zneg
            rhs_forms.append(left + right)
    rhs = ConditionalRandomQuantity(u, disj.conditioning, tuple(rhs_forms), "w")
    return _forms_equal(disj, rhs)


def _check_chain() -> bool:
    u = Universe(("E", "H", "K"))
    from .events import Atom

    e, h, k = Atom("E"), Atom("H"), Atom("K")
    inner = ConditionalEvent(e, h & k)
    outer = ConditionalEvent(h, k)
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    conj = gs_and(inner, outer, x, y, u, self_name="z", check=False)
    target = _event_forms(ConditionalEvent(e & h, k), u, LinForm.symbol("z"))
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
        problem = ExtensionProblem(base, ConditionalEvent(e & h, k), u)
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
        conj = gs_and(ah, bk, x, y, u, self_name="z", check=False).substitute(subs)
        target = _event_forms(ah, u, x.substitute(subs))
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
