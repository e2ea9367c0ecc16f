import itertools
import random

import pytest

from cohkit.coherence import (
    Assessment,
    ExtensionProblem,
    check_coherence,
    extension_bounds,
    world_levels,
)
from cohkit.compound import (
    CompoundError,
    IDENTITIES,
    LinForm,
    chain_family,
    chain_rule_prevision,
    compound_identity_check,
    demorgan_check,
    entailment_problem,
    frechet_bounds,
    frechet_bounds_or,
    gs_and,
    gs_and_n,
    gs_or,
    gs_or_n,
    inclusion_exclusion,
    mu_previsions,
    p_consistent,
    p_entails,
    p_entails_absorption,
    prevision_from_distribution,
    sum_rule_check,
)
from cohkit.events import Atom, EventError, TOP, Universe
from cohkit.rationals import ONE, ZERO, rat
from cohkit.trivalent import ConditionalEvent, free_universe, negate

from oracles import absorption_joint_oracle, compound_world_forms, expand, world_signatures
from oracles import lp_coherent, p_entails_lp

A, B, H, K, E = Atom("A"), Atom("B"), Atom("H"), Atom("K"), Atom("E")
AH = ConditionalEvent(A, H)
BK = ConditionalEvent(B, K)


def world_index(u, **assignment):
    for pos in range(len(u)):
        if u.assignment(pos) == assignment:
            return pos
    raise LookupError(assignment)


def region_value(crq, u, predicate):
    forms = expand(crq.levels, len(u))
    values = {
        forms[pos]
        for pos in range(len(u))
        if predicate(u.assignment(pos))
    }
    assert len(values) == 1, values
    return values.pop()


def unit_verdict(family, universe):
    """check_coherence of the family assessed at 1, which p-entailment takes."""
    return check_coherence(Assessment.build(family, [ONE] * len(family)), universe)


def unit_problem(family, universe, target):
    """The entailment problem of the family assessed at 1 and the target."""
    return entailment_problem(unit_verdict(family, universe), target)


def test_linform_arithmetic():
    x = LinForm.symbol("x")
    y = LinForm.symbol("y")
    combo = (1 - x) + (x - y).scale(rat(2))
    assert combo == LinForm.of(1) + x - y.scale(rat(2))
    assert combo.substitute({"x": rat(1, 2), "y": rat(1, 4)}) == LinForm.of(1)
    assert (x - x) == LinForm.of(0)
    assert not x.is_constant() and LinForm.of(rat(3, 7)).constant_value() == rat(3, 7)
    assert x.substitute({"x": y}) == y
    with pytest.raises(CompoundError):
        x.constant_value()


def test_gs_and_value_table():
    u = free_universe()
    x, y = rat(2, 7), rat(3, 5)
    conj = gs_and(AH, BK, x, y, u)
    lf = LinForm.of
    # the five value classes of the conjunction
    assert region_value(conj, u, lambda w: w["A"] and w["H"] and w["B"] and w["K"]) == lf(1)
    assert region_value(conj, u, lambda w: w["A"] and w["H"] and not w["B"] and w["K"]) == lf(0)
    assert region_value(conj, u, lambda w: w["A"] and w["H"] and not w["K"]) == lf(y)
    assert region_value(conj, u, lambda w: not w["A"] and w["H"]) == lf(0)
    assert region_value(conj, u, lambda w: not w["H"] and w["B"] and w["K"]) == lf(x)
    assert region_value(conj, u, lambda w: not w["H"] and not w["B"] and w["K"]) == lf(0)
    # both void: worth its own prevision
    forms = expand(conj.levels, len(u))
    assert all(
        forms[pos] is None
        for pos in range(len(u))
        if not u.assignment(pos)["H"] and not u.assignment(pos)["K"]
    )


def test_gs_or_value_table():
    u = free_universe()
    x, y = rat(2, 7), rat(3, 5)
    disj = gs_or(AH, BK, x, y, u)
    lf = LinForm.of
    assert region_value(disj, u, lambda w: w["A"] and w["H"] and w["B"] and w["K"]) == lf(1)
    assert region_value(disj, u, lambda w: not w["A"] and w["H"] and not w["B"] and w["K"]) == lf(0)
    assert region_value(disj, u, lambda w: not w["H"] and not w["B"] and w["K"]) == lf(x)
    assert region_value(disj, u, lambda w: not w["A"] and w["H"] and not w["K"]) == lf(y)
    assert region_value(disj, u, lambda w: w["A"] and w["H"] and not w["K"]) == lf(1)


def test_gs_and_idempotent():
    u = Universe(["A", "H"])
    x = rat(4, 9)
    conj = gs_and(AH, AH, x, x, u)
    indicator = [
        None
        if not w["H"]
        else (ONE if w["A"] else ZERO)
        for w in u.assignments()
    ]
    got = [None if f is None else f.constant_value() for f in expand(conj.levels, len(u))]
    assert got == indicator


def _random_literal(rng, names):
    atom = Atom(rng.choice(names))
    return atom if rng.random() < 0.5 else ~atom


def _random_formula(rng, names):
    f = _random_literal(rng, names)
    if rng.random() < 0.6:
        g = _random_literal(rng, names)
        f = f & g if rng.random() < 0.5 else f | g
    return f


def test_compounds_match_the_signature_oracle():
    """gs_and, gs_or (numeric and symbolic x, y), gs_and_n and gs_or_n
    expand world by world to the signature case analysis over the
    constituents, on seeded random families over 2-6 atoms, some with
    constraints."""
    rng = random.Random(20190415)
    symbols = (LinForm.symbol("x"), LinForm.symbol("y"))
    checked = 0
    while checked < 60:
        names = "ABCDEF"[: rng.randint(2, 6)]
        constraints = [
            (_random_literal(rng, names) & _random_literal(rng, names), False)
            for _ in range(rng.choice((0, 0, 1, 2)))
        ]
        try:
            u = Universe(names, constraints)
        except EventError:
            continue
        family = [
            ConditionalEvent(
                _random_formula(rng, names),
                TOP if rng.random() < 0.2 else _random_formula(rng, names),
            )
            for _ in range(rng.randint(1, 4))
        ]
        if not all(u.satisfiable(ce.antecedent) for ce in family):
            continue
        prevs = {
            frozenset(s): rat(rng.randint(0, 4), 4)
            for size in range(1, len(family) + 1)
            for s in itertools.combinations(range(len(family)), size)
        }
        for build, conjunction in ((gs_and_n, True), (gs_or_n, False)):
            got = expand(build(family, prevs, u, check=False).levels, len(u))
            assert got == compound_world_forms(family, u, prevs, conjunction)
        if len(family) >= 2:
            pair = family[:2]
            numeric = (prevs[frozenset([0])], prevs[frozenset([1])])
            for x, y in (numeric, symbols):
                pair_prevs = {frozenset([0]): x, frozenset([1]): y}
                for build, conjunction in ((gs_and, True), (gs_or, False)):
                    got = expand(build(*pair, x, y, u, check=False).levels, len(u))
                    assert got == compound_world_forms(pair, u, pair_prevs, conjunction)
        checked += 1


def test_quantity_rejects_a_universe_with_permuted_atoms():
    # same world masks, other atom order: the positions name other worlds
    u = Universe(["A", "H", "B", "K"])
    permuted = Universe(["A", "H", "K", "B"])
    x, y = rat(9, 10), rat(1, 5)
    base = Assessment.build([AH, BK], [x, y])
    conj = gs_and(AH, BK, x, y, u)
    bounds = extension_bounds(base, conj, u)
    assert (bounds.lower, bounds.upper) == (rat(1, 10), rat(1, 5))
    assert permuted.worlds == u.worlds
    with pytest.raises(CompoundError):
        extension_bounds(base, conj, permuted)
    with pytest.raises(CompoundError):
        conj.numeric_levels(permuted)


def test_gs_rejects_incoherent_operands():
    u = Universe(["A", "H"])
    sure = ConditionalEvent(A, A)
    with pytest.raises(CompoundError):
        gs_and(sure, AH, rat(1, 2), rat(1, 2), u)  # P(A|A) must be 1


def test_gs_rejects_degenerate_conditioning():
    from cohkit.events import EmptyConditioningError

    u = Universe(["A", "H", "B", "K"], [(H | K, False)])
    with pytest.raises(EmptyConditioningError):
        gs_and(AH, BK, rat(1, 2), rat(1, 2), u, check=False)


def test_prevision_under_independence():
    u = free_universe()
    rng = random.Random(3)
    for _ in range(8):
        probs = {a: rat(rng.randint(1, 5), 6) for a in "AHBK"}
        mu = []
        for w in u.assignments():
            mass = ONE
            for a in "AHBK":
                mass *= probs[a] if w[a] else 1 - probs[a]
            mu.append(mass)
        x, y = probs["A"], probs["B"]  # independence collapses the ratio
        conj = gs_and(AH, BK, x, y, u, check=False)
        assert prevision_from_distribution(conj, mu) == probs["A"] * probs["B"]


def test_prevision_concentrated_and_uniform():
    u = free_universe()
    mu = [ZERO] * len(u)
    mu[world_index(u, A=True, H=True, B=True, K=True)] = ONE
    conj = gs_and(AH, BK, ONE, ONE, u, check=False)
    assert prevision_from_distribution(conj, mu) == 1

    # uniform over the eight effective constituent classes, x = y = 1/2
    mu2 = [ZERO] * len(u)
    for _sig, bits in world_signatures([AH, BK], u)[:-1]:  # the all-void C_0 sorts last
        size = bin(bits).count("1")
        for pos in range(len(u)):
            if bits >> pos & 1:
                mu2[pos] = rat(1, 8) / size
    conj2 = gs_and(AH, BK, rat(1, 2), rat(1, 2), u)
    assert prevision_from_distribution(conj2, mu2) == rat(1, 4)


def test_prevision_requires_mass_on_conditioning():
    u = free_universe()
    conj = gs_and(AH, BK, rat(1, 2), rat(1, 2), u)
    mu = [ZERO] * len(u)
    mu[world_index(u, A=True, H=False, B=True, K=False)] = ONE  # all mass off H|K
    with pytest.raises(CompoundError):
        prevision_from_distribution(conj, mu)


def test_demorgan_samples():
    u = free_universe()
    rng = random.Random(11)
    for _ in range(25):
        x = rat(rng.randint(0, 12), 12)
        y = rat(rng.randint(0, 12), 12)
        lo, hi = frechet_bounds([1 - x, 1 - y])
        z = lo + (hi - lo) * rat(rng.randint(0, 4), 4)
        assert demorgan_check(AH, BK, x, y, z, u)
    assert demorgan_check(AH, BK, ONE, ONE, ZERO, u)


def test_sum_rule():
    assert sum_rule_check(rat(2, 3), rat(2, 3), rat(1, 3), ONE)
    assert sum_rule_check(ONE, ONE, ONE, ONE)
    assert sum_rule_check(rat(2, 5), rat(3, 10), rat(1, 5), rat(1, 2))
    assert not sum_rule_check(rat(2, 5), rat(3, 10), rat(1, 5), rat(2, 5))
    with pytest.raises(CompoundError):
        sum_rule_check(rat(1, 2), rat(1, 2), rat(3, 4), rat(1, 4))


def test_frechet_bounds():
    assert frechet_bounds([rat(9, 10)] * 3) == (rat(7, 10), rat(9, 10))
    assert frechet_bounds([ONE, ONE]) == (ONE, ONE)
    assert frechet_bounds([rat(2, 3), rat(2, 3)]) == (rat(1, 3), rat(2, 3))
    assert frechet_bounds_or([rat(9, 10)] * 3) == (rat(9, 10), ONE)
    with pytest.raises(CompoundError):
        frechet_bounds([rat(3, 2)])


def test_gs_and_n_reduces_to_binary():
    u = free_universe()
    x, y = rat(1, 3), rat(2, 3)
    mu = None
    prevs = {(0,): x, (1,): y, (0, 1): rat(1, 4)}
    conj_n = gs_and_n([AH, BK], prevs, u)
    conj_2 = gs_and(AH, BK, x, y, u)
    assert expand(conj_n.levels, len(u)) == expand(conj_2.levels, len(u))
    # unary case: the operand's indicator
    single = gs_and_n([AH], {(0,): x}, u)
    expected = expand(world_levels(AH, u), len(u))
    got = tuple(None if f is None else f.constant_value() for f in expand(single.levels, len(u)))
    assert got == expected


def test_gs_and_n_rejects_incoherent_system():
    u = free_universe()
    prevs = {(0,): rat(1, 3), (1,): rat(1, 3), (0, 1): rat(2, 3)}  # above min
    with pytest.raises(CompoundError):
        gs_and_n([AH, BK], prevs, u)


def test_gs_and_n_four_conditionals():
    # 15 subset compounds, past the family cap of the extension routes
    names = ["E1", "E2", "E3", "E4", "H1", "H2", "H3", "H4"]
    u = Universe(names)
    family = [ConditionalEvent(Atom(f"E{i}"), Atom(f"H{i}")) for i in range(1, 5)]
    masses = [rat(1 + pos % 7) for pos in range(len(u))]
    total = sum(masses, ZERO)
    prevs = mu_previsions(family, [m / total for m in masses], u)
    assert len(prevs) == 15
    conj = gs_and_n(family, prevs, u)
    assert conj.numeric_levels(u)
    three_way = [prevs[s] for s in prevs if len(s) == 3]
    prevs[frozenset(range(4))] = min(three_way) + rat(1, 100)
    with pytest.raises(CompoundError):
        gs_and_n(family, prevs, u)


def test_chain_collapse_and_product():
    # E1, E2|E1, E3|E1 E2: the conjunction is the plain product indicator
    u = Universe(["E1", "E2", "E3"])
    e1, e2, e3 = Atom("E1"), Atom("E2"), Atom("E3")
    family = chain_family([e1, e2, e3])
    assert family[0].antecedent is TOP
    rng = random.Random(5)
    for _ in range(6):
        mu = [rat(rng.randint(1, 9)) for _ in range(len(u))]
        total = sum(mu, ZERO)
        mu = [m / total for m in mu]
        prevs = mu_previsions(family, mu, u)
        conj = gs_and_n(family, prevs, u)
        values = [f.constant_value() for f in expand(conj.levels, len(u))]
        indicator = [
            ONE if (w["E1"] and w["E2"] and w["E3"]) else ZERO
            for w in u.assignments()
        ]
        assert values == indicator
        # prevision equals the product of the chain probabilities
        probs = [prevs[frozenset([0])]]
        mass_e1 = sum(
            (m for m, w in zip(mu, u.assignments()) if w["E1"]), ZERO
        )
        mass_e12 = sum(
            (m for m, w in zip(mu, u.assignments()) if w["E1"] and w["E2"]), ZERO
        )
        mass_e123 = sum(
            (m for m, w in zip(mu, u.assignments()) if w["E1"] and w["E2"] and w["E3"]),
            ZERO,
        )
        probs.append(mass_e12 / mass_e1)
        probs.append(mass_e123 / mass_e12)
        product = chain_rule_prevision(probs)
        assert prevision_from_distribution(conj, mu) == product
        assert prevs[frozenset([0, 1, 2])] == product


def test_chain_rule_edge_cases():
    assert chain_rule_prevision([rat(1, 2), rat(1, 2)]) == rat(1, 4)
    assert chain_rule_prevision([rat(0), rat(3, 4)]) == 0
    assert chain_rule_prevision([rat(5, 7)]) == rat(5, 7)


def test_inclusion_exclusion():
    # two members: the sum rule
    prevs = {(0,): rat(2, 5), (1,): rat(3, 10), (0, 1): rat(1, 5)}
    assert inclusion_exclusion(prevs, 2) == rat(1, 2)
    # identical members: everything collapses to the common value
    x = rat(3, 8)
    prevs3 = {s: x for size in (1, 2, 3) for s in itertools.combinations(range(3), size)}
    assert inclusion_exclusion(prevs3, 3) == x


def test_inclusion_exclusion_against_disjunction():
    u = Universe(["E1", "E2", "E3"])
    e1, e2, e3 = Atom("E1"), Atom("E2"), Atom("E3")
    family = chain_family([e1, e2, e3])
    rng = random.Random(9)
    for _ in range(4):
        mu = [rat(rng.randint(1, 9)) for _ in range(len(u))]
        total = sum(mu, ZERO)
        mu = [m / total for m in mu]
        conj_prevs = mu_previsions(family, mu, u, conjunction=True)
        disj_prevs = mu_previsions(family, mu, u, conjunction=False)
        disj = gs_or_n(family, disj_prevs, u, check=False)
        direct = prevision_from_distribution(disj, mu)
        assert inclusion_exclusion(conj_prevs, 3) == direct
        assert disj_prevs[frozenset(range(3))] == direct


def test_p_consistency():
    u = free_universe()
    assert p_consistent([AH, BK], u)
    assert not p_consistent([AH, negate(AH)], u)
    u3 = Universe(["E", "H", "K"])
    inner = ConditionalEvent(E, H & K)
    outer = ConditionalEvent(H, K)
    assert p_consistent([inner, outer], u3)


def test_p_entailment_suite():
    u3 = Universe(["E", "H", "K"])
    inner = ConditionalEvent(E, H & K)
    outer = ConditionalEvent(H, K)
    combined = ConditionalEvent(E & H, K)
    assert p_entails(unit_problem([inner, outer], u3, combined))
    u = free_universe()
    assert p_entails(unit_problem([AH], u, AH))
    assert not p_entails(unit_problem([AH, BK], u, ConditionalEvent(A & B, H | K)))
    with pytest.raises(CompoundError):
        p_entails(unit_problem([AH, negate(AH)], u, BK))


@pytest.mark.parametrize("entails", [p_entails, p_entails_absorption])
def test_p_entailment_rejects_other_verdicts(entails):
    u = free_universe()
    # a coherent verdict whose values are not all one, whether the
    # problem is built through entailment_problem or directly
    half = check_coherence(Assessment.build([AH, BK], [ONE, rat(1, 2)]), u)
    assert half.coherent
    with pytest.raises(CompoundError, match="assessed at 1"):
        entails(entailment_problem(half, AH))
    with pytest.raises(CompoundError, match="assessed at 1"):
        entails(ExtensionProblem(half, AH))
    # the all-ones verdict of a family that is not p-consistent
    with pytest.raises(CompoundError, match="not p-consistent"):
        entails(unit_problem([AH, negate(AH)], u, BK))


def test_p_entailment_characterizations_agree():
    u = free_universe()
    candidates = [
        AH,
        BK,
        ConditionalEvent(A & B, H | K),
        ConditionalEvent(A | B, H | K),
        ConditionalEvent(A, H | K),
        ConditionalEvent(A & H, TOP),
        ConditionalEvent(A | ~H, TOP),
        ConditionalEvent(B, K & H),
        ConditionalEvent(A & B & H, K),
    ]
    families = [[AH], [BK], [AH, BK], [ConditionalEvent(A | ~H, TOP), AH]]
    for family in families:
        if not p_consistent(family, u):
            continue
        verdict = unit_verdict(family, u)
        for target in candidates:
            problem = entailment_problem(verdict, target)
            assert p_entails(problem) == p_entails_absorption(problem), (family, target)


def _entailment_case(rng):
    """A universe over 2-5 atoms, sometimes constrained, a p-consistent
    family of 1-5 premises and a target: two premises and the target of
    one of Adams' rules (and, cut, or, transitivity) on random formulas,
    or one random premise and target, then random premises up to five."""
    while True:
        names = "ABCDE"[: rng.randint(2, 5)]
        constraints = [
            (_random_literal(rng, names) & _random_literal(rng, names), False)
            for _ in range(rng.choice((0, 0, 1)))
        ]
        try:
            u = Universe(names, constraints)
        except EventError:
            continue
        a, b, c, h = (_random_formula(rng, names) for _ in range(4))
        premises, target = rng.choice(
            (
                ([(a, h), (b, h)], (a & b, h)),
                ([(a, h & b), (b, h)], (a, h)),
                ([(a, h), (a, b)], (a, h | b)),
                ([(b, a), (c, b)], (c, a)),
                ([(a, h)], (b, c)),
            )
        )
        for _ in range(rng.randint(0, 5 - len(premises))):
            premises.append((_random_formula(rng, names), _random_formula(rng, names)))
        rng.shuffle(premises)
        family = [ConditionalEvent(cons, ante) for cons, ante in premises]
        target = ConditionalEvent(*target)
        if not all(u.satisfiable(ce.antecedent) for ce in family + [target]):
            continue
        if p_consistent(family, u):
            return u, family, target


def test_absorption_matches_the_joint_system_oracle():
    """The coherent target values read from the extension problem are
    those of the joint system of all subset conjunctions, and the
    absorption answer is the joint-system route's, on seeded p-consistent
    families of 1-5 premises over 2-5 atoms."""
    rng = random.Random(20231107)
    seen = set()
    for _ in range(150):
        u, family, target = _entailment_case(rng)
        problem = entailment_problem(unit_verdict(family, u), target)
        joint_coherent, answer = absorption_joint_oracle(family, target, u)
        for t in (ZERO, rat(1, 2), ONE):
            assert joint_coherent(t) == problem.coherent_at(t), (family, target, t)
        assert answer == p_entails_absorption(problem), (family, target)
        seen.add((len(family), problem.coherent_at(ZERO), problem.coherent_at(ONE)))
    # every premise count, and each coherent target set: {1}, {0}, [0, 1]
    assert {n for n, _zero, _one in seen} == {1, 2, 3, 4, 5}
    assert {(zero, one) for _n, zero, one in seen} == {(False, True), (True, False), (True, True)}


def test_p_entails_matches_the_lp_route():
    """p-entailment, whose rounds all have a closed form (the premises
    at 1, the target at 0 or 1), agrees with the route that solves each
    round as a hull LP, on the families of
    test_absorption_matches_the_joint_system_oracle."""
    rng = random.Random(20231107)
    answers = set()
    for _ in range(150):
        u, family, target = _entailment_case(rng)
        problem = entailment_problem(unit_verdict(family, u), target)
        assert lp_coherent(problem.verdict._table), family
        answer = p_entails(problem)
        assert answer == p_entails_lp(problem), (family, target)
        answers.add(answer)
    assert answers == {False, True}


def test_identity_checks():
    for identity in IDENTITIES:
        assert compound_identity_check(identity), identity
    with pytest.raises(CompoundError):
        compound_identity_check("nope")


def test_monotonicity_of_previsions():
    # coherent (x, y, z, w) always satisfies z <= min <= max <= w
    u = free_universe()
    rng = random.Random(13)
    for _ in range(10):
        x = rat(rng.randint(0, 6), 6)
        y = rat(rng.randint(0, 6), 6)
        base = Assessment.build([AH, BK], [x, y])
        conj = gs_and(AH, BK, x, y, u, check=False)
        disj = gs_or(AH, BK, x, y, u, check=False)
        zb = extension_bounds(base, conj, u)
        wb = extension_bounds(base, disj, u)
        assert zb.upper <= min(x, y)
        assert wb.lower >= max(x, y)
        assert (zb.lower, zb.upper) == frechet_bounds([x, y])
        assert (wb.lower, wb.upper) == frechet_bounds_or([x, y])
