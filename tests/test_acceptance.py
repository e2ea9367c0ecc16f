"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
tolerance is fixed here and nothing is calibrated at runtime.
"""

import random
import time
from pathlib import Path

from cohkit.coherence import (
    Assessment,
    ExtensionProblem,
    brier_dominator,
    check_coherence,
    check_hull,
    dutch_book,
    extension_bounds,
)
from cohkit.compound import (
    chain_family,
    demorgan_check,
    entailment_problem,
    frechet_bounds,
    frechet_bounds_or,
    gs_and,
    gs_and_n,
    gs_or,
    mu_previsions,
    p_consistent,
    p_entails,
    p_entails_absorption,
    prevision_from_distribution,
    sum_rule_check,
)
from cohkit.coherence import MemberTable, _gilio_check, world_levels
from cohkit.events import Atom, TOP, Universe
from cohkit.fileio import parse_assessment_file
from cohkit.lp import HullInside
from cohkit.rationals import ONE, ZERO, rat
from cohkit.tables import (
    LOGICS,
    PROPERTY_ROWS,
    compute_intervals,
    compute_star_table,
)
from cohkit.trivalent import ConditionalEvent, free_universe

from oracles import constituent_signatures, expand, gain_and_penalty

DATA = Path(__file__).parent / "data"

# which connective pairs satisfy each property row
EXPECTED_STARS = {
    "P1": ("K", "gs"),
    "P2a": ("gs",),
    "P2b": ("gs",),
    "P2c": ("K", "B", "S", "gs"),
    "P3": ("B", "gs"),
    "P4": ("K", "L", "gs"),
    "P5": ("gs",),
    "P6and": ("gs",),
    "P6or": ("gs",),
}

A, B, H, K, E = Atom("A"), Atom("B"), Atom("H"), Atom("K"), Atom("E")
AH = ConditionalEvent(A, H)
BK = ConditionalEvent(B, K)


def _passed(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def unit_verdict(family, universe):
    """check_coherence of the family assessed at 1, which p-entailment takes."""
    return check_coherence(Assessment.build(family, [ONE] * len(family)), universe)


def test_criterion_1_additive_triple_reproduction(capsys):
    started = time.perf_counter()
    doc = parse_assessment_file((DATA / "additive_triple.coh").read_text())
    assessment = Assessment.build(doc.assessed_events(), doc.assessed_values())
    verdict = check_coherence(assessment, doc.universe)
    assert not verdict.coherent
    sigs = constituent_signatures(assessment.family, doc.universe)
    gains = [gain_and_penalty(sig, assessment.values, [1, 1, -1])[0] for sig in sigs]
    assert gains == [rat(11, 10), rat(1, 10), rat(1, 10), rat(1, 10)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    with capsys.disabled():
        _passed(1, "incoherent triple, exact gains, < 1 s")


def test_criterion_2_inclusion_region(capsys):
    started = time.perf_counter()
    u = Universe(
        ["A", "H", "B", "K"],
        [
            (A & H & ~K, False),
            (A & H & ~B & K, False),
            (~H & ~B & K, False),
            (~A & H & B & K, False),
        ],
    )
    grid = [rat(k, 10) for k in range(11)]
    for x in grid:
        for y in grid:
            assessment = Assessment.build([AH, BK], [x, y])
            verdict = check_coherence(assessment, u)
            assert verdict.coherent == (x <= y), (x, y)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    with capsys.disabled():
        _passed(2, "coherent exactly when x <= y on the 11x11 grid")


def test_criterion_3_hull_necessary_not_sufficient(capsys):
    e1, h1, e2, h2 = Atom("E1"), Atom("H1"), Atom("E2"), Atom("H2")
    u = Universe(["E1", "H1", "E2", "H2"], [(e1 & h1, False)])
    assert u.satisfiable(~h1 & e2 & h2)
    assessment = Assessment.build(
        [ConditionalEvent(e1, h1), ConditionalEvent(e2, h2)], [rat(1, 2), rat(1)]
    )
    assert isinstance(check_hull(assessment, u), HullInside)
    verdict = check_coherence(assessment, u)
    assert not verdict.coherent
    assert verdict.failing_subfamily == (0,)
    with capsys.disabled():
        _passed(3, "full-family hull passes, subfamily {1} fails")


def test_criterion_4_intervals_table(capsys):
    rows = compute_intervals(rat(1, 10))
    for row in rows:
        assert row.max_gap() == 0, (row.connective, row.logic)
        assert row.endpoints_confirmed, (row.connective, row.logic)
        assert all(cell.exact_match() for cell in row.cells), (row.connective, row.logic)
    # spot values away from the grid
    base = Assessment.build([AH, BK], [rat(2, 3), rat(2, 3)])
    u = free_universe()
    from cohkit.tables import build_target

    spots = [
        ("and", "S", rat(1, 3), rat(4, 5)),
        ("or", "S", rat(1, 2), rat(1)),
        ("and", "B", rat(0), rat(1)),
    ]
    for connective, logic, lo, hi in spots:
        target = build_target(connective, logic, AH, BK, rat(2, 3), rat(2, 3), u)
        bounds = extension_bounds(base, target, u)
        assert (bounds.lower, bounds.upper) == (lo, hi)
    with capsys.disabled():
        _passed(4, "interval table matches closed forms on the 1/10 grid")


def test_criterion_5_property_table(capsys):
    star = compute_star_table(rat(1, 4), compute_intervals(rat(1, 4)))
    for prop in PROPERTY_ROWS:
        for logic in LOGICS:
            cell = star[(prop, logic)]
            expected = logic in EXPECTED_STARS[prop]
            assert cell.starred == expected, (prop, logic)
            if not cell.starred:
                assert cell.counterexample, (prop, logic)
    # the quasi-conjunction pair violates the sum rule at (2/3, 2/3): the
    # quadruple with z = w = 1/2 is jointly coherent yet 1/2 != 5/6.
    # (At z = 1/3 the disjunction prevision is forced to 1, so that
    # quadruple cannot serve as the witness.)
    u = free_universe()
    from cohkit.trivalent import trivalent_and, trivalent_or

    conj = trivalent_and("S", AH, BK, u)
    disj = trivalent_or("S", AH, BK, u)
    x = y = rat(2, 3)
    z = rat(1, 2)
    base = Assessment.build([AH, BK, conj], [x, y, z])
    problem = ExtensionProblem(check_coherence(base, u), disj)
    assert problem.coherent_at(rat(1, 2))
    assert rat(1, 2) != x + y - z
    forced = ExtensionProblem(
        check_coherence(Assessment.build([AH, BK, conj], [x, y, rat(1, 3)]), u), disj
    )
    assert forced.coherent_at(rat(1)) and not forced.coherent_at(rat(2, 3))
    with capsys.disabled():
        _passed(5, "property table cell-for-cell with counterexamples")


def _random_rational(rng, den=24):
    return rat(rng.randint(0, den), den)


def _random_in(rng, lo, hi, den=16):
    return lo + (hi - lo) * rat(rng.randint(0, den), den)


def test_criterion_6_compound_identities(capsys):
    u = free_universe()
    u3 = Universe(["E1", "E2", "E3"])
    e1, e2, e3 = Atom("E1"), Atom("E2"), Atom("E3")
    chain = chain_family([e1, e2, e3])
    rng = random.Random(20260809)
    checked = 0
    for _ in range(200):
        x = _random_rational(rng)
        y = _random_rational(rng)
        # De Morgan: disjunction is one minus the negated conjunction
        zneg = _random_in(rng, *frechet_bounds([1 - x, 1 - y]))
        assert demorgan_check(AH, BK, x, y, zneg, u)
        # sum rule: w = x + y - z, and the quadruple is jointly coherent
        z = _random_in(rng, *frechet_bounds([x, y]))
        w = x + y - z
        assert sum_rule_check(x, y, z, w)
        conj = gs_and(AH, BK, x, y, u, check=False)
        disj = gs_or(AH, BK, x, y, u, check=False)
        levels = [
            world_levels(AH, u),
            world_levels(BK, u),
            conj.numeric_levels(u),
            disj.numeric_levels(u),
        ]
        assert _gilio_check(MemberTable(levels, [x, y, z, w], len(u))).coherent
        # absorbing a sure conditional: values collapse onto the operand
        sure = gs_and(AH, ConditionalEvent(K, K), x, ONE, u, check=False)
        operand = expand(world_levels(AH, u), len(u))
        for pos, form in enumerate(expand(sure.levels, len(u))):
            got = None if form is None else form.constant_value()
            want = operand[pos]
            if got is None or want is None:
                assert got is None or got == x
                assert want is None or want == x
            else:
                assert got == want
        # disjunction decomposes as operand plus complementary conjunction
        other = gs_and(ConditionalEvent(~A, H), BK, 1 - x, y, u, check=False)
        other = expand(other.numeric_levels(u), len(u))
        disj_values = expand(disj.numeric_levels(u), len(u))
        for pos in range(len(u)):
            d = disj_values[pos]
            a_val = operand[pos]
            o_val = other[pos]
            if d is None:
                assert a_val is None and o_val is None
            else:
                assert d == (x if a_val is None else a_val) + (
                    zneg if o_val is None else o_val
                ) or o_val is not None
                if o_val is not None:
                    assert d == (x if a_val is None else a_val) + o_val
        # chain family: conjunction is the product indicator, prevision
        # the product of the conditional probabilities
        mu = [rat(rng.randint(1, 9)) for _ in range(len(u3))]
        total = sum(mu, ZERO)
        mu = [m / total for m in mu]
        prevs = mu_previsions(chain, mu, u3)
        conj_chain = gs_and_n(chain, prevs, u3, check=False)
        for form, world in zip(expand(conj_chain.levels, len(u3)), u3.assignments()):
            expected = ONE if (world["E1"] and world["E2"] and world["E3"]) else ZERO
            assert form.constant_value() == expected
        product = prevs[frozenset([0])]
        mass1 = sum((m for m, wd in zip(mu, u3.assignments()) if wd["E1"]), ZERO)
        mass12 = sum(
            (m for m, wd in zip(mu, u3.assignments()) if wd["E1"] and wd["E2"]), ZERO
        )
        mass123 = sum(
            (
                m
                for m, wd in zip(mu, u3.assignments())
                if wd["E1"] and wd["E2"] and wd["E3"]
            ),
            ZERO,
        )
        product = product * (mass12 / mass1) * (mass123 / mass12)
        assert prevs[frozenset([0, 1, 2])] == product
        # independence: the conjunction prevision is the plain product
        probs = {a: rat(rng.randint(1, 7), 8) for a in "AHBK"}
        mu4 = []
        for wd in u.assignments():
            mass = ONE
            for a in "AHBK":
                mass *= probs[a] if wd[a] else 1 - probs[a]
            mu4.append(mass)
        ind = gs_and(AH, BK, probs["A"], probs["B"], u, check=False)
        assert prevision_from_distribution(ind, mu4) == probs["A"] * probs["B"]
        checked += 1
    assert checked == 200
    with capsys.disabled():
        _passed(6, "compound identities on 200 exact random instantiations")


def test_criterion_7_frechet_nary(capsys):
    x = rat(9, 10)
    assert frechet_bounds([x, x, x]) == (rat(7, 10), rat(9, 10))
    assert frechet_bounds_or([x, x, x]) == (rat(9, 10), rat(1))
    # LP cross-check at n = 2: intervals of the compound previsions equal
    # the closed bounds exactly
    u = free_universe()
    for xv in (rat(0), rat(3, 10), rat(1, 2), rat(9, 10), rat(1)):
        for yv in (rat(1, 5), rat(2, 3), rat(1)):
            base = Assessment.build([AH, BK], [xv, yv])
            conj = gs_and(AH, BK, xv, yv, u, check=False)
            disj = gs_or(AH, BK, xv, yv, u, check=False)
            cb = extension_bounds(base, conj, u)
            db = extension_bounds(base, disj, u)
            assert (cb.lower, cb.upper) == frechet_bounds([xv, yv])
            assert (db.lower, db.upper) == frechet_bounds_or([xv, yv])
            # the compounds are void only where both operands are, so one
            # round (one LP pair on the whole base) decides each interval
            assert cb.rounds == db.rounds == ((0, 1),)
    with capsys.disabled():
        _passed(7, "sharp n-ary bounds, LP agreement at n = 2")


def test_criterion_8_p_entailment(capsys):
    u3 = Universe(["E", "H", "K"])
    inner = ConditionalEvent(E, H & K)
    outer = ConditionalEvent(H, K)
    combined = ConditionalEvent(E & H, K)
    assert p_entails(entailment_problem(unit_verdict([inner, outer], u3), combined))
    u = free_universe()
    assert p_entails(entailment_problem(unit_verdict([AH], u), AH))
    assert not p_entails(
        entailment_problem(unit_verdict([AH, BK], u), ConditionalEvent(A & B, H | K))
    )
    # both characterizations agree across a batch of 4-atom instances
    targets = [
        AH,
        BK,
        ConditionalEvent(A & B, H | K),
        ConditionalEvent(A | B, H | K),
        ConditionalEvent(A, H & K),
        ConditionalEvent(A & H, TOP),
        ConditionalEvent(B, K & H),
        ConditionalEvent(A & B & H, K),
        ConditionalEvent(B, K),
    ]
    families = [
        [AH],
        [BK],
        [AH, BK],
        [ConditionalEvent(A | ~H, TOP), AH],
        [ConditionalEvent(A, H | K)],
    ]
    pairs = 0
    for family in families:
        if not p_consistent(family, u):
            continue
        verdict = unit_verdict(family, u)
        for target in targets:
            problem = entailment_problem(verdict, target)
            assert p_entails(problem) == p_entails_absorption(problem), (family, target)
            pairs += 1
    assert pairs >= 40
    with capsys.disabled():
        _passed(8, "p-entailment suite and matching characterizations")


def _random_family(rng):
    """Universe plus family with conditional-probability values drawn
    from a strictly positive world distribution (hence coherent)."""
    atom_names = ["A", "B", "C", "D"][: rng.randint(3, 4)]
    u = Universe(atom_names)
    atoms = [Atom(a) for a in atom_names]

    def random_formula():
        base = rng.choice(atoms)
        f = base if rng.random() < 0.5 else ~base
        if rng.random() < 0.5:
            other = rng.choice(atoms)
            g = other if rng.random() < 0.5 else ~other
            f = f & g if rng.random() < 0.5 else f | g
        return f

    size = rng.randint(2, 3)
    family = []
    while len(family) < size:
        consequent = random_formula()
        antecedent = random_formula() if rng.random() < 0.7 else TOP
        if not u.satisfiable(antecedent):
            continue
        family.append(ConditionalEvent(consequent, antecedent))
    masses = [rat(rng.randint(1, 12)) for _ in range(len(u))]
    total = sum(masses, ZERO)
    masses = [m / total for m in masses]
    values = []
    for ce in family:
        num = ZERO
        den = ZERO
        t, f, _ = (
            u.world_set(ce.consequent & ce.antecedent),
            u.world_set(~ce.consequent & ce.antecedent),
            None,
        )
        for pos in range(len(u)):
            bit = 1 << pos
            if t & bit:
                num += masses[pos]
                den += masses[pos]
            elif f & bit:
                den += masses[pos]
        values.append(num / den)
    return u, Assessment.build(family, values)


def _perturb(u, assessment, rng):
    """Push one coordinate to an incoherent value when possible."""
    order = list(range(len(assessment.family)))
    rng.shuffle(order)
    for i in order:
        for candidate in (ONE, ZERO):
            if assessment.values[i] == candidate:
                continue
            values = list(assessment.values)
            values[i] = candidate
            moved = Assessment.build(assessment.family, values)
            if not check_coherence(moved, u).coherent:
                return moved
    values = list(assessment.values)
    values[0] = rat(3, 2)
    return Assessment.build(assessment.family, values)


def test_criterion_9_criterion_equivalence(capsys):
    rng = random.Random(97)
    corpus = []
    for _ in range(50):
        u, coherent = _random_family(rng)
        corpus.append((u, coherent))
        corpus.append((u, _perturb(u, coherent, rng)))
    assert len(corpus) == 100
    incoherent_count = 0
    for u, assessment in corpus:
        verdict = check_coherence(assessment, u)
        book = dutch_book(verdict)
        dominator = brier_dominator(verdict)
        assert (book is None) == verdict.coherent
        assert (dominator is None) == verdict.coherent
        if verdict.coherent:
            continue
        incoherent_count += 1
        # the book wins strictly on every effective constituent
        sub = Assessment.build(
            [assessment.family[i] for i in book.subfamily],
            [assessment.values[i] for i in book.subfamily],
        )
        sigs = constituent_signatures(sub.family, u)
        gains = [gain_and_penalty(sig, sub.values, book.stakes)[0] for sig in sigs]
        assert min(gains) == book.margin and book.margin > 0
        # the dominator never loses more and wins somewhere
        diffs = [
            gain_and_penalty(sig, assessment.values)[1] - gain_and_penalty(sig, dominator)[1]
            for sig in constituent_signatures(assessment.family, u)
        ]
        assert all(d >= 0 for d in diffs) and any(d > 0 for d in diffs)
    assert incoherent_count == 50
    with capsys.disabled():
        _passed(9, "betting, penalty and hull verdicts coincide on the corpus")
