import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

import cohkit.coherence
from cohkit import lp
from cohkit.coherence import (
    Assessment,
    CoherenceError,
    ExtensionProblem,
    FamilyCapError,
    MAX_FAMILY,
    MemberTable,
    _gilio_check,
    brier_dominator,
    check_coherence,
    check_hull,
    dutch_book,
    extension_bounds,
    world_levels,
)
from cohkit.events import Atom, TOP, Universe
from cohkit.fileio import parse_assessment_file
from cohkit.lp import HullInside, HullOutside
from cohkit.rationals import rat
from cohkit.trivalent import ConditionalEvent, free_universe

from oracles import SIG_TRUE, SIG_VOID, bisection_brackets, constituent_signatures, expand
from oracles import extension_oracle, gain_and_penalty, rational_range, subfamily_points
from oracles import world_signatures
from test_differential import incoherent_event_families

DATA = Path(__file__).parent / "data"

A, B, H, K = Atom("A"), Atom("B"), Atom("H"), Atom("K")
AH = ConditionalEvent(A, H)
BK = ConditionalEvent(B, K)


def unconditional(*formulas):
    return [ConditionalEvent(f, TOP) for f in formulas]


@pytest.fixture
def additive_triple():
    u = Universe(["A", "B"])
    fam = unconditional(A, B, A | B)
    return u, Assessment.build(fam, [rat(2, 5), rat(3, 10), rat(4, 5)])


def points(assessment, universe):
    """The family's constituent points, read from its MemberTable."""
    table = MemberTable(
        [world_levels(ce, universe) for ce in assessment.family],
        assessment.values,
        len(universe),
    )
    return tuple(table.hull_rows(tuple(range(len(assessment.family)))))


def test_points_of_additive_triple(additive_triple):
    u, assessment = additive_triple
    assert points(assessment, u) == (
        (1, 1, 1),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 0),
    )


def test_additive_triple_is_incoherent(additive_triple):
    u, assessment = additive_triple
    assert isinstance(check_hull(assessment, u), HullOutside)
    verdict = check_coherence(assessment, u)
    assert not verdict.coherent
    assert verdict.failing_subfamily == (0, 1, 2)


def test_gains_at_unit_stakes(additive_triple):
    u, assessment = additive_triple
    sigs = constituent_signatures(assessment.family, u)
    gains = [gain_and_penalty(sig, assessment.values, [1, 1, -1])[0] for sig in sigs]
    assert gains == [rat(11, 10), rat(1, 10), rat(1, 10), rat(1, 10)]
    zero = [gain_and_penalty(sig, assessment.values, [0, 0, 0])[0] for sig in sigs]
    assert zero == [0, 0, 0, 0]


def test_gain_on_all_void_constituent_is_zero():
    u = free_universe()
    assessment = Assessment.build([AH, BK], [rat(1, 2), rat(1, 2)])
    c0 = (SIG_VOID, SIG_VOID)
    assert c0 in dict(world_signatures(assessment.family, u))
    assert gain_and_penalty(c0, assessment.values, [rat(3), rat(-2)])[0] == 0


def test_penalty_losses(additive_triple):
    u, assessment = additive_triple
    sigs = constituent_signatures(assessment.family, u)
    losses = [gain_and_penalty(sig, assessment.values)[1] for sig in sigs]
    assert losses[0] == rat(89, 100)
    # perfect forecast scores zero
    sure = Assessment.build(unconditional(A), [rat(1)])
    assert (SIG_TRUE,) in constituent_signatures(sure.family, Universe(["A"]))
    assert gain_and_penalty((SIG_TRUE,), sure.values)[1] == 0
    # nothing at stake on the all-void constituent
    cond = Assessment.build([AH], [rat(1, 3)])
    assert (SIG_VOID,) in dict(world_signatures(cond.family, free_universe()))
    assert gain_and_penalty((SIG_VOID,), cond.values)[1] == 0


def test_dutch_book_positive_gains(additive_triple):
    u, assessment = additive_triple
    book = dutch_book(check_coherence(assessment, u))
    assert book is not None
    assert book.margin > 0
    sub = Assessment.build(
        [assessment.family[i] for i in book.subfamily],
        [assessment.values[i] for i in book.subfamily],
    )
    sigs = constituent_signatures(sub.family, u)
    gains = [gain_and_penalty(sig, sub.values, book.stakes)[0] for sig in sigs]
    assert min(gains) == book.margin
    assert all(g > 0 for g in gains)
    assert max(abs(s) for s in book.stakes) == 1


SEEDED_INCOHERENT = incoherent_event_families(20190601, 16)


@pytest.mark.parametrize(
    "fixture",
    ["additive_triple", "hull_pass_subfamily_fail"]
    + [f"seeded-{k}" for k in range(len(SEEDED_INCOHERENT))],
)
def test_dutch_book_gains_are_the_random_gains(fixture, request):
    """The book's gains and the dominator's penalty reductions, read from
    the member patterns, against the paper's definitions over the
    constituents of the per-world scan."""
    if fixture.startswith("seeded-"):
        u, assessment = SEEDED_INCOHERENT[int(fixture.split("-")[1])]
    else:
        u, assessment = request.getfixturevalue(fixture)
    book = dutch_book(check_coherence(assessment, u))
    sub = Assessment.build(
        [assessment.family[i] for i in book.subfamily],
        [assessment.values[i] for i in book.subfamily],
    )
    sigs = constituent_signatures(sub.family, u)
    assert book.gains == tuple(
        (k, gain_and_penalty(sig, sub.values, book.stakes)[0]) for k, sig in enumerate(sigs, 1)
    )
    assert book.margin == min(g for _index, g in book.gains)
    better = brier_dominator(check_coherence(assessment, u))
    diffs = [
        gain_and_penalty(sig, assessment.values)[1] - gain_and_penalty(sig, better)[1]
        for sig in constituent_signatures(assessment.family, u)
    ]
    assert all(d >= 0 for d in diffs) and any(d > 0 for d in diffs)


def test_sure_event_at_one_is_inside():
    u = Universe(["A"])
    sure = Assessment.build([ConditionalEvent(TOP, TOP)], [rat(1)])
    assert isinstance(check_hull(sure, u), HullInside)
    assert check_coherence(sure, u).coherent


def test_coherent_triple_has_no_book():
    u = Universe(["A", "B"])
    fam = unconditional(A, B, A | B)
    assessment = Assessment.build(fam, [rat(2, 5), rat(3, 10), rat(1, 2)])
    assert check_coherence(assessment, u).coherent
    assert dutch_book(check_coherence(assessment, u)) is None
    assert brier_dominator(check_coherence(assessment, u)) is None


def _count_simplex_pivots(monkeypatch):
    """Counts the pivots run_simplex makes, leaving out the pivots of the
    exact solves and of driving artificials out."""
    counts = {"pivots": 0}
    inside = []
    run, pivot = lp.run_simplex, lp._pivot

    def counted_run(*args):
        inside.append(True)
        try:
            return run(*args)
        finally:
            inside.pop()

    def counted_pivot(*args):
        counts["pivots"] += bool(inside)
        pivot(*args)

    monkeypatch.setattr(lp, "run_simplex", counted_run)
    monkeypatch.setattr(lp, "_pivot", counted_pivot)
    return counts


def _read(name):
    doc = parse_assessment_file((DATA / name).read_text())
    return doc.universe, Assessment.build(doc.assessed_events(), doc.assessed_values())


def test_wide_coherent_family_takes_few_pivots(monkeypatch):
    # 20 members over 10 atoms; Bland's entering rule took 2,205 pivots
    u, assessment = _read("coherent_wide.coh")
    assert (len(assessment.values), len(u.atoms)) == (20, 10)
    counts = _count_simplex_pivots(monkeypatch)
    verdict = check_coherence(assessment, u)
    assert verdict.coherent
    assert counts["pivots"] <= 100
    members = [expand(world_levels(ce, u), len(u)) for ce in assessment.family]
    points = subfamily_points(members, assessment.values, tuple(range(20)))
    weights = verdict.weights
    assert len(weights) == len(points) and min(weights) >= 0 and sum(weights) == 1
    assert [sum(w * q[i] for w, q in zip(weights, points)) for i in range(20)] == list(
        assessment.values
    )


def test_wide_incoherent_twin_has_witnesses(monkeypatch):
    # coherent_wide.coh with e12 = ~J & ~C raised above e1 = ~C
    u, assessment = _read("incoherent_wide.coh")
    counts = _count_simplex_pivots(monkeypatch)
    verdict = check_coherence(assessment, u)
    assert not verdict.coherent and verdict.failing_subfamily == (0, 11)
    assert counts["pivots"] <= 100
    book = dutch_book(verdict)
    assert book is not None and book.margin > 0
    dominator = brier_dominator(verdict)
    assert dominator is not None and dominator != assessment.values


# the two-event family where the full-family hull test passes but the
# single-member subfamily fails
@pytest.fixture
def hull_pass_subfamily_fail():
    e1, h1, e2, h2 = Atom("E1"), Atom("H1"), Atom("E2"), Atom("H2")
    u = Universe(["E1", "H1", "E2", "H2"], [(e1 & h1, False)])
    assert u.satisfiable(~h1 & e2 & h2)
    fam = [ConditionalEvent(e1, h1), ConditionalEvent(e2, h2)]
    return u, Assessment.build(fam, [rat(1, 2), rat(1)])


def test_necessity_not_sufficiency(hull_pass_subfamily_fail):
    u, assessment = hull_pass_subfamily_fail
    assert isinstance(check_hull(assessment, u), HullInside)
    verdict = check_coherence(assessment, u)
    assert not verdict.coherent
    assert verdict.failing_subfamily == (0,)
    book = dutch_book(check_coherence(assessment, u))
    assert book.subfamily == (0,)
    assert abs(book.stakes[0]) == 1
    assert book.margin == rat(1, 2)


def test_rounds_trace(hull_pass_subfamily_fail, additive_triple):
    u, assessment = hull_pass_subfamily_fail
    assert check_coherence(assessment, u).rounds == ((0, 1), (0,))
    u, assessment = additive_triple
    assert check_coherence(assessment, u).rounds == ((0, 1, 2),)


def test_member_table_scans_worlds_once(monkeypatch):
    scans = []
    original = MemberTable._scan_worlds

    def counting(table):
        scans.append(table)
        return original(table)

    monkeypatch.setattr(MemberTable, "_scan_worlds", counting)
    u = free_universe()
    family = (AH, BK, ConditionalEvent(A & B, H | K))
    values = [rat(1, 2), rat(1, 3), rat(1, 4)]
    members = [expand(world_levels(ce, u), len(u)) for ce in family]
    table = MemberTable([world_levels(ce, u) for ce in family], values, len(u))
    subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for subset in subsets:
        table.hull_rows(subset)
        table.subfamily_hull(subset, table.rank_patterns(subset))
    assert len(scans) == 1
    # one check_coherence call scans the worlds once
    scans.clear()
    check_coherence(Assessment.build(family, values), u)
    assert len(scans) == 1
    # the projected patterns are the ones a per-world scan finds
    for subset in subsets:
        seen = {
            tuple(members[i][pos] for i in subset) for pos in range(len(u))
        }
        assert set(table.patterns(subset)) == {
            pattern for pattern in seen if any(e is not None for e in pattern)
        }


def test_family_cap():
    # the check has no 2^n work left, so only extension is capped: a
    # base of MAX_FAMILY conjunctions of A, B, H, K at their uniform
    # probabilities extends, one more member does not
    u = Universe(["A", "B", "H", "K"])
    fam, values = [], []
    for size in range(1, 5):
        for chosen in itertools.combinations((A, B, H, K), size):
            conj = chosen[0]
            for atom in chosen[1:]:
                conj = conj & atom
            fam.append(ConditionalEvent(conj, TOP))
            values.append(rat(1, 2**size))
    target = ConditionalEvent(A | B, TOP)
    base = Assessment.build(fam[:MAX_FAMILY], values[:MAX_FAMILY])
    bounds = extension_bounds(base, target, u)
    assert (bounds.lower, bounds.upper) == (rat(3, 4), rat(3, 4))
    assessment = Assessment.build(fam[: MAX_FAMILY + 1], values[: MAX_FAMILY + 1])
    assert len(assessment.family) == 13
    assert check_coherence(assessment, u).coherent
    with pytest.raises(FamilyCapError):
        extension_bounds(assessment, target, u)


def test_extension_problem_rejects_an_incoherent_verdict(additive_triple):
    u, assessment = additive_triple
    verdict = check_coherence(assessment, u)
    assert not verdict.coherent
    with pytest.raises(CoherenceError, match="incoherent"):
        ExtensionProblem(verdict, ConditionalEvent(A & B, TOP))


def test_witnesses_take_only_assessment_verdicts(additive_triple):
    u, assessment = additive_triple
    levels = [world_levels(ce, u) for ce in assessment.family]
    verdict = _gilio_check(MemberTable(levels, assessment.values, len(u)))
    assert not verdict.coherent
    for operation in (dutch_book, brier_dominator):
        with pytest.raises(CoherenceError, match="check_coherence verdict"):
            operation(verdict)
    with pytest.raises(CoherenceError, match="check_coherence verdict"):
        ExtensionProblem(verdict, ConditionalEvent(A & B, TOP))


def test_verdict_table_takes_no_part_in_equality(additive_triple):
    u, assessment = additive_triple
    first, second = check_coherence(assessment, u), check_coherence(assessment, u)
    assert first.assessment is assessment and first.universe is u
    assert first._table is not second._table
    assert first == second
    assert "_table" not in repr(first)


def test_point_table_examples():
    # nested conditional pair: rows carry the assessed value on voids
    u = free_universe()
    fam = [AH, ConditionalEvent(A & B, H & K)]
    x, y = rat(1, 3), rat(2, 7)
    rows = points(Assessment.build(fam, [x, y]), u)
    assert set(rows) == {(1, 1), (1, 0), (1, y), (0, 0), (0, y)}
    # unconditional families have binary points
    u2 = Universe(["A", "B"])
    rows2 = points(Assessment.build(unconditional(A, B), [rat(1, 3), rat(1, 5)]), u2)
    assert all(set(row) <= {rat(0), rat(1)} for row in rows2)


def test_constrained_pair_points():
    u = Universe(
        ["A", "H", "B", "K"],
        [
            (A & H & ~K, False),
            (A & H & ~B & K, False),
            (~H & ~B & K, False),
            (~A & H & B & K, False),
        ],
    )
    x, y = rat(1, 5), rat(7, 10)
    rows = points(Assessment.build([AH, BK], [x, y]), u)
    assert set(rows) == {(1, 1), (x, 1), (0, y), (0, 0)}


def test_brier_dominator_is_projection(additive_triple):
    u, assessment = additive_triple
    dominator = brier_dominator(check_coherence(assessment, u))
    # exact Euclidean projection onto the face z = x + y
    assert dominator == (rat(13, 30), rat(1, 3), rat(23, 30))
    diffs = [
        gain_and_penalty(sig, assessment.values)[1] - gain_and_penalty(sig, dominator)[1]
        for sig in constituent_signatures(assessment.family, u)
    ]
    assert all(d >= 0 for d in diffs) and any(d > 0 for d in diffs)


def test_brier_clamps_out_of_range_value():
    u = Universe(["A"])
    assessment = Assessment.build(unconditional(A), [rat(6, 5)])
    assert not check_coherence(assessment, u).coherent
    assert brier_dominator(check_coherence(assessment, u)) == (rat(1),)


def test_dominance_check_rejects_a_nudged_projection(monkeypatch):
    # A at 1 + 1/(2 10^9): the projection 1 dominates, while 1 + 1/10^9
    # raises the penalty on the constituent where A is true
    nudge = rat(1, 10**9)
    u = Universe(["A"])
    assessment = Assessment.build(unconditional(A), [1 + nudge / 2])
    assert brier_dominator(check_coherence(assessment, u)) == (rat(1),)
    original = cohkit.coherence.hull_projection_ints

    def nudged(hull):
        projection = original(hull)
        return replace(projection, point=(projection.point[0] + nudge,))

    monkeypatch.setattr(cohkit.coherence, "hull_projection_ints", nudged)
    with pytest.raises(CoherenceError, match="dominance"):
        brier_dominator(check_coherence(assessment, u))


def test_brier_on_subfamily_failure(hull_pass_subfamily_fail):
    u, assessment = hull_pass_subfamily_fail
    dominator = brier_dominator(check_coherence(assessment, u))
    assert dominator is not None
    assert dominator[0] == 0  # the impossible consequent is forced to zero
    assert dominator[1] == assessment.values[1]


# -- extension bounds ---------------------------------------------------------

def classical_disjunction_bounds(x, y):
    """Independent route: world-mass polytope over the four cases."""
    # worlds of (A, B): (0,0), (0,1), (1,0), (1,1)
    rows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    scores = [0, 1, 1, 1]  # indicator of A or B
    columns = [(a, b, 1) for a, b in rows]
    return rational_range(columns, (x, y, 1), scores)


def test_extension_matches_classical_bounds():
    u = Universe(["A", "B"])
    rng = random.Random(7)
    target = ConditionalEvent(A | B, TOP)
    for _ in range(12):
        x = rat(rng.randint(0, 8), 8)
        y = rat(rng.randint(0, 8), 8)
        base = Assessment.build(unconditional(A, B), [x, y])
        bounds = extension_bounds(base, target, u)
        lo, hi = classical_disjunction_bounds(x, y)
        assert bounds.lower == max(x, y) == lo
        assert bounds.upper == min(x + y, rat(1)) == hi


def test_extension_requires_coherent_base():
    u = Universe(["A", "B"])
    base = Assessment.build(unconditional(A, B, A | B), [rat(2, 5), rat(3, 10), rat(4, 5)])
    with pytest.raises(CoherenceError):
        extension_bounds(base, ConditionalEvent(A & B, TOP), u)


def test_unconditional_full_hull_equals_coherence():
    rng = random.Random(20260809)
    u = Universe(["A", "B", "C"])
    C = Atom("C")
    formulas = [A, B, C, A & B, A | B, A & ~C, B | C]
    for _ in range(40):
        fam = unconditional(*rng.sample(formulas, rng.randint(1, 4)))
        values = [rat(rng.randint(0, 10), 10) for _ in fam]
        assessment = Assessment.build(fam, values)
        full = isinstance(check_hull(assessment, u), HullInside)
        assert full == check_coherence(assessment, u).coherent


def test_monotone_necessity():
    # any full-family hull failure must be reported as incoherent
    u = Universe(["A"])
    assessment = Assessment.build(unconditional(A), [rat(3, 2)])
    assert isinstance(check_hull(assessment, u), HullOutside)
    assert not check_coherence(assessment, u).coherent
    # an out-of-range value on a conditional member can hide from the
    # full-family test behind its own void coordinate, but not from the
    # subfamily sweep
    u2 = free_universe()
    pair = Assessment.build([AH, BK], [rat(3, 2), rat(1, 2)])
    assert isinstance(check_hull(pair, u2), HullInside)
    verdict = check_coherence(pair, u2)
    assert not verdict.coherent and verdict.failing_subfamily == (0,)


def test_gain_hull_link(additive_triple):
    u, assessment = additive_triple
    outcome = check_hull(assessment, u)
    assert isinstance(outcome, HullOutside)
    sigs = constituent_signatures(assessment.family, u)
    gains = [gain_and_penalty(sig, assessment.values, outcome.separator)[0] for sig in sigs]
    assert all(g > 0 for g in gains)


def _random_conditional_family(rng, u, atoms, size):
    out = []
    while len(out) < size:
        pick = lambda: rng.choice(atoms) if rng.random() < 0.6 else ~rng.choice(atoms)
        consequent = pick()
        if rng.random() < 0.5:
            consequent = consequent & pick() if rng.random() < 0.5 else consequent | pick()
        antecedent = pick() if rng.random() < 0.7 else TOP
        if u.satisfiable(antecedent):
            out.append(ConditionalEvent(consequent, antecedent))
    return out


def test_verdict_is_permutation_invariant():
    rng = random.Random(17)
    u = Universe(["A", "B", "C"])
    atoms = [A, B, Atom("C")]
    for _ in range(25):
        fam = _random_conditional_family(rng, u, atoms, 3)
        values = [rat(rng.randint(0, 6), 6) for _ in fam]
        base = check_coherence(Assessment.build(fam, values), u).coherent
        order = list(range(3))
        rng.shuffle(order)
        shuffled = Assessment.build([fam[i] for i in order], [values[i] for i in order])
        assert check_coherence(shuffled, u).coherent == base


def test_subfamilies_of_coherent_families_are_coherent():
    rng = random.Random(23)
    u = Universe(["A", "B", "C"])
    atoms = [A, B, Atom("C")]
    found = 0
    while found < 10:
        fam = _random_conditional_family(rng, u, atoms, 3)
        masses = [rat(rng.randint(1, 9)) for _ in range(len(u))]
        total = sum(masses, rat(0))
        masses = [m / total for m in masses]
        values = []
        for ce in fam:
            t = u.world_set(ce.consequent & ce.antecedent)
            d = u.world_set(ce.antecedent)
            num = sum((masses[p] for p in range(len(u)) if t >> p & 1), rat(0))
            den = sum((masses[p] for p in range(len(u)) if d >> p & 1), rat(0))
            values.append(num / den)
        assessment = Assessment.build(fam, values)
        assert check_coherence(assessment, u).coherent
        for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            sub = Assessment.build(
                [fam[i] for i in keep], [values[i] for i in keep]
            )
            assert check_coherence(sub, u).coherent
        found += 1


def test_negation_symmetry():
    rng = random.Random(29)
    u = free_universe()
    from cohkit.trivalent import negate

    for _ in range(20):
        values = [rat(rng.randint(0, 10), 10) for _ in range(2)]
        direct = check_coherence(Assessment.build([AH, BK], values), u).coherent
        flipped = check_coherence(
            Assessment.build([negate(AH), negate(BK)], [1 - v for v in values]), u
        ).coherent
        assert direct == flipped


def test_exact_and_bisection_routes_agree():
    # a numeric and a conditional-event target, each bracketed by the
    # bisection oracle to 2^-40 around its exact endpoints
    from cohkit.compound import gs_and
    from cohkit.trivalent import trivalent_and

    u = free_universe()
    tol = rat(1, 2**40)
    rng = random.Random(31)
    members = [expand(world_levels(ce, u), len(u)) for ce in (AH, BK)]
    for _ in range(6):
        x = rat(rng.randint(0, 8), 8)
        y = rat(rng.randint(0, 8), 8)
        base = Assessment.build([AH, BK], [x, y])
        conj = gs_and(AH, BK, x, y, u, check=False)
        event = trivalent_and("S", AH, BK, u)
        for target, target_values in (
            (conj, expand(conj.numeric_levels(u), len(u))),
            (event, expand(world_levels(event, u), len(u))),
        ):
            bounds = extension_bounds(base, target, u)
            seed = (bounds.lower + bounds.upper) / 2
            coherent_at = extension_oracle(members, [x, y], target_values)
            lower, upper = bisection_brackets(coherent_at, seed, tol)
            assert lower[0] <= bounds.lower <= lower[1]
            assert upper[0] <= bounds.upper <= upper[1]


def test_extension_problem_pins_chain_product():
    # the chain identity pins the target to x*y
    u = Universe(["E", "H", "K"])
    E = Atom("E")
    inner = ConditionalEvent(E, H & K)
    outer = ConditionalEvent(H, K)
    target = ConditionalEvent(E & H, K)
    x, y = rat(3, 7), rat(2, 5)
    base = Assessment.build([inner, outer], [x, y])
    problem = ExtensionProblem(check_coherence(base, u), target)
    assert problem.coherent_at(x * y)
    assert not problem.coherent_at(x * y + rat(1, 97))
    bounds = problem.bounds()
    assert bounds.lower == bounds.upper == x * y
    members = [expand(world_levels(ce, u), len(u)) for ce in (inner, outer)]
    coherent_at = extension_oracle(members, [x, y], expand(world_levels(target, u), len(u)))
    lower, upper = bisection_brackets(coherent_at, x * y, rat(1, 2**20))
    assert lower[1] == upper[0] == x * y
