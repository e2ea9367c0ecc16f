import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cohkit import lp as kernel
from cohkit.lp import (
    HullInside,
    HullOutside,
    HullProjection,
    HullZeroMass,
    LPError,
    LPInternalError,
    hull_membership,
    hull_projection_ints,
    hull_zero_mass_ints,
)
from cohkit.rationals import integer_row, rat

import oracles
from oracles import EQ, GE, brute_force_optimum, brute_force_projection, rational_range


def test_one_dimensional_box():
    # 0 <= x <= 1 as x + s = 1 over x, s >= 0
    assert rational_range([(1,), (1,)], (1,), (1, 0)) == (0, 1)


def test_pure_feasibility():
    # zero costs: x1 + x2 = 1 is feasible, x1 + x2 = -1 has no x >= 0
    assert rational_range([(1,), (1,)], (1,), (0, 0)) == (0, 0)
    assert rational_range([(1,), (1,)], (-1,), (0, 0)) is None


def test_unbounded_ray():
    # x1 - x2 = 0 leaves the ray x1 = x2 = t open, so x1 has no maximum
    with pytest.raises(LPError, match="unbounded"):
        rational_range([(1,), (-1,)], (0,), (1, 0))


def test_hull_midpoint():
    result = hull_membership([(0, 0), (1, 1)], (rat(1, 2), rat(1, 2)))
    assert isinstance(result, HullInside)
    assert list(result.weights) == [rat(1, 2), rat(1, 2)]


def test_hull_triangle_weights():
    result = hull_membership([(0, 0), (1, 1), (1, 0)], (rat(2, 5), rat(3, 10)))
    assert isinstance(result, HullInside)
    weights = result.weights
    assert sum(weights) == 1
    assert weights[1] == rat(3, 10) and weights[2] == rat(1, 10)


def test_hull_outside_above_diagonal():
    result = hull_membership([(1, 1), (1, 0), (0, 0)], (rat(3, 10), rat(3, 5)))
    assert isinstance(result, HullOutside)
    s = result.separator
    assert max(abs(c) for c in s) == 1
    offset = s[0] * rat(3, 10) + s[1] * rat(3, 5)
    for q in [(1, 1), (1, 0), (0, 0)]:
        assert s[0] * q[0] + s[1] * q[1] > offset


def test_hull_far_point_certificate():
    result = hull_membership([(0, 0), (1, 1)], (2, 2))
    assert isinstance(result, HullOutside)
    assert result.margin > 0


def test_hull_duplicate_points():
    result = hull_membership([(0, 0), (0, 0), (1, 1)], (rat(1, 4), rat(1, 4)))
    assert isinstance(result, HullInside)
    total = [rat(0), rat(0)]
    for w, q in zip(result.weights, [(0, 0), (0, 0), (1, 1)]):
        total[0] += w * q[0]
        total[1] += w * q[1]
    assert total == [rat(1, 4), rat(1, 4)]


def test_hull_rejects_bad_input():
    with pytest.raises(LPError):
        hull_membership([], (1,))
    with pytest.raises(LPError):
        hull_membership([(1, 2), (1,)], (0, 0))


def test_linear_range_segment():
    # weights on the points 0 and 1 (the last row is sum(w) = 1)
    segment = [(0, 1), (1, 1)]
    assert rational_range(segment, (rat(1, 2), 1), [rat(0), rat(1)]) == (rat(1, 2), rat(1, 2))
    assert rational_range(segment, (rat(3, 2), 1), [0, 1]) is None
    lo, hi = rational_range([(1,), (1,), (1,)], (1,), [rat(1, 3), rat(2, 3), rat(1, 6)])
    assert (lo, hi) == (rat(1, 6), rat(2, 3))


def _random_bounded_program(rng):
    """Equality rows over x >= 0, the last one sum(x) = 1 so that the
    region is bounded; the right-hand side comes from a random feasible
    x, or is drawn at random (often infeasible)."""
    n = rng.randint(1, 4)
    rows = [[rat(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.6:
        mix = [rng.randint(0, 4) for _ in range(n)]
        mix[rng.randrange(n)] += 1
        x = [rat(k, sum(mix)) for k in mix]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [rat(rng.randint(-4, 4)) for _ in rows]
    rows.append([rat(1)] * n)
    rhs.append(rat(1))
    costs = [rat(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
    return rows, rhs, costs


def test_linear_range_matches_vertex_enumeration():
    rng = random.Random(20260809)
    checked = 0
    for _ in range(150):
        rows, rhs, costs = _random_bounded_program(rng)
        n = len(costs)
        constraints = [(row, EQ, b) for row, b in zip(rows, rhs)]
        constraints += [(tuple(int(i == j) for i in range(n)), GE, 0) for j in range(n)]
        lo = brute_force_optimum(n, constraints, costs, maximize=False)
        hi = brute_force_optimum(n, constraints, costs, maximize=True)
        result = rational_range(list(zip(*rows)), rhs, costs)
        if lo is None:
            # no vertex: the bounded region is empty
            assert result is None
        else:
            assert result == (
                rat(lo.numerator, lo.denominator),
                rat(hi.numerator, hi.denominator),
            )
            checked += 1
    assert checked > 90


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hull_membership_two_sided(data):
    dim = data.draw(st.integers(1, 3))
    npts = data.draw(st.integers(1, 6))
    grid = st.integers(-4, 4)
    points = [
        tuple(rat(data.draw(grid), 4) for _ in range(dim)) for _ in range(npts)
    ]
    p = tuple(rat(data.draw(grid), 4) for _ in range(dim))
    result = hull_membership(points, p)
    if isinstance(result, HullInside):
        mix = [rat(0)] * dim
        for w, q in zip(result.weights, points):
            assert w >= 0
            for i in range(dim):
                mix[i] += w * q[i]
        assert sum(result.weights) == 1
        assert tuple(mix) == p
    else:
        s = result.separator
        offset = sum(si * pi for si, pi in zip(s, p))
        gaps = [sum(si * qi for si, qi in zip(s, q)) - offset for q in points]
        assert min(gaps) > 0
        assert min(gaps) == result.margin


def test_hull_zero_mass_certificate():
    # E1|H1 = 1/2 and E2|H2 = 1 with E1 & H1 impossible: coordinate 0
    # can only be matched by points where the first member is void
    half = rat(1, 2)
    points = [(0, 1), (0, 0), (0, 1), (half, 1), (half, 0)]
    counts = [[0, 1], [0, 1], [0], [1], [1]]
    target = (half, 1)
    inside = hull_membership(points, target)
    outcome = hull_zero_mass_ints(kernel._hull_input(points, target), counts)
    assert outcome.weights == inside.weights
    assert outcome.zero_mass == (0,)
    y, y0 = outcome.certificate
    assert y[0] * target[0] + y[1] * target[1] + y0 == 0
    for q, cs in zip(points, counts):
        assert y[0] * q[0] + y[1] * q[1] + y0 >= (1 if 0 in cs else 0)


def test_hull_zero_mass_outside_matches_hull_membership():
    points = [(1, 1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 0)]
    target = (rat(2, 5), rat(3, 10), rat(4, 5))
    counts = [[0, 1, 2]] * 4
    outcome = hull_zero_mass_ints(kernel._hull_input(points, target), counts)
    assert outcome == hull_membership(points, target)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.sets(st.integers(0, 1))),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
)
def test_hull_zero_mass_agrees_with_range_lps(rows, mix):
    # p is a mixture of the points, so it is inside; a coordinate has
    # zero mass exactly when the max of its mass over the polytope is 0
    points = [(rat(a, 2), rat(b, 2)) for a, b, _ in rows]
    counts = [sorted(cs) for _a, _b, cs in rows]
    weights = [rat(mix[h % len(mix)]) for h in range(len(points))]
    if sum(weights) == 0:
        weights[0] = rat(1)
    total = sum(weights)
    target = tuple(sum(w * q[i] for w, q in zip(weights, points)) / total for i in range(2))
    outcome = hull_zero_mass_ints(kernel._hull_input(points, target), counts)
    assert isinstance(outcome, HullZeroMass)
    for i in range(2):
        scores = [1 if i in cs else 0 for cs in counts]
        _lo, hi = rational_range([q + (1,) for q in points], target + (1,), scores)
        assert (hi == 0) == (i in outcome.zero_mass)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hull_projection_matches_subset_oracle(data):
    dim = data.draw(st.integers(1, 3))
    npts = data.draw(st.integers(1, 5))
    grid = st.integers(-3, 3)
    points = [
        tuple(rat(data.draw(grid), 3) for _ in range(dim)) for _ in range(npts)
    ]
    p = tuple(rat(data.draw(st.integers(-6, 6)), 4) for _ in range(dim))
    projection = hull_projection_ints(kernel._hull_input(points, p))
    assert projection.point == brute_force_projection(points, p)
    mix = tuple(
        sum(w * q[i] for w, q in zip(projection.weights, points)) for i in range(dim)
    )
    assert mix == projection.point and sum(projection.weights) == 1


# -- the integer-row kernel against the Fraction kernel ----------------------


def _integer_form(rows):
    """Rows of Fractions as the kernel holds them: ints over the lcm of
    each row's denominators."""
    ints, dens = [], []
    for row in rows:
        d = lcm(*(Fraction(v).denominator for v in row))
        ints.append([int(v * d) for v in row])
        dens.append(d)
    return ints, dens


def _entry(rng):
    """Mixed denominators, with 0, 1 and -1 common."""
    kind = rng.random()
    if kind < 0.3:
        return Fraction(0)
    if kind < 0.45:
        return Fraction(rng.choice([1, -1]))
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7, 12]))


def _random_columns(rng, m, n):
    """n random columns of height m, then a few duplicates, some of them
    negated (which opens unbounded directions)."""
    cols = [[_entry(rng) for _ in range(m)] for _ in range(n)]
    for _ in range(rng.randint(0, 2)):
        col = rng.choice(cols)
        cols.insert(rng.randint(0, len(cols)), col[:] if rng.random() < 0.5 else [-v for v in col])
    return cols


def _random_slack_tableau(rng):
    """A canonical tableau on a slack basis: nonnegative right-hand sides
    (zero often, and repeated rows, for degenerate ratio ties) and random
    reduced costs."""
    m = rng.randint(1, 5)
    cols = _random_columns(rng, m, rng.randint(1, 6))
    width = len(cols)
    rhs = [rng.choice([Fraction(0), Fraction(0), Fraction(1), abs(_entry(rng))]) for _ in range(m)]
    rows = [[col[i] for col in cols] for i in range(m)]
    if m > 1 and rng.random() < 0.4:
        rows[-1], rhs[-1] = rows[0][:], rhs[0]
    tab = [
        row + [Fraction(int(k == i)) for k in range(m)] + [b]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    tab.append([_entry(rng) for _ in range(width)] + [Fraction(0)] * (m + 1))
    return tab, [width + i for i in range(m)]


def _assert_same_tableau(rows, dens, expected):
    # equal to the canonical integer form: the same rationals, and every
    # denominator positive and in lowest terms
    assert (rows, dens) == _integer_form(expected)


def test_run_simplex_matches_fraction_kernel():
    rng = random.Random(5150)
    outcomes = {"optimal": 0, "unbounded": 0}
    choices = Counter()
    for _ in range(400):
        tab, basis = _random_slack_tableau(rng)
        rows, dens = _integer_form(tab)
        int_basis = basis[:]
        expected = oracles.run_simplex(tab, basis, choices)
        assert kernel.run_simplex(rows, dens, int_basis) == expected
        assert int_basis == basis
        _assert_same_tableau(rows, dens, tab)
        outcomes["optimal" if expected < 0 else "unbounded"] += 1
    assert min(outcomes.values()) > 50
    # both entering rules are exercised, not only Dantzig's
    assert min(choices["dantzig"], choices["bland"]) >= 50


def test_run_simplex_terminates_on_beales_cycling_example(monkeypatch):
    # Beale (1955): min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 subject to
    # 1/4 x4 - 8 x5 - x6 + 9 x7 <= 0, 1/2 x4 - 12 x5 - 1/2 x6 + 3 x7 <= 0
    # and x6 <= 1, on the slack basis x1, x2, x3.  Dantzig's rule alone
    # cycles here; the minimum is -5/4 at x4 = x6 = 1, x5 = x7 = 0.
    F = Fraction
    tab = [
        [F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0), F(0)],
        [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1), F(1)],
        [F(-3, 4), F(20), F(-1, 2), F(6), F(0), F(0), F(0), F(0)],
    ]
    rows, dens = _integer_form(tab)
    basis = [4, 5, 6]
    pivot = kernel._pivot
    made = [0]

    def bounded_pivot(*args):
        made[0] += 1
        if made[0] > 50:
            raise AssertionError("the simplex cycles")
        pivot(*args)

    monkeypatch.setattr(kernel, "_pivot", bounded_pivot)
    assert kernel.run_simplex(rows, dens, basis) == -1
    assert rat(rows[-1][-1], dens[-1]) == F(5, 4)
    assert kernel._basic_solution(rows, dens, basis, 4) == ([1, 0, 1, 0], 1)


def _random_equalities(rng):
    """rows.x = rhs with x >= 0: feasible from a random nonnegative x,
    or with a random (often negative) rhs; redundant rows are copies,
    negations or sums of earlier ones, zero rows included."""
    m = rng.randint(1, 5)
    cols = _random_columns(rng, m, rng.randint(1, 6))
    rows = [[col[i] for col in cols] for i in range(m)]
    for i in range(1, m):
        pick = rng.random()
        if pick < 0.15:
            rows[i] = [-v for v in rows[rng.randrange(i)]]
        elif pick < 0.3:
            a, b = rows[rng.randrange(i)], rows[rng.randrange(i)]
            rows[i] = [u + v for u, v in zip(a, b)]
        elif pick < 0.35:
            rows[i] = [Fraction(0)] * len(cols)
    if rng.random() < 0.7:
        x = [rng.choice([Fraction(0), abs(_entry(rng))]) for _ in cols]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = [_entry(rng) for _ in rows]
    return rows, rhs


def _as_rationals(ints, d):
    return [Fraction(v, d) for v in ints]


def test_two_phase_pipeline_matches_fraction_kernel():
    rng = random.Random(8128)
    seen = {"infeasible": 0, "negative pivot": 0, "dropped row": 0, "unbounded": 0}
    for _ in range(300):
        rows, rhs = _random_equalities(rng)
        tab, basis, flips, n = oracles.phase1(rows, rhs)
        # the kernel takes the rows and rhs as ints over one denominator
        flat, scale = integer_row([v for row in rows for v in row] + rhs)
        width = len(rows[0])
        int_rows = [flat[i : i + width] for i in range(0, len(rows) * width, width)]
        int_rhs = flat[len(rows) * width :]
        ints, dens, int_basis, int_flips, int_n = kernel._phase1(int_rows, int_rhs, scale)
        assert (int_basis, int_flips, int_n) == (basis, flips, n)
        _assert_same_tableau(ints, dens, tab)
        assert _as_rationals(*kernel._phase1_duals(ints, dens, flips, n)) == [
            (-1 if flip else 1) * (1 - tab[-1][n + i]) for i, flip in enumerate(flips)
        ]
        if tab[-1][-1] != 0:
            seen["infeasible"] += 1
            continue
        for i, col in enumerate(basis):
            if col >= n:
                lead = next((v for v in tab[i][:n] if v != 0), None)
                seen["negative pivot"] += lead is not None and lead < 0
                seen["dropped row"] += lead is None
        oracles.drive_out_artificials(tab, basis, n)
        kernel._drive_out_artificials(ints, dens, int_basis, n)
        assert int_basis == basis
        _assert_same_tableau(ints, dens, tab)
        for row in tab:
            del row[n:-1]
        kernel._strip_columns(ints, dens, n)
        _assert_same_tableau(ints, dens, tab)
        assert _as_rationals(*kernel._basic_solution(ints, dens, int_basis, n)) == [
            next((tab[i][-1] for i, col in enumerate(basis) if col == j), 0)
            for j in range(n)
        ]
        costs = [_entry(rng) for _ in range(n)]
        oracles.set_objective(tab, basis, costs)
        kernel._set_objective(ints, dens, int_basis, *integer_row(costs))
        _assert_same_tableau(ints, dens, tab)
        expected = oracles.run_simplex(tab, basis)
        assert kernel.run_simplex(ints, dens, int_basis) == expected
        assert int_basis == basis
        _assert_same_tableau(ints, dens, tab)
        seen["unbounded"] += expected >= 0
    assert min(seen.values()) > 5


def _rank(matrix):
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_solve_linear_matches_fraction_kernel():
    rng = random.Random(1729)
    seen = {"solved": 0, "singular": 0, "inconsistent": 0}
    for _ in range(300):
        num_vars = rng.randint(1, 5)
        matrix = [[_entry(rng) for _ in range(num_vars)] for _ in range(rng.randint(1, 5))]
        rhs = [_entry(rng) for _ in matrix]
        if len(matrix) > 1 and rng.random() < 0.5:
            # a dependent row: consistent when its rhs follows along
            k = _entry(rng)
            matrix.append([k * v for v in matrix[0]])
            rhs.append(k * rhs[0] if rng.random() < 0.5 else _entry(rng))
        expected = oracles.solve_linear(matrix, rhs, num_vars)
        rows, _scale = oracles.int_rows([(*coeffs, b) for coeffs, b in zip(matrix, rhs)])
        solved = kernel._solve(rows, num_vars)
        assert solved == (None if expected is None else integer_row(expected))
        if expected is None:
            seen["inconsistent"] += 1
        elif _rank(matrix) < num_vars:
            seen["singular"] += 1
        else:
            seen["solved"] += 1
    assert min(seen.values()) > 20


# -- the integer checks reject witnesses nudged by 1/10^9 --------------------

NUDGE = rat(1, 10**9)
HALF = rat(1, 2)


def test_checked_weights_rejects_nudged_weights():
    hull = kernel._hull_input([(0, 0), (1, 1), (0, 0)], (HALF, HALF))
    assert kernel._checked_weights(*integer_row([HALF, HALF]), hull) == (HALF, HALF, 0)
    for cols in ([HALF + NUDGE, HALF], [HALF + NUDGE, HALF - NUDGE]):
        with pytest.raises(LPInternalError, match="recomposition"):
            kernel._checked_weights(*integer_row(cols), hull)


def test_checked_weights_rejects_negative_weight():
    # the weights sum to 1 and recompose p, but one is negative
    hull = kernel._hull_input([(0,), (1,), (2,)], (1,))
    with pytest.raises(LPInternalError, match="negative"):
        kernel._checked_weights(*integer_row([-NUDGE, 1 + 2 * NUDGE, -NUDGE]), hull)


def test_checked_separator_rejects_nonstrict_separator(monkeypatch):
    # p lies 1/10^9 above the segment from (0, 0) to (1, 0); the
    # separator (0, -1) has margin 1/10^9, (-1/10^9, -1) none at (1, 0)
    points, p = [(0, 0), (1, 0)], (0, NUDGE)
    assert hull_membership(points, p) == HullOutside((0, -1), NUDGE)
    original = kernel._phase1_duals

    def nudged(*args):
        duals = _as_rationals(*original(*args))
        return integer_row([duals[0] + NUDGE * duals[1]] + duals[1:])

    monkeypatch.setattr(kernel, "_phase1_duals", nudged)
    with pytest.raises(LPInternalError, match="strictness"):
        hull_membership(points, p)


def _zero_mass_case():
    points = [(0, 1), (0, 0), (0, 1), (HALF, 1), (HALF, 0)]
    counts = [[0, 1], [0, 1], [0], [1], [1]]
    return points, (HALF, 1), counts


def test_verify_zero_mass_rejects_nudged_certificates():
    points, target, counts = _zero_mass_case()
    (y1, y2), y0 = hull_zero_mass_ints(kernel._hull_input(points, target), counts).certificate
    hull = kernel._hull_input(points, target)
    kernel._verify_zero_mass(*integer_row([y1, y2, y0]), hull, counts, {0})
    with pytest.raises(LPInternalError, match="nonzero value"):
        kernel._verify_zero_mass(*integer_row([y1, y2, y0 + NUDGE]), hull, counts, {0})
    # the value y.p + y0 stays 0, but y.q + y0 drops below 1 at (0, 0)
    with pytest.raises(LPInternalError, match="dual feasibility"):
        kernel._verify_zero_mass(*integer_row([y1, y2 + NUDGE, y0 - NUDGE]), hull, counts, {0})


def test_checked_projection_rejects_a_point_that_is_not_the_projection():
    points, p = [(0, 0), (1, 0)], (HALF, 1)
    projection = hull_projection_ints(kernel._hull_input(points, p))
    assert projection == HullProjection((HALF, 0), (HALF, HALF))
    hull = kernel._hull_input(points, p)
    cases = [
        ((HALF + NUDGE, 0), (HALF, HALF), "recomposition"),
        ((HALF, 0), (HALF + NUDGE, HALF), "not convex"),
        # a hull point, recomposed exactly, but not the nearest one
        ((HALF - NUDGE, 0), (HALF + NUDGE, HALF - NUDGE), "obtuse-angle"),
    ]
    for point, weights, message in cases:
        with pytest.raises(LPInternalError, match=message):
            kernel._checked_projection(HullProjection(point, weights), hull)


def test_hull_entry_points_read_ints_fractions_and_strings():
    points = [(0, 0), (1, 3), (2, 1), (1, 3), ("1/2", Fraction(4))]
    exact_points = [tuple(rat(c) for c in q) for q in points]
    for p in [(1, 2), ("3", 3), (Fraction(2, 3), "5/2")]:
        exact_p = tuple(rat(c) for c in p)
        assert hull_membership(points, p) == hull_membership(exact_points, exact_p)
        assert hull_projection_ints(kernel._hull_input(points, p)) == hull_projection_ints(
            kernel._hull_input(exact_points, exact_p)
        )
