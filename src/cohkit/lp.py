"""Exact rational linear programming.

A dense two-phase simplex with Bland's rule on integer rows: row i of a
tableau is a list of Python ints standing for that list over dens[i], a
positive denominator, kept in lowest terms.  A pivot cross-multiplies
integers and divides each row by one gcd (fraction-free elimination,
after Edmonds and Bareiss), the ratio test compares integer products,
and rationals are built only for the basic values and duals handed
back; the exact linear solves share these rows.  Every answer is
verified in rationals against its defining inequalities before being
returned, so callers can rely on zero-residual witnesses and
certificates.  The convex-hull membership test and the range query
(both ends of a linear objective, each proved optimal by its primal
solution and a dual vector) used by the coherence engine live here as
specialized entry points that keep the nonnegative variables native
instead of splitting signs, beside the exact Euclidean projection onto
a hull that the penalty dominator uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .rationals import ONE, ZERO, rat

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

FEASIBILITY = None


class LPError(Exception):
    pass


class LPInternalError(LPError):
    """A computed witness failed exact verification; indicates a bug."""


def kernel_name() -> str:
    return "integer-rows"


def _integer_row(values):
    """(ints, d) with ints[j] / d == values[j]: d is the lcm of the
    entries' denominators, the one positive d with gcd(d, *ints) == 1."""
    nums = [int(v.numerator) for v in values]
    dens = [int(v.denominator) for v in values]
    d = lcm(*dens)
    if d == 1:
        return nums, 1
    return [a * (d // e) for a, e in zip(nums, dens)], d


def _reduced(row, d):
    """row / d in lowest terms: both divided by gcd(d, *row)."""
    g = gcd(d, *row)
    if g == 1:
        return row, d
    return [v // g for v in row], d // g


def _pivot(rows, dens, r, c):
    """Scale row r to a unit entry in column c and clear column c from
    every other row (the last row included).

    Row i stands for rows[i] / dens[i].  The pivot row becomes itself
    over its pivot entry, sign-fixed so that dens stays positive; row i
    becomes (rows[i] * p - a_i * pivot_row) / (dens[i] * p), where p is
    the new pivot row's denominator (its pivot entry) and a_i = rows[i][c].
    Every row is replaced, never mutated, and left in lowest terms.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    prow, p = _reduced(prow, p)
    rows[r] = prow
    dens[r] = p
    for i, row in enumerate(rows):
        a = row[c]
        if a and i != r:
            rows[i], dens[i] = _reduced(
                [x * p - a * y for x, y in zip(row, prow)], dens[i] * p
            )


def run_simplex(tableau, dens, basis):
    """Pivot with Bland's rule until optimal or unbounded.

    tableau: (m+1) x (n+1) rows of ints, row i standing for the rational
    row tableau[i] / dens[i] (dens positive), the reduced-cost row of a
    minimization last and the right-hand side column last, with
    nonnegative right-hand sides on the constraint rows.  basis: the m
    basic column indices, updated in place.  A row's signs and its
    ratio rhs / entry do not depend on its positive denominator, so the
    ratio test cross-multiplies integers.  Bland's rule in both the
    entering and the leaving choice guarantees termination.  Returns -1
    at optimality, else the entering column proving unboundedness.
    """
    m = len(tableau) - 1
    rhs = len(tableau[0]) - 1
    while True:
        obj = tableau[m]
        enter = next((j for j in range(rhs) if obj[j] < 0), -1)
        if enter < 0:
            return -1
        leave = -1
        for i in range(m):
            row = tableau[i]
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_b, best_a = i, row[rhs], a
                    continue
                lhs, rhs_best = row[rhs] * best_a, best_b * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, row[rhs], a
        if leave < 0:
            return enter
        _pivot(tableau, dens, leave, enter)
        basis[leave] = enter


@dataclass(frozen=True)
class LinearProgram:
    """min/max of objective . x subject to rows coeffs . x (rel) rhs.

    Variables are free; bounds are ordinary constraint rows.  objective
    None means a pure feasibility problem.
    """

    num_vars: int
    constraints: tuple
    objective: Optional[tuple] = FEASIBILITY
    maximize: bool = False

    @staticmethod
    def build(num_vars, constraints, objective=FEASIBILITY, maximize=False):
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(rat(c) for c in coeffs)
            if len(coeffs) != num_vars:
                raise LPError(
                    f"row width {len(coeffs)} does not match {num_vars} variables"
                )
            if rel not in _RELATIONS:
                raise LPError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel, rat(rhs)))
        obj = None if objective is FEASIBILITY else tuple(rat(c) for c in objective)
        if obj is not None and len(obj) != num_vars:
            raise LPError("objective width does not match variable count")
        return LinearProgram(num_vars, tuple(rows), obj, maximize)


@dataclass(frozen=True)
class Optimal:
    status = "optimal"
    value: object
    solution: tuple


@dataclass(frozen=True)
class Feasible:
    status = "feasible"
    solution: tuple


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate y: y.A == 0 and y.b > 0, with y <= 0 on <= rows
    and y >= 0 on >= rows (free on equalities), so any feasible x would
    force 0 = y.A.x >= y.b > 0."""

    status = "infeasible"
    certificate: tuple


@dataclass(frozen=True)
class Unbounded:
    """Improving ray d from a feasible point: A.d respects every row
    direction at rhs 0 and the objective strictly improves along d."""

    status = "unbounded"
    ray: tuple


def _phase1(rows, rhs_col):
    """Set up and run phase 1 on equality rows; returns tableau pieces.

    rows: list of rational coefficient lists (equalities), rhs_col: list
    of right hand sides.  Each row becomes ints over its lcm denominator,
    sign-fixed to a nonnegative rhs, with an artificial column appended.
    Returns (tableau, dens, basis, flips, ncols) after the phase-1 run,
    with the objective row expressing sum of artificials.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    flips = []
    tab = []
    dens = []
    for i in range(m):
        row, d = _integer_row(list(rows[i]) + [rhs_col[i]])
        flip = row[-1] < 0
        if flip:
            row = [-v for v in row]
        flips.append(flip)
        row[n:n] = [0] * m
        row[n + i] = d
        tab.append(row)
        dens.append(d)
    # minus the sum of the rows, over their common denominator
    common = lcm(*dens)
    obj = [0] * (n + m + 1)
    for row, d in zip(tab, dens):
        scale = common // d
        obj = [o - scale * v for o, v in zip(obj, row)]
    obj[n : n + m] = [0] * m
    obj, d = _reduced(obj, common)
    tab.append(obj)
    dens.append(d)
    basis = [n + i for i in range(m)]
    result = run_simplex(tab, dens, basis)
    if result != -1:
        raise LPInternalError("phase 1 cannot be unbounded")
    return tab, dens, basis, flips, n


def _basic_solution(tab, dens, basis, n):
    x = [ZERO] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = rat(tab[i][-1], dens[i])
    return x


def _phase1_duals(tab, dens, flips, n):
    """Duals y_i = 1 - reduced cost of artificial column i, unflipped."""
    obj = tab[-1]
    d = dens[-1]
    duals = []
    for i, flip in enumerate(flips):
        y = rat(d - obj[n + i], d)
        duals.append(-y if flip else y)
    return duals


def _drive_out_artificials(tab, dens, basis, n):
    """Pivot basic artificials out; drop rows that are fully redundant."""
    drop = []
    for i in range(len(tab) - 1):
        if basis[i] < n:
            continue
        pivot_col = next((j for j in range(n) if tab[i][j] != 0), -1)
        if pivot_col < 0:
            drop.append(i)
            continue
        _pivot(tab, dens, i, pivot_col)
        basis[i] = pivot_col
    for i in reversed(drop):
        del tab[i]
        del dens[i]
        del basis[i]


def _strip_columns(tab, dens, keep_width):
    """Drop the columns from keep_width up to the rhs, then bring each
    row back to lowest terms."""
    for i, row in enumerate(tab):
        del row[keep_width:-1]
        tab[i], dens[i] = _reduced(row, dens[i])


def _set_objective(tab, dens, basis, costs):
    """Install the reduced-cost row of min costs.x on a feasible basis.

    Basic column col of row i holds dens[i], so clearing it from obj / d
    leaves (obj * dens[i] - obj[col] * row) / (d * dens[i])."""
    width = len(tab[0])
    obj, d = _integer_row(list(costs) + [0] * (width - len(costs)))
    for i, col in enumerate(basis):
        coeff = obj[col]
        if coeff:
            di = dens[i]
            obj, d = _reduced([a * di - coeff * b for a, b in zip(obj, tab[i])], d * di)
    tab[-1] = obj
    dens[-1] = d


def solve(lp: LinearProgram):
    """Solve an exact LP; returns Optimal/Feasible/Infeasible/Unbounded."""
    if not isinstance(lp, LinearProgram):
        raise LPError("expected a LinearProgram")
    n = lp.num_vars
    m = len(lp.constraints)
    # split free variables, add slack/surplus columns
    nslack = sum(1 for _c, rel, _b in lp.constraints if rel != EQ)
    rows = []
    rhs_col = []
    slack_cols = {}
    next_slack = 2 * n
    for i, (coeffs, rel, b) in enumerate(lp.constraints):
        row = [rat(0)] * (2 * n + nslack)
        for j, c in enumerate(coeffs):
            row[2 * j] = c
            row[2 * j + 1] = -c
        if rel != EQ:
            row[next_slack] = rat(1) if rel == LE else rat(-1)
            slack_cols[i] = next_slack
            next_slack += 1
        rows.append(row)
        rhs_col.append(b)
    if m == 0:
        if lp.objective is None:
            return Feasible(tuple())
        zero = tuple(rat(0) for _ in range(n))
        if any(c != 0 for c in lp.objective):
            return Unbounded(_verify_ray(lp, _objective_ray(lp)))
        return Optimal(rat(0), zero)

    tab, dens, basis, flips, total = _phase1(rows, rhs_col)
    if tab[-1][-1] < 0:
        duals = _phase1_duals(tab, dens, flips, total)
        return Infeasible(_verify_certificate(lp, duals))

    _drive_out_artificials(tab, dens, basis, total)
    _strip_columns(tab, dens, total)

    if lp.objective is None:
        x = _split_solution(_basic_solution(tab, dens, basis, total), n)
        _verify_feasible(lp, x)
        return Feasible(tuple(x))

    costs = [rat(0)] * total
    sign = rat(-1) if lp.maximize else rat(1)
    for j, c in enumerate(lp.objective):
        costs[2 * j] = sign * c
        costs[2 * j + 1] = -sign * c
    _set_objective(tab, dens, basis, costs)
    result = run_simplex(tab, dens, basis)
    if result != -1:
        ray = _ray_from_tableau(tab, dens, basis, result, total, n)
        return Unbounded(_verify_ray(lp, ray))
    x = _split_solution(_basic_solution(tab, dens, basis, total), n)
    _verify_feasible(lp, x)
    value = sum((c * xi for c, xi in zip(lp.objective, x)), rat(0))
    return Optimal(value, tuple(x))


def _split_solution(cols, n):
    return [cols[2 * j] - cols[2 * j + 1] for j in range(n)]


def _objective_ray(lp):
    sign = rat(1) if lp.maximize else rat(-1)
    return [sign * c for c in lp.objective]


def _ray_from_tableau(tab, dens, basis, enter, total, n):
    direction = [rat(0)] * total
    direction[enter] = rat(1)
    for i, col in enumerate(basis):
        if col < total:
            direction[col] = rat(-tab[i][enter], dens[i])
    return _split_solution(direction, n)


def _verify_feasible(lp, x):
    for coeffs, rel, b in lp.constraints:
        lhs = sum((c * xi for c, xi in zip(coeffs, x)), rat(0))
        ok = lhs <= b if rel == LE else lhs >= b if rel == GE else lhs == b
        if not ok:
            raise LPInternalError("solution fails exact feasibility check")
    return x


def _verify_certificate(lp, duals):
    n = lp.num_vars
    combo = [rat(0)] * n
    total = rat(0)
    for y, (coeffs, rel, b) in zip(duals, lp.constraints):
        if rel == LE and y > 0:
            raise LPInternalError("certificate sign error on <= row")
        if rel == GE and y < 0:
            raise LPInternalError("certificate sign error on >= row")
        for j, c in enumerate(coeffs):
            combo[j] += y * c
        total += y * b
    if any(c != 0 for c in combo) or total <= 0:
        raise LPInternalError("certificate fails exact Farkas check")
    return tuple(duals)


def _verify_ray(lp, ray):
    improving = sum((c * d for c, d in zip(lp.objective, ray)), rat(0))
    if lp.maximize:
        improving = -improving
    if improving >= 0:
        raise LPInternalError("ray does not improve the objective")
    for coeffs, rel, _b in lp.constraints:
        along = sum((c * d for c, d in zip(coeffs, ray)), rat(0))
        ok = along <= 0 if rel == LE else along >= 0 if rel == GE else along == 0
        if not ok:
            raise LPInternalError("ray escapes the feasible cone")
    return tuple(ray)


# -- convex hull membership ------------------------------------------------

@dataclass(frozen=True)
class HullInside:
    status = "inside"
    weights: tuple


@dataclass(frozen=True)
class HullOutside:
    """Separator s with s.q > s.p for every hull point q; normalized so
    the largest absolute component is 1."""

    status = "outside"
    separator: tuple
    margin: object


def _weights_phase1(points, target):
    """Phase 1 on sum(w)=1, sum(w q) = target, w >= 0."""
    m = len(points)
    dim = len(target)
    rows = []
    rhs_col = []
    for i in range(dim):
        rows.append([q[i] for q in points])
        rhs_col.append(target[i])
    rows.append([rat(1)] * m)
    rhs_col.append(rat(1))
    return _phase1(rows, rhs_col)


def _hull_input(points, p):
    pts = [tuple(rat(c) for c in q) for q in points]
    if not pts:
        raise LPError("empty point list")
    target = tuple(rat(c) for c in p)
    if any(len(q) != len(target) for q in pts):
        raise LPError("dimension mismatch between points and target")
    # duplicated points only grow the tableau
    unique = []
    origin = []
    seen = {}
    for idx, q in enumerate(pts):
        if q not in seen:
            seen[q] = len(unique)
            unique.append(q)
            origin.append(idx)
    return pts, target, unique, origin


def _checked_weights(cols, origin, pts, target):
    """Basic solution over the unique points, spread back onto the
    original list (first occurrences) and verified exactly."""
    weights = [rat(0)] * len(pts)
    for j, w in enumerate(cols):
        weights[origin[j]] = w
    recomposed = [rat(0)] * len(target)
    mass = rat(0)
    for w, q in zip(weights, pts):
        if w < 0:
            raise LPInternalError("negative hull weight")
        mass += w
        for i, c in enumerate(q):
            recomposed[i] += w * c
    if mass != 1 or any(r != t for r, t in zip(recomposed, target)):
        raise LPInternalError("hull weights fail exact recomposition")
    return tuple(weights)


def _checked_separator(tab, dens, flips, total, pts, target):
    duals = _phase1_duals(tab, dens, flips, total)
    separator = [-duals[i] for i in range(len(target))]
    largest = max(abs(c) for c in separator)
    if largest == 0:
        raise LPInternalError("zero separating vector")
    separator = [c / largest for c in separator]
    offset = sum((s * c for s, c in zip(separator, target)), rat(0))
    margin = None
    for q in pts:
        gap = sum((s * c for s, c in zip(separator, q)), rat(0)) - offset
        if gap <= 0:
            raise LPInternalError("separator fails strictness check")
        if margin is None or gap < margin:
            margin = gap
    return HullOutside(tuple(separator), margin)


def hull_membership(points: Sequence, p: Sequence):
    """Is p a convex combination of the points?

    Returns HullInside with exact weights, or HullOutside with a strict
    linear separator (both verified before returning).
    """
    pts, target, unique, origin = _hull_input(points, p)
    tab, dens, basis, flips, total = _weights_phase1(unique, target)
    if tab[-1][-1] == 0:
        cols = _basic_solution(tab, dens, basis, total)
        return HullInside(_checked_weights(cols, origin, pts, target))
    return _checked_separator(tab, dens, flips, total, pts, target)


@dataclass(frozen=True)
class HullZeroMass:
    """p is inside the hull.

    weights: the basic solution hull_membership returns.  zero_mass: the
    coordinates i whose mass Phi_i(w), the sum of w_h over the points h
    that count for i, is zero at every hull solution w.  certificate:
    (y, y0) with y.q_h + y0 >= (number of zero_mass coordinates counting
    point h) for every h and y.p + y0 = 0, which bounds their summed mass
    by 0; None when zero_mass is empty.
    """

    status = "inside"
    weights: tuple
    zero_mass: tuple
    certificate: Optional[tuple]


def hull_zero_mass(points: Sequence, p: Sequence, counts: Sequence):
    """Hull test of p, then the coordinates with zero mass throughout.

    counts[h] lists the coordinates whose mass counts point h.  Phase 1
    is the LP of hull_membership, so an outside p gets the same verified
    separator.  Inside, a coordinate counted by a positively weighted
    point has positive mass; for the rest, R, warm-started phase-2 LPs on
    the same tableau maximise the summed mass of R and drop from R the
    coordinates that gain mass, until the optimum is 0.  Every optimum is
    recomposed exactly and the final one carries a checked dual vector.
    Returns HullOutside or HullZeroMass.
    """
    pts, target, unique, origin = _hull_input(points, p)
    if len(counts) != len(pts):
        raise LPError("one coordinate list per point required")
    dim = len(target)
    # a unique column stands for all its duplicates, so mass on it can
    # be spread over every coordinate any of them counts
    column_counts = [set() for _ in unique]
    index = {q: j for j, q in enumerate(unique)}
    for q, cs in zip(pts, counts):
        column_counts[index[q]].update(cs)

    tab, dens, basis, flips, total = _weights_phase1(unique, target)
    if tab[-1][-1] != 0:
        return _checked_separator(tab, dens, flips, total, pts, target)
    cols = _basic_solution(tab, dens, basis, total)
    weights = _checked_weights(cols, origin, pts, target)
    rest = set(range(dim)) - _massed(cols, column_counts)
    if rest:
        _drive_out_artificials(tab, dens, basis, total)
        _strip_columns(tab, dens, total)
    while rest:
        scores = [len(rest & cs) for cs in column_counts]
        _set_objective(tab, dens, basis, [-c for c in scores])
        if run_simplex(tab, dens, basis) != -1:
            raise LPInternalError("bounded polytope reported unbounded")
        cols = _basic_solution(tab, dens, basis, total)
        _checked_weights(cols, origin, pts, target)
        if any(w != 0 and c != 0 for w, c in zip(cols, scores)):
            rest -= _massed(cols, column_counts)
            continue
        certificate = _zero_mass_certificate(unique, basis, scores)
        _verify_zero_mass(certificate, pts, counts, target, rest)
        return HullZeroMass(weights, tuple(sorted(rest)), certificate)
    return HullZeroMass(weights, (), None)


def _massed(cols, column_counts):
    out = set()
    for w, cs in zip(cols, column_counts):
        if w != 0:
            out.update(cs)
    return out


def _zero_mass_certificate(unique, basis, scores):
    """Duals (y, y0) of an optimal basis of max scores.w over the hull
    polytope: y.q_j + y0 = score_j on the basic columns."""
    columns = [q + (ONE,) for q in unique]
    solution = _basis_duals(columns, basis, [rat(s) for s in scores])
    return tuple(solution[:-1]), solution[-1]


def _verify_zero_mass(certificate, pts, counts, target, rest):
    y, y0 = certificate
    if sum((a * b for a, b in zip(y, target)), y0) != 0:
        raise LPInternalError("zero-mass certificate has a nonzero value")
    for q, cs in zip(pts, counts):
        lhs = sum((a * b for a, b in zip(y, q)), y0)
        if lhs < len(rest.intersection(cs)):
            raise LPInternalError("zero-mass certificate fails dual feasibility")


# -- Euclidean projection onto a hull ---------------------------------------

@dataclass(frozen=True)
class HullProjection:
    """The point of the hull nearest to p: point = sum(w_h q_h) with
    w >= 0 and sum(w) = 1, and (p - point).(q - point) <= 0 for every
    hull point q."""

    point: tuple
    weights: tuple


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _gap(p, x, q):
    """(p - x).(q - x): positive exactly when moving from x towards q
    brings x closer to p."""
    return sum(((a - b) * (c - b) for a, b, c in zip(p, x, q)), ZERO)


def _combine(weights, rows):
    return tuple(_dot(weights, column) for column in zip(*rows))


def _affine_weights(rows, p):
    """Coefficients (summing to 1) of the projection of p onto the
    affine hull of rows, from the normal equations of the directions
    q - rows[0]."""
    base = rows[0]
    directions = [[a - b for a, b in zip(q, base)] for q in rows[1:]]
    residual = [a - b for a, b in zip(p, base)]
    gram = [[_dot(d, e) for e in directions] for d in directions]
    alphas = solve_linear(gram, [_dot(d, residual) for d in directions], len(directions))
    if alphas is None:
        raise LPInternalError("inconsistent normal equations")
    return [ONE - sum(alphas, ZERO)] + alphas


def hull_projection(points: Sequence, p: Sequence) -> HullProjection:
    """Euclidean projection of p onto the convex hull of the points.

    Wolfe's min-norm-point algorithm (Math. Programming 11, 1976), which
    terminates finitely in exact arithmetic.  The corral holds affinely
    independent points with positive weights whose combination x is the
    projection of p onto their affine hull.  A major cycle adds the point
    q with the largest (p - x).(q - x) while that is positive; minor
    cycles then move x towards the affine projection over the enlarged
    corral, as far as the weights stay nonnegative, and drop the points
    whose weight reaches zero.  The result is verified exactly.
    """
    pts, target, unique, origin = _hull_input(points, p)
    # _gap(p, q, p) is the squared distance from q to p
    nearest = min(range(len(unique)), key=lambda j: _gap(target, unique[j], target))
    corral, lam = [nearest], [ONE]
    x = unique[nearest]
    distance = _gap(target, x, target)
    while True:
        gaps = [_gap(target, x, q) for q in unique]
        enter = max(range(len(unique)), key=gaps.__getitem__)
        if gaps[enter] <= 0:
            break
        corral.append(enter)
        lam.append(ZERO)
        settled = False
        while not settled:
            alpha = _affine_weights([unique[j] for j in corral], target)
            settled = all(a >= 0 for a in alpha)
            if settled:
                lam = alpha
            else:
                theta = min(w / (w - a) for w, a in zip(lam, alpha) if a < 0)
                lam = [w + theta * (a - w) for w, a in zip(lam, alpha)]
            keep = [k for k, w in enumerate(lam) if w != 0]
            corral = [corral[k] for k in keep]
            lam = [lam[k] for k in keep]
        x = _combine(lam, [unique[j] for j in corral])
        closer = _gap(target, x, target)
        if closer >= distance:
            raise LPInternalError("min-norm step made no progress")
        distance = closer
    weights = [ZERO] * len(pts)
    for j, w in zip(corral, lam):
        weights[origin[j]] = w
    return _checked_projection(HullProjection(x, tuple(weights)), pts, target)


def _checked_projection(projection, pts, target):
    x, weights = projection.point, projection.weights
    if any(w < 0 for w in weights) or sum(weights, ZERO) != 1:
        raise LPInternalError("projection weights are not convex")
    if _combine(weights, pts) != x:
        raise LPInternalError("projection weights fail exact recomposition")
    if any(_gap(target, x, q) > 0 for q in pts):
        raise LPInternalError("projection fails the obtuse-angle check")
    return projection


def solve_linear(matrix, rhs, num_vars):
    """One exact solution of matrix.x = rhs (free variables pinned to
    zero), or None when the system is inconsistent."""
    aug = []
    dens = []
    for i, coeffs in enumerate(matrix):
        ints, d = _integer_row(list(coeffs) + [rhs[i]])
        aug.append(ints)
        dens.append(d)
    pivots = []
    row = 0
    for col in range(num_vars):
        sel = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        dens[row], dens[sel] = dens[sel], dens[row]
        _pivot(aug, dens, row, col)
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    if any(aug[r][num_vars] != 0 for r in range(row, len(aug))):
        return None
    solution = [rat(0)] * num_vars
    for r, col in enumerate(pivots):
        solution[col] = rat(aug[r][num_vars], dens[r])
    return solution


def linear_range(columns: Sequence, rhs: Sequence, costs: Sequence):
    """Range of costs.x over x >= 0 with sum_j x_j columns[j] = rhs.

    Returns (lo, hi), or None when no such x exists.  The objective must
    be bounded below and above on the region; the extension LPs and
    polytope_range satisfy that through a normalising row.  The maximum
    is the negated minimum of -costs, so both ends share phase 1.  Each
    end is returned only after _checked_optimum has verified it.
    """
    cols = [tuple(rat(c) for c in col) for col in columns]
    b = tuple(rat(v) for v in rhs)
    c = [rat(v) for v in costs]
    if not cols or len(c) != len(cols) or any(len(col) != len(b) for col in cols):
        raise LPError("bad range description")
    tab, dens, basis, _flips, total = _phase1([list(row) for row in zip(*cols)], b)
    if tab[-1][-1] != 0:
        return None
    _drive_out_artificials(tab, dens, basis, total)
    _strip_columns(tab, dens, total)
    ends = []
    for sign in (ONE, -ONE):
        # the pivots replace rows and never mutate them
        work = tab[:]
        wdens = dens[:]
        wbasis = basis[:]
        signed = [sign * v for v in c]
        _set_objective(work, wdens, wbasis, signed)
        if run_simplex(work, wdens, wbasis) != -1:
            raise LPError("objective unbounded over the region")
        x = _basic_solution(work, wdens, wbasis, total)
        y = _basis_duals(cols, wbasis, signed)
        ends.append(sign * _checked_optimum(cols, b, signed, x, y))
    return ends[0], ends[1]


def _basis_duals(cols, basis, costs):
    """Duals y of an optimal basis: y.cols[j] = costs[j] on its columns."""
    duals = solve_linear(
        [cols[j] for j in basis], [costs[j] for j in basis], len(cols[0])
    )
    if duals is None:
        raise LPInternalError("optimal basis has inconsistent duals")
    return duals


def _checked_optimum(cols, b, costs, x, y):
    """costs.x, once x and y are verified to prove it the minimum: x >= 0
    and sum_j x_j cols[j] = b (primal), y.cols[j] <= costs[j] for every
    j (dual), and y.b = costs.x (equal values)."""
    if any(v < 0 for v in x):
        raise LPInternalError("negative primal value")
    if _combine(x, cols) != b:
        raise LPInternalError("primal solution fails exact feasibility")
    if any(_dot(y, col) > cost for col, cost in zip(cols, costs)):
        raise LPInternalError("duals fail exact dual feasibility")
    value = _dot(costs, x)
    if _dot(y, b) != value:
        raise LPInternalError("primal and dual values differ")
    return value


def polytope_range(points: Sequence, fixed: Sequence, scores: Sequence):
    """Range of sum(w s_h) over w >= 0, sum w = 1, sum(w q_h) = fixed.

    points: rows q_h (possibly empty tuples when fixed is empty); scores:
    one value per row.  Returns (lo, hi), verified by linear_range, or
    None when the polytope is empty.
    """
    target = tuple(fixed) + (ONE,)
    if not points or any(len(q) != len(fixed) for q in points):
        raise LPError("bad polytope description")
    return linear_range([tuple(q) + (ONE,) for q in points], target, scores)
