"""Exact rational linear programming.

A dense two-phase simplex on integer rows, pricing by Dantzig's rule and
by Bland's rule right after a degenerate pivot, which keeps it finite
(see run_simplex): row i of a tableau is a list of Python ints standing
for that list over dens[i], a positive denominator, kept in lowest
terms.  A pivot cross-multiplies integers and divides each row by one
gcd (fraction-free elimination, after Edmonds and Bareiss), and the
ratio test compares integer products.  The exact linear solves (the
duals of an optimal basis, Wolfe's affine steps) run on the same pivot.

The data stay ints over one common denominator from the input to the
checked certificate: the phase-1 rows are the input rows in lowest
terms, basic solutions and duals come back as ints over their lcm, and
every answer is verified against its defining inequalities on those
ints before being returned, so callers can rely on zero-residual
witnesses and certificates.  Rationals are built only for the values
and duals handed back.  The int cores hull_zero_mass_ints,
hull_projection_ints and linear_range_ints take their data as ints; a
MemberTable of cohkit.coherence holds its values and levels as ints
over one denominator and calls them directly.  hull_membership, which
the geometric criterion check_hull calls, is the one door for
rationals: it converts its points and target with integer_row once and
runs on the same int phase 1.

The entry points are the ones the coherence engine uses, each keeping
its nonnegative variables native instead of splitting signs: convex-hull
membership with a separating certificate, the zero-mass round of
Gilio's check (hull test, then the coordinates with zero mass at every
hull solution, with a dual certificate), the range of a linear objective
over x >= 0 on equality rows (both ends, each proved optimal by its
primal solution and a dual vector), and the exact Euclidean projection
onto a hull that the penalty dominator uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .rationals import ONE, ZERO, integer_row, rat


class LPError(Exception):
    pass


class LPInternalError(LPError):
    """A computed witness failed exact verification; indicates a bug."""


def kernel_name() -> str:
    return "integer-rows"


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
    """Pivot until optimal or unbounded.

    tableau: (m+1) x (n+1) rows of ints, row i standing for the rational
    row tableau[i] / dens[i] (dens positive), the reduced-cost row of a
    minimization last and the right-hand side column last, with
    nonnegative right-hand sides on the constraint rows.  basis: the m
    basic column indices, updated in place.  A row's signs and its
    ratio rhs / entry do not depend on its positive denominator, so the
    ratio test cross-multiplies integers.  Returns -1 at optimality,
    else the entering column proving unboundedness.

    The entering column has the most negative reduced cost (Dantzig's
    rule; the objective row shares one denominator, so its ints compare
    directly, and ties go to the lowest index), except right after a
    degenerate pivot, one whose leaving row has right-hand side 0: then
    it is the first column with a negative reduced cost (Bland's rule).
    The leaving row has the least ratio, ties going to the least basic
    index, as in Bland's rule.  This terminates.  A nondegenerate pivot
    strictly lowers the objective, so no basis recurs across one.  A run
    of degenerate pivots keeps the objective; every choice in it after
    the first is Bland's, from the basis the first one reached, and
    Bland's rule cannot cycle (Bland, Math. Oper. Res. 2, 1977), so the
    run is finite.  Bases being finitely many, so are the pivots.
    """
    m = len(tableau) - 1
    rhs = len(tableau[0]) - 1
    degenerate = False
    while True:
        obj = tableau[m]
        if degenerate:
            enter = next((j for j in range(rhs) if obj[j] < 0), -1)
        else:
            least = min(obj[:rhs], default=0)
            enter = obj.index(least) if least < 0 else -1
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
        degenerate = best_b == 0
        _pivot(tableau, dens, leave, enter)
        basis[leave] = enter


def _phase1(rows, rhs, scale):
    """Set up and run phase 1 on equality rows; returns tableau pieces.

    rows: int coefficient lists (equalities) and rhs: int right-hand
    sides, all over the common denominator scale.  Each row, with its
    rhs and its artificial column (1, so scale), is sign-fixed to a
    nonnegative rhs and brought to lowest terms.  Returns (tableau,
    dens, basis, flips, ncols) after the phase-1 run, with the objective
    row expressing sum of artificials.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    flips = []
    tab = []
    dens = []
    for i in range(m):
        flip = rhs[i] < 0
        sign = -1 if flip else 1
        row = [sign * v for v in rows[i]] + [0] * m + [sign * rhs[i]]
        row[n + i] = scale
        row, d = _reduced(row, scale)
        flips.append(flip)
        tab.append(row)
        dens.append(d)
    # minus the sum of the rows, over their common denominator
    common = lcm(*dens)
    obj = [0] * (n + m + 1)
    for row, d in zip(tab, dens):
        k = common // d
        obj = [o - k * v for o, v in zip(obj, row)]
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
    """The basic solution as (X, L), ints over their lcm in lowest
    terms: x_j = X_j / L."""
    scale = lcm(*(d for d, col in zip(dens, basis) if col < n))
    x = [0] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = tab[i][-1] * (scale // dens[i])
    return _reduced(x, scale)


def _phase1_duals(tab, dens, flips, n):
    """Duals y_i = 1 - reduced cost of artificial column i, unflipped,
    as ints over the objective row's denominator: (Y, dens[-1])."""
    obj = tab[-1]
    d = dens[-1]
    return [obj[n + i] - d if flip else d - obj[n + i] for i, flip in enumerate(flips)], d


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


def _set_objective(tab, dens, basis, costs, scale):
    """Install the reduced-cost row of min costs.x on a feasible basis,
    the costs being ints over scale.

    Basic column col of row i holds dens[i], so clearing it from obj / d
    leaves (obj * dens[i] - obj[col] * row) / (d * dens[i])."""
    width = len(tab[0])
    obj, d = _reduced(list(costs) + [0] * (width - len(costs)), scale)
    for i, col in enumerate(basis):
        coeff = obj[col]
        if coeff:
            di = dens[i]
            obj, d = _reduced([a * di - coeff * b for a, b in zip(obj, tab[i])], d * di)
    tab[-1] = obj
    dens[-1] = d


# -- integer forms of the data and the witnesses ------------------------------

def _dot(u, v):
    return sum(map(mul, u, v))


def _combine(weights, rows):
    """sum_j weights[j] * rows[j] over ints, skipping zero weights."""
    total = [0] * len(rows[0])
    for w, row in zip(weights, rows):
        if w:
            total = [t + w * c for t, c in zip(total, row)]
    return total


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


@dataclass(frozen=True)
class IntHull:
    """A hull query as ints over one common denominator, scale.

    points: the distinct points as int tuples, in order of first
    occurrence (the phase-1 columns); p: the target.  origin[j] is the
    input index of point j's first occurrence, column[h] the index in
    points of input point h.
    """

    points: list
    p: list
    scale: int
    origin: list
    column: list

    @staticmethod
    def build(points: Sequence, p: Sequence, scale: int) -> "IntHull":
        """The query of the int point tuples and the int target over
        scale; a duplicated point would only grow the tableau, so each
        is kept once."""
        unique, origin, column = [], [], []
        seen = {}
        for h, q in enumerate(points):
            j = seen.get(q)
            if j is None:
                j = seen[q] = len(unique)
                unique.append(q)
                origin.append(h)
            column.append(j)
        return IntHull(unique, list(p), scale, origin, column)


def _hull_input(points, p) -> IntHull:
    """The hull query of points and target given as rationals, ints or
    strings (each through rat), as ints over the lcm of all their
    denominators."""
    pts = [[rat(c) for c in q] for q in points]
    if not pts:
        raise LPError("empty point list")
    target = [rat(c) for c in p]
    dim = len(target)
    if any(len(q) != dim for q in pts):
        raise LPError("dimension mismatch between points and target")
    flat, scale = integer_row([c for q in pts for c in q] + target)
    ints = [tuple(flat[h * dim : (h + 1) * dim]) for h in range(len(pts))]
    return IntHull.build(ints, flat[len(pts) * dim :], scale)


def _weights_phase1(hull):
    """Phase 1 on sum(w)=1, sum(w q) = target, w >= 0."""
    rows = [[q[i] for q in hull.points] for i in range(len(hull.p))]
    rows.append([hull.scale] * len(hull.points))
    return _phase1(rows, hull.p + [hull.scale], hull.scale)


def _verify_weights(w, total, hull):
    """Weights w / total on the distinct points, verified exactly: with
    points Q and target P over the common denominator, w >= 0,
    sum(w) = total and sum(w Q) = total P."""
    if any(v < 0 for v in w):
        raise LPInternalError("negative hull weight")
    if sum(w) != total or _combine(w, hull.points) != [total * c for c in hull.p]:
        raise LPInternalError("hull weights fail exact recomposition")


def _checked_weights(w, total, hull):
    """The verified weights w / total as rationals, spread back onto the
    input list (first occurrences)."""
    _verify_weights(w, total, hull)
    weights = [ZERO] * len(hull.column)
    for j, v in zip(hull.origin, w):
        if v:
            weights[j] = rat(v, total)
    return tuple(weights)


def _checked_separator(tab, dens, flips, total, hull):
    """The separator of the phase-1 duals, once it is verified strict.

    The duals are ints over one denominator, so the separator is S / L:
    S the negated duals of the point rows, L the largest |S_i|.  With
    points Q and target P over the common denominator D, S.(Q - P) > 0
    for every point; the margin, the least s.(q - p), is
    min S.(Q - P) / (L D)."""
    duals, _ = _phase1_duals(tab, dens, flips, total)
    s = [-v for v in duals[: len(hull.p)]]
    largest = max(map(abs, s))
    if largest == 0:
        raise LPInternalError("zero separating vector")
    gap = min(_dot(s, q) for q in hull.points) - _dot(s, hull.p)
    if gap <= 0:
        raise LPInternalError("separator fails strictness check")
    return HullOutside(
        tuple(rat(v, largest) for v in s), rat(gap, largest * hull.scale)
    )


def hull_membership(points: Sequence, p: Sequence):
    """Is p a convex combination of the points?

    Returns HullInside with exact weights, or HullOutside with a strict
    linear separator (both verified before returning).
    """
    hull = _hull_input(points, p)
    tab, dens, basis, flips, total = _weights_phase1(hull)
    if tab[-1][-1] == 0:
        return HullInside(_checked_weights(*_basic_solution(tab, dens, basis, total), hull))
    return _checked_separator(tab, dens, flips, total, hull)


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


def hull_zero_mass_ints(hull: IntHull, counts: Sequence):
    """Hull test of the target p, then the coordinates with zero mass
    throughout.

    counts[h] lists the coordinates whose mass counts input point h.
    Phase 1 is the LP of hull_membership, so an outside p gets the same
    verified separator.  Inside, a coordinate counted by a positively
    weighted point has positive mass; for the rest, R, warm-started
    phase-2 LPs on the same tableau maximise the summed mass of R and
    drop from R the coordinates that gain mass, until the optimum is 0.
    Every optimum is recomposed exactly and the final one carries a
    checked dual vector.  Returns HullOutside or HullZeroMass.
    """
    if len(counts) != len(hull.column):
        raise LPError("one coordinate list per point required")
    # a unique column stands for all its duplicates, so mass on it can
    # be spread over every coordinate any of them counts
    column_counts = [set() for _ in hull.points]
    for j, cs in zip(hull.column, counts):
        column_counts[j].update(cs)

    tab, dens, basis, flips, total = _weights_phase1(hull)
    if tab[-1][-1] != 0:
        return _checked_separator(tab, dens, flips, total, hull)
    cols, cols_scale = _basic_solution(tab, dens, basis, total)
    weights = _checked_weights(cols, cols_scale, hull)
    rest = set(range(len(hull.p))) - _massed(cols, column_counts)
    if rest:
        _drive_out_artificials(tab, dens, basis, total)
        _strip_columns(tab, dens, total)
    while rest:
        scores = [len(rest & cs) for cs in column_counts]
        _set_objective(tab, dens, basis, [-c for c in scores], 1)
        if run_simplex(tab, dens, basis) != -1:
            raise LPInternalError("bounded polytope reported unbounded")
        cols, cols_scale = _basic_solution(tab, dens, basis, total)
        _verify_weights(cols, cols_scale, hull)
        if any(w != 0 and c != 0 for w, c in zip(cols, scores)):
            rest -= _massed(cols, column_counts)
            continue
        duals, denominator = _zero_mass_certificate(hull, basis, scores)
        _verify_zero_mass(duals, denominator, hull, counts, rest)
        *y, y0 = duals
        certificate = tuple(rat(v, denominator) for v in y), rat(y0, denominator)
        return HullZeroMass(weights, tuple(sorted(rest)), certificate)
    return HullZeroMass(weights, (), None)


def _massed(cols, column_counts):
    out = set()
    for w, cs in zip(cols, column_counts):
        if w != 0:
            out.update(cs)
    return out


def _zero_mass_certificate(hull, basis, scores):
    """Duals (y, y0) of an optimal basis of max scores.w over the hull
    polytope, as ints over their lcm: y.q_j + y0 = score_j on the basic
    columns, solved as y.(D q_j, D) = D score_j over the common
    denominator D."""
    d = hull.scale
    columns = [q + (d,) for q in hull.points]
    return _basis_duals(columns, basis, [d * s for s in scores])


def _verify_zero_mass(duals, denominator, hull, counts, rest):
    """With (y, y0) as ints (Y, Y0) over denominator L, and points Q and
    target P over the common denominator D: Y.P + D Y0 = 0 (the value
    y.p + y0 is zero), and Y.Q_h + D Y0 >= L D |rest & counts[h]| for
    every input point h (dual feasibility)."""
    *y, y0 = duals
    shift = hull.scale * y0
    if _dot(y, hull.p) + shift != 0:
        raise LPInternalError("zero-mass certificate has a nonzero value")
    values = [_dot(y, q) + shift for q in hull.points]
    unit = denominator * hull.scale
    for j, cs in zip(hull.column, counts):
        if values[j] < unit * len(rest.intersection(cs)):
            raise LPInternalError("zero-mass certificate fails dual feasibility")


# -- Euclidean projection onto a hull ---------------------------------------

@dataclass(frozen=True)
class HullProjection:
    """The point of the hull nearest to p: point = sum(w_h q_h) with
    w >= 0 and sum(w) = 1, and (p - point).(q - point) <= 0 for every
    hull point q."""

    point: tuple
    weights: tuple


def _squared_distance(u, v):
    return sum((a - b) * (a - b) for a, b in zip(u, v))


def _affine_weights(rows, p):
    """Coefficients (summing to 1) of the projection of p onto the
    affine hull of rows, from the normal equations of the directions
    q - rows[0].  Scaling the rows and p by one factor scales the whole
    system by its square, so integer rows give the same coefficients."""
    base = rows[0]
    directions = [[a - b for a, b in zip(q, base)] for q in rows[1:]]
    residual = [a - b for a, b in zip(p, base)]
    normal = [[_dot(d, e) for e in directions] + [_dot(d, residual)] for d in directions]
    solved = _solve(normal, len(directions))
    if solved is None:
        raise LPInternalError("inconsistent normal equations")
    alphas, scale = solved
    return [rat(scale - sum(alphas), scale)] + [rat(a, scale) for a in alphas]


def hull_projection_ints(hull: IntHull) -> HullProjection:
    """Euclidean projection of the target p onto the convex hull of the
    points, by Wolfe's min-norm-point algorithm (Math. Programming 11,
    1976), which terminates finitely in exact arithmetic.

    The corral holds affinely independent points with positive weights
    whose combination x is the projection of p onto their affine hull.
    A major cycle adds the point q with the largest (p - x).(q - x)
    while that is positive; minor cycles then move x towards the affine
    projection over the enlarged corral, as far as the weights stay
    nonnegative, and drop the points whose weight reaches zero.

    The loop runs on the points Q and the target P as ints over the
    common denominator D, with x held as ints X over the lcm L of the
    corral weights, so that x = X / (L D).  (L P - X).(L Q - X) is
    (L D)^2 times (p - x).(q - x): the same sign, order and ties.  The
    result is verified exactly.
    """
    pts, target = hull.points, hull.p
    nearest = min(range(len(pts)), key=lambda j: _squared_distance(target, pts[j]))
    corral, lam = [nearest], [ONE]
    x, scale = list(pts[nearest]), 1
    distance = _squared_distance(target, x)
    while True:
        # (L P - X).(L Q - X) = L (r.Q) - r.X with r = L P - X
        r = [scale * a - b for a, b in zip(target, x)]
        along = [_dot(r, q) for q in pts]
        enter = max(range(len(pts)), key=along.__getitem__)
        if scale * along[enter] <= _dot(r, x):
            break
        corral.append(enter)
        lam.append(ZERO)
        settled = False
        while not settled:
            alpha = _affine_weights([pts[j] for j in corral], target)
            settled = all(a >= 0 for a in alpha)
            if settled:
                lam = alpha
            else:
                theta = min(w / (w - a) for w, a in zip(lam, alpha) if a < 0)
                lam = [w + theta * (a - w) for w, a in zip(lam, alpha)]
            keep = [k for k, w in enumerate(lam) if w != 0]
            corral = [corral[k] for k in keep]
            lam = [lam[k] for k in keep]
        ints, closer_scale = integer_row(lam)
        x_new = _combine(ints, [pts[j] for j in corral])
        closer = _squared_distance([closer_scale * a for a in target], x_new)
        # |p - x|^2 is distance / (L D)^2
        if closer * scale * scale >= distance * closer_scale * closer_scale:
            raise LPInternalError("min-norm step made no progress")
        x, scale, distance = x_new, closer_scale, closer
    weights = [ZERO] * len(hull.column)
    for j, w in zip(corral, lam):
        weights[hull.origin[j]] = w
    unit = scale * hull.scale
    point = tuple(rat(c, unit) for c in x)
    return _checked_projection(HullProjection(point, tuple(weights)), hull)


def _checked_projection(projection, hull):
    """With the weights as ints w over their lcm L, points Q and target
    P over the common denominator D: w >= 0 and sum(w) = L (convex
    weights), X = sum(w Q) equals L D times the point (recomposition),
    and (L P - X).(L Q - X) <= 0 for every point Q (the obtuse-angle
    check, which makes the point the projection)."""
    weights, scale = integer_row(projection.weights)
    if any(w < 0 for w in weights) or sum(weights) != scale:
        raise LPInternalError("projection weights are not convex")
    x = _combine(weights, [hull.points[j] for j in hull.column])
    unit = scale * hull.scale
    point = projection.point
    if len(point) != len(x) or any(
        c.numerator * unit != v * c.denominator for c, v in zip(point, x)
    ):
        raise LPInternalError("projection weights fail exact recomposition")
    r = [scale * a - b for a, b in zip(hull.p, x)]
    offset = _dot(r, x)
    if any(scale * _dot(r, q) > offset for q in hull.points):
        raise LPInternalError("projection fails the obtuse-angle check")
    return projection


def _solve(rows, num_vars):
    """One solution of the int equations rows (each its coefficients,
    then its right-hand side), free variables pinned to zero, as (X, L):
    ints over their lcm in lowest terms.  None when inconsistent.

    Gauss-Jordan elimination by the simplex pivot.  A row's positive
    scale changes neither the pivot choices nor the solution, so every
    row starts over denominator 1."""
    aug = list(rows)
    dens = [1] * len(aug)
    pivots = []
    row = 0
    for col in range(num_vars):
        if row == len(aug):
            break
        sel = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        dens[row], dens[sel] = dens[sel], dens[row]
        _pivot(aug, dens, row, col)
        pivots.append(col)
        row += 1
    if any(aug[r][num_vars] != 0 for r in range(row, len(aug))):
        return None
    scale = lcm(*dens[:row])
    x = [0] * num_vars
    for r, col in enumerate(pivots):
        x[col] = aug[r][num_vars] * (scale // dens[r])
    return _reduced(x, scale)


def linear_range_ints(columns: Sequence, rhs: Sequence, costs: Sequence, scale: int):
    """Range of costs.x over x >= 0 with sum_j x_j columns[j] = rhs, the
    columns, rhs and costs being ints over the common denominator scale.

    Returns (lo, hi), or None when no such x exists.  The objective must
    be bounded below and above on the region; the extension LPs satisfy
    that through a normalising row.  The maximum is the negated minimum
    of -costs, so both ends share phase 1.  Each end is returned, as a
    rational, only after _checked_optimum has verified it against the
    duals of its basis.
    """
    tab, dens, basis, _flips, total = _phase1([list(row) for row in zip(*columns)], rhs, scale)
    if tab[-1][-1] != 0:
        return None
    _drive_out_artificials(tab, dens, basis, total)
    _strip_columns(tab, dens, total)
    ends = []
    for sign in (1, -1):
        # the pivots replace rows and never mutate them
        work = tab[:]
        wdens = dens[:]
        wbasis = basis[:]
        signed = [sign * v for v in costs]
        _set_objective(work, wdens, wbasis, signed, scale)
        if run_simplex(work, wdens, wbasis) != -1:
            raise LPError("objective unbounded over the region")
        primal = _basic_solution(work, wdens, wbasis, total)
        dual = _basis_duals(columns, wbasis, signed)
        ends.append(sign * _checked_optimum(columns, rhs, signed, scale, primal, dual))
    return ends[0], ends[1]


def _basis_duals(columns, basis, costs):
    """Duals of an optimal basis, y.columns[j] = costs[j] on its
    columns, as (Y, L): ints over their lcm."""
    solved = _solve([list(columns[j]) + [costs[j]] for j in basis], len(columns[0]))
    if solved is None:
        raise LPInternalError("optimal basis has inconsistent duals")
    return solved


def _checked_optimum(cols, b, costs, scale, primal, dual):
    """costs.x, once x and y are verified to prove it the minimum.

    cols, b and costs are ints over the common denominator scale; the
    primal x and the dual y are ints X and Y over Lx and Ly.  Checked:
    X >= 0 and sum_j X_j cols[j] = Lx b (primal), Y.cols[j] <= Ly
    costs[j] for every j (dual), and Lx Y.b = Ly costs.X (equal values).
    The value is costs.X / (Lx scale)."""
    x, x_scale = primal
    if any(v < 0 for v in x):
        raise LPInternalError("negative primal value")
    if _combine(x, cols) != [x_scale * v for v in b]:
        raise LPInternalError("primal solution fails exact feasibility")
    y, y_scale = dual
    if any(_dot(y, col) > y_scale * cost for col, cost in zip(cols, costs)):
        raise LPInternalError("duals fail exact dual feasibility")
    value = _dot(costs, x)
    if x_scale * _dot(y, b) != y_scale * value:
        raise LPInternalError("primal and dual values differ")
    return rat(value, x_scale * scale)
