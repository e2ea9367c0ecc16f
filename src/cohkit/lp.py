"""Exact rational linear programming.

A dense two-phase simplex on integer rows, pricing by Dantzig's rule and
by Bland's rule right after a degenerate pivot, which keeps it finite
(see run_simplex): row i of a tableau is a list of Python ints standing
for that list over dens[i], a positive denominator, kept in lowest
terms.  A pivot cross-multiplies integers and divides each row by one
gcd (fraction-free elimination, after Edmonds and Bareiss), the ratio
test compares integer products, and rationals are built only for the
basic values and duals handed back; the exact linear solves share these
rows.

Every answer is verified against its defining inequalities before being
returned, apart from the kernel and on the same fraction-free idea: the
input data are scaled to ints over one common denominator, a witness
(weights, separator, duals, projection) to ints over the lcm of its own
denominators, and each identity is checked on those ints, so callers can
rely on zero-residual witnesses and certificates.

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

_RATIONAL = type(ZERO)


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
        row, d = integer_row(list(rows[i]) + [rhs_col[i]])
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
    obj, d = integer_row(list(costs) + [0] * (width - len(costs)))
    for i, col in enumerate(basis):
        coeff = obj[col]
        if coeff:
            di = dens[i]
            obj, d = _reduced([a * di - coeff * b for a, b in zip(obj, tab[i])], d * di)
    tab[-1] = obj
    dens[-1] = d




# -- integer forms of the data and the witnesses ------------------------------

def _rationals(values):
    """values as rationals: those already of the backend's type as they
    are, anything else (ints, strings, other rationals) through rat."""
    return [v if type(v) is _RATIONAL else rat(v) for v in values]


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
class _Hull:
    """The points and the target of a hull query.

    unique: the distinct points as rationals, in order of first
    occurrence (the phase-1 columns); target: p as rationals.  The same
    data as ints over scale, the lcm of all their denominators: ints[j]
    is scale * unique[j] and p is scale * target.  origin[j] is the input
    index of unique point j's first occurrence, column[h] the index in
    unique of input point h.
    """

    unique: list
    target: list
    ints: list
    p: list
    scale: int
    origin: list
    column: list


def _hull_input(points, p):
    pts = [_rationals(q) for q in points]
    if not pts:
        raise LPError("empty point list")
    target = _rationals(p)
    dim = len(target)
    if any(len(q) != dim for q in pts):
        raise LPError("dimension mismatch between points and target")
    flat, scale = integer_row([c for q in pts for c in q] + target)
    # duplicated points only grow the tableau
    unique, ints, origin, column = [], [], [], []
    seen = {}
    for h, q in enumerate(pts):
        key = tuple(flat[h * dim : (h + 1) * dim])
        j = seen.get(key)
        if j is None:
            j = seen[key] = len(ints)
            unique.append(q)
            ints.append(key)
            origin.append(h)
        column.append(j)
    return _Hull(unique, target, ints, flat[len(pts) * dim :], scale, origin, column)


def _weights_phase1(hull):
    """Phase 1 on sum(w)=1, sum(w q) = target, w >= 0."""
    rows = [[q[i] for q in hull.unique] for i in range(len(hull.target))]
    rows.append([ONE] * len(hull.unique))
    return _phase1(rows, hull.target + [ONE])


def _checked_weights(cols, hull):
    """Weights on the unique points, verified exactly and spread back
    onto the input list (first occurrences).  As ints w over their lcm
    L, with points Q and target P over the common denominator: w >= 0,
    sum(w) = L and sum(w Q) = L P."""
    w, total = integer_row(cols)
    if any(v < 0 for v in w):
        raise LPInternalError("negative hull weight")
    if sum(w) != total or _combine(w, hull.ints) != [total * c for c in hull.p]:
        raise LPInternalError("hull weights fail exact recomposition")
    weights = [ZERO] * len(hull.column)
    for j, v in zip(hull.origin, cols):
        weights[j] = v
    return tuple(weights)


def _checked_separator(tab, dens, flips, total, hull):
    """The separator of the phase-1 duals, once it is verified strict.

    The separator is S / L: S the negated duals as ints over their lcm,
    L the largest |S_i|.  With points Q and target P over the common
    denominator D, S.(Q - P) > 0 for every point; the margin, the least
    s.(q - p), is min S.(Q - P) / (L D)."""
    dual, _ = integer_row(_phase1_duals(tab, dens, flips, total)[: len(hull.p)])
    largest = max(map(abs, dual))
    if largest == 0:
        raise LPInternalError("zero separating vector")
    s = [-v for v in dual]
    gap = min(_dot(s, q) for q in hull.ints) - _dot(s, hull.p)
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
        cols = _basic_solution(tab, dens, basis, total)
        return HullInside(_checked_weights(cols, hull))
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
    hull = _hull_input(points, p)
    if len(counts) != len(hull.column):
        raise LPError("one coordinate list per point required")
    # a unique column stands for all its duplicates, so mass on it can
    # be spread over every coordinate any of them counts
    column_counts = [set() for _ in hull.ints]
    for j, cs in zip(hull.column, counts):
        column_counts[j].update(cs)

    tab, dens, basis, flips, total = _weights_phase1(hull)
    if tab[-1][-1] != 0:
        return _checked_separator(tab, dens, flips, total, hull)
    cols = _basic_solution(tab, dens, basis, total)
    weights = _checked_weights(cols, hull)
    rest = set(range(len(hull.p))) - _massed(cols, column_counts)
    if rest:
        _drive_out_artificials(tab, dens, basis, total)
        _strip_columns(tab, dens, total)
    while rest:
        scores = [len(rest & cs) for cs in column_counts]
        _set_objective(tab, dens, basis, [-c for c in scores])
        if run_simplex(tab, dens, basis) != -1:
            raise LPInternalError("bounded polytope reported unbounded")
        cols = _basic_solution(tab, dens, basis, total)
        _checked_weights(cols, hull)
        if any(w != 0 and c != 0 for w, c in zip(cols, scores)):
            rest -= _massed(cols, column_counts)
            continue
        certificate = _zero_mass_certificate(hull, basis, scores)
        _verify_zero_mass(certificate, hull, counts, rest)
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
    polytope: y.q_j + y0 = score_j on the basic columns, solved as
    y.(D q_j, D) = D score_j over the common denominator D."""
    d = hull.scale
    columns = [q + (d,) for q in hull.ints]
    solution = _basis_duals(columns, basis, [d * s for s in scores])
    return tuple(solution[:-1]), solution[-1]


def _verify_zero_mass(certificate, hull, counts, rest):
    """With (y, y0) as ints (Y, Y0) over their lcm L, and points Q and
    target P over the common denominator D: Y.P + D Y0 = 0 (the value
    y.p + y0 is zero), and Y.Q_h + D Y0 >= L D |rest & counts[h]| for
    every input point h (dual feasibility)."""
    y, y0 = certificate
    ints, denominator = integer_row(list(y) + [y0])
    *y, y0 = ints
    shift = hull.scale * y0
    if _dot(y, hull.p) + shift != 0:
        raise LPInternalError("zero-mass certificate has a nonzero value")
    values = [_dot(y, q) + shift for q in hull.ints]
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
    whose weight reaches zero.

    The loop runs on the points Q and the target P as ints over the
    common denominator D, with x held as ints X over the lcm L of the
    corral weights, so that x = X / (L D).  (L P - X).(L Q - X) is
    (L D)^2 times (p - x).(q - x): the same sign, order and ties.  The
    result is verified exactly.
    """
    hull = _hull_input(points, p)
    pts, target = hull.ints, hull.p
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
    x = _combine(weights, [hull.ints[j] for j in hull.column])
    unit = scale * hull.scale
    point = projection.point
    if len(point) != len(x) or any(
        c.numerator * unit != v * c.denominator for c, v in zip(point, x)
    ):
        raise LPInternalError("projection weights fail exact recomposition")
    r = [scale * a - b for a, b in zip(hull.p, x)]
    offset = _dot(r, x)
    if any(scale * _dot(r, q) > offset for q in hull.ints):
        raise LPInternalError("projection fails the obtuse-angle check")
    return projection


def solve_linear(matrix, rhs, num_vars):
    """One exact solution of matrix.x = rhs (free variables pinned to
    zero), or None when the system is inconsistent."""
    aug = []
    dens = []
    for i, coeffs in enumerate(matrix):
        ints, d = integer_row(list(coeffs) + [rhs[i]])
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
    be bounded below and above on the region; the extension LPs satisfy
    that through a normalising row.  The maximum is the negated minimum
    of -costs, so both ends share phase 1.  Each end is returned only
    after _checked_optimum has verified it, on the data as ints over
    their common denominator.
    """
    cols = [_rationals(col) for col in columns]
    b = _rationals(rhs)
    c = _rationals(costs)
    if not cols or len(c) != len(cols) or any(len(col) != len(b) for col in cols):
        raise LPError("bad range description")
    m, n = len(b), len(cols)
    flat, scale = integer_row([v for col in cols for v in col] + b + c)
    int_cols = [flat[j * m : (j + 1) * m] for j in range(n)]
    int_b, int_c = flat[n * m : n * m + m], flat[n * m + m :]
    tab, dens, basis, _flips, total = _phase1([list(row) for row in zip(*cols)], b)
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
        _set_objective(work, wdens, wbasis, c if sign == 1 else [-v for v in c])
        if run_simplex(work, wdens, wbasis) != -1:
            raise LPError("objective unbounded over the region")
        x = _basic_solution(work, wdens, wbasis, total)
        signed = [sign * v for v in int_c]
        y = _basis_duals(int_cols, wbasis, signed)
        ends.append(sign * _checked_optimum(int_cols, int_b, signed, scale, x, y))
    return ends[0], ends[1]


def _basis_duals(cols, basis, costs):
    """Duals y of an optimal basis: y.cols[j] = costs[j] on its columns."""
    duals = solve_linear(
        [cols[j] for j in basis], [costs[j] for j in basis], len(cols[0])
    )
    if duals is None:
        raise LPInternalError("optimal basis has inconsistent duals")
    return duals


def _checked_optimum(cols, b, costs, scale, x, y):
    """costs.x, once x and y are verified to prove it the minimum.

    cols, b and costs are ints over the common denominator scale; x and
    y become ints X and Y over their lcms Lx and Ly.  Checked: X >= 0
    and sum_j X_j cols[j] = Lx b (primal), Y.cols[j] <= Ly costs[j] for
    every j (dual), and Lx Y.b = Ly costs.X (equal values).  The value
    is costs.X / (Lx scale)."""
    x, x_scale = integer_row(x)
    if any(v < 0 for v in x):
        raise LPInternalError("negative primal value")
    if _combine(x, cols) != [x_scale * v for v in b]:
        raise LPInternalError("primal solution fails exact feasibility")
    y, y_scale = integer_row(y)
    if any(_dot(y, col) > y_scale * cost for col, cost in zip(cols, costs)):
        raise LPInternalError("duals fail exact dual feasibility")
    value = _dot(costs, x)
    if x_scale * _dot(y, b) != y_scale * value:
        raise LPInternalError("primal and dual values differ")
    return rat(value, x_scale * scale)
