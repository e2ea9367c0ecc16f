"""Independent reference implementations used only by the tests.

The vertex enumerator solves small LPs by pure rational linear algebra
(no simplex): it intersects every subset of constraint boundaries,
keeps the feasible points, and scans the objective.  It is deliberately
slow and deliberately ignorant of cohkit.lp's internals.

The all-subfamily check is the coherence test cohkit used before
Gilio's iteration: one hull LP for every nonempty subfamily, smallest
first, on constituent points it builds itself from a per-world scan.

The bisection oracle brackets the ends of a coherent-extension interval
the way cohkit did before its exact endpoint LPs: from a coherent seed
value it halves towards 0 and towards 1, deciding each value by the
all-subfamily check on the base plus the target at that value.

The projection oracle finds the point of a hull nearest to p by trying
every subset of the points: the projection onto the subset's affine hull
counts when its coefficients are nonnegative, and the nearest one wins.

The repunit cube builder is how cohkit.events built the atom bitsets
over all 2^k masks before it built them by doubling.

The per-world scans are how cohkit built its worlds, constituents,
member patterns and compound values before it refined world bitsets:
every world assignment is evaluated one by one with eval_formula.  The
compound forms are the signature case analysis cohkit ran over the
constituents before its compounds were held as levels.  The gain and
penalty of a constituent signature are the paper's definitions, which
cohkit evaluated one constituent at a time before its witnesses read
member patterns.

The joint-system oracle is how cohkit decided the conjunction-absorption
characterization of p-entailment before it read the target's coherent
values from ExtensionProblem.coherent_at: Gilio's check on one member
per subset conjunction of the premises and the target, 2^(n+1) - 1 of
them, and per-world compound forms compared at the coherent values.

The rational target program is how cohkit built the endpoint LPs of an
extension round before it read them from its member table's ints: one
column of rationals per decoded constituent pattern, for rational_range.
rational_range and int_rows take rational data to cohkit.lp's int
cores, converted once with integer_row.

The LP route of a Gilio round is how cohkit ran every round before a
subfamily assessed at the top or bottom of each member's levels was
decided in closed form: hull_zero_mass_ints on the subfamily's whole
hull.  p_entails_lp decides p-entailment with every round so.

The Fraction tableau kernel is the simplex cohkit.lp ran before its
integer rows, with the pricing cohkit.lp uses now: every entry a
Fraction, every pivot a Fraction division and subtraction per entry.
It takes the same pivots, so the integer kernel must reproduce its
results, bases and tableaux exactly.
"""

import itertools
from fractions import Fraction

from cohkit.compound import LinForm, _system_coherent
from cohkit.events import conditional_sets, eval_formula
from cohkit.lp import HullOutside, hull_membership, hull_zero_mass_ints, linear_range_ints
from cohkit.rationals import ONE, ZERO, integer_row, rat

LE, EQ, GE = "<=", "=", ">="

# per-member codes of a constituent signature, in constituent order
SIG_TRUE, SIG_FALSE, SIG_VOID = 0, 1, 2


def _solve_square(rows, rhs):
    """Rational Gaussian elimination; None when singular."""
    n = len(rows)
    aug = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [c / factor for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _feasible(point, constraints):
    for coeffs, rel, rhs in constraints:
        lhs = sum(Fraction(c) * x for c, x in zip(coeffs, point))
        rhs = Fraction(rhs)
        if rel == LE and lhs > rhs:
            return False
        if rel == GE and lhs < rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    return True


def enumerate_vertices(num_vars, constraints):
    """All basic feasible points of the constraint system."""
    vertices = []
    for subset in itertools.combinations(range(len(constraints)), num_vars):
        rows = [constraints[i][0] for i in subset]
        rhs = [constraints[i][2] for i in subset]
        point = _solve_square(rows, rhs)
        if point is None:
            continue
        if _feasible(point, constraints):
            vertices.append(tuple(point))
    return vertices


def brute_force_optimum(num_vars, constraints, objective, maximize):
    """Optimal objective value over the vertices, or None when none exist.

    Only valid for programs whose feasible region is bounded (every
    optimum then sits on a vertex).
    """
    vertices = enumerate_vertices(num_vars, constraints)
    if not vertices:
        return None
    values = [
        sum(Fraction(c) * x for c, x in zip(objective, v)) for v in vertices
    ]
    return max(values) if maximize else min(values)


def _pattern_key(pattern):
    return [(1,) if entry is None else (0, -entry) for entry in pattern]


def subfamily_patterns(members, subset):
    """Distinct value patterns of a subfamily of generalized members
    (per-world values, None when void), the all-void one left out, in
    cohkit's order: per member, values largest first and void last."""
    patterns = set()
    for pos in range(len(members[0])):
        pattern = tuple(members[i][pos] for i in subset)
        if any(entry is not None for entry in pattern):
            patterns.add(pattern)
    return sorted(patterns, key=_pattern_key)


def subfamily_points(members, values, subset):
    """Constituent points of a subfamily in subfamily_patterns order:
    voids carry the assessed value."""
    return [
        tuple(values[i] if entry is None else entry for i, entry in zip(subset, pattern))
        for pattern in subfamily_patterns(members, subset)
    ]


# -- per-world scans -------------------------------------------------------


def _assignment(atoms, mask):
    return {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}


def world_filter(atoms, constraints):
    """(worlds, atom bitsets over world positions) of a universe: every
    mask kept whose assignment satisfies each constraint."""
    worlds = [
        mask
        for mask in range(1 << len(atoms))
        if all(eval_formula(f, _assignment(atoms, mask)) == v for f, v in constraints)
    ]
    atom_sets = {}
    for i, a in enumerate(atoms):
        atom_sets[a] = sum(1 << pos for pos, mask in enumerate(worlds) if mask >> i & 1)
    return tuple(worlds), atom_sets


def cube_atom_sets(k):
    """Bitset of each atom over the 2^k masks, as cohkit.events built
    it before doubling: the block of 2^i zeros then 2^i ones times the
    repunit of period 2^(i+1), a division that is quadratic in 2^k."""
    size = 1 << k
    full = (1 << size) - 1
    out = []
    for i in range(k):
        half = 1 << i
        block = ((1 << half) - 1) << half
        out.append(block * (full // ((1 << 2 * half) - 1)))
    return out


def formula_bits(f, universe):
    """Bitset of the world positions where eval_formula holds."""
    return sum(
        1 << pos
        for pos, mask in enumerate(universe.worlds)
        if eval_formula(f, _assignment(universe.atoms, mask))
    )


def expand(levels, width):
    """Per-world values of disjoint (value, bitset) levels, None elsewhere."""
    out = [None] * width
    for value, bits in levels:
        for pos in range(width):
            if bits >> pos & 1:
                assert out[pos] is None
                out[pos] = value
    return tuple(out)


def world_signatures(family, universe):
    """Sorted (signature, world bitset) classes of a family of
    conditional events, the all-void one included, by a per-world scan."""
    sets = [conditional_sets(m, universe) for m in family]
    groups = {}
    for pos in range(len(universe)):
        bit = 1 << pos
        sig = []
        for true, false, _void in sets:
            if true & bit:
                sig.append(SIG_TRUE)
            elif false & bit:
                sig.append(SIG_FALSE)
            else:
                sig.append(SIG_VOID)
        key = tuple(sig)
        groups[key] = groups.get(key, 0) | bit
    return sorted(groups.items())


def constituent_signatures(family, universe):
    """Signatures of the constituents C_1 .. C_m of a family of
    conditional events, in order, the all-void class C_0 left out."""
    void = (SIG_VOID,) * len(family)
    return [sig for sig, _bits in world_signatures(family, universe) if sig != void]


def gain_and_penalty(signature, values, stakes=None):
    """(gain, penalty) of values p on one constituent signature: the sums
    over its effective members of s_i (e_i - p_i) for the stakes s (zero
    if none) and of (e_i - p_i)^2, e_i being 1 where true, 0 where false."""
    gain = penalty = ZERO
    for i, code in enumerate(signature):
        if code != SIG_VOID:
            d = (ONE if code == SIG_TRUE else ZERO) - rat(values[i])
            gain += (ZERO if stakes is None else rat(stakes[i])) * d
            penalty += d * d
    return gain, penalty


def compound_world_values(family, universe, prevs, subset, conjunction):
    """Per-world numeric values of the subset compound, None when all its
    antecedents fail."""
    indices = sorted(subset)
    sets = [conditional_sets(family[i], universe) for i in indices]
    out = []
    for pos in range(len(universe)):
        bit = 1 << pos
        voids = set()
        absorbed = False  # some operand false (conjunction) or true (disjunction)
        for k, (true, false, void) in enumerate(sets):
            if void & bit:
                voids.add(indices[k])
            elif (false if conjunction else true) & bit:
                absorbed = True
        if len(voids) == len(sets):
            out.append(None)
        elif absorbed:
            out.append(ZERO if conjunction else ONE)
        elif voids:
            out.append(prevs[frozenset(voids)])
        else:
            out.append(ONE if conjunction else ZERO)
    return tuple(out)


def compound_world_forms(family, universe, prevs, conjunction):
    """Per-world LinForms of the compound of the whole family, None where
    every antecedent fails, by the signature of each constituent: an
    operand false (conjunction) or true (disjunction) absorbs, none void
    gives the other value, and a partial void set takes its prevision.
    For two members, prevs {0}: x and {1}: y give the binary compound."""
    forms = [None] * len(universe)
    for sig, bits in world_signatures(family, universe):
        voids = frozenset(i for i, code in enumerate(sig) if code == SIG_VOID)
        if len(voids) == len(sig):
            continue
        if conjunction:
            if SIG_FALSE in sig:
                value = LinForm.of(0)
            elif not voids:
                value = LinForm.of(1)
            else:
                value = LinForm.of(prevs[voids])
        else:
            if SIG_TRUE in sig:
                value = LinForm.of(1)
            elif not voids:
                value = LinForm.of(0)
            else:
                value = LinForm.of(prevs[voids])
        for pos in range(len(universe)):
            if bits >> pos & 1:
                forms[pos] = value
    return tuple(forms)


def _subsets_in_order(n):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def all_subfamily_check(members, values, subsets=None):
    """(coherent, first failing subfamily, its separator) from the hull
    test of every nonempty subfamily, smallest first (or of the given
    subfamilies, in their order)."""
    if subsets is None:
        subsets = _subsets_in_order(len(members))
    for subset in subsets:
        point = tuple(values[i] for i in subset)
        outcome = hull_membership(subfamily_points(members, values, subset), point)
        if isinstance(outcome, HullOutside):
            return False, subset, outcome.separator
    return True, None, None


def extension_oracle(members, values, target):
    """coherent_at(t): does the coherent base (members, values) stay
    coherent with the target member at value t, by all_subfamily_check?"""
    if not all_subfamily_check(members, values)[0]:
        raise ValueError("the base is not coherent")
    family = list(members) + [target]
    # the base's own subfamilies pass, so only those with the target count
    with_target = [s for s in _subsets_in_order(len(family)) if len(members) in s]
    verdicts = {}

    def coherent_at(t):
        if t not in verdicts:
            verdicts[t] = all_subfamily_check(family, list(values) + [t], with_target)[0]
        return verdicts[t]

    return coherent_at


def absorption_joint_oracle(family, target, universe):
    """(joint_coherent, answer) of the conjunction-absorption route on the
    joint system.  joint_coherent(t) is Gilio's check on the previsions of
    every subset conjunction of the premises at 1 and the target at t,
    each forced by the Frechet-Hoeffding bounds: 1 for a subset of
    premises only, t for one holding the target.  answer compares the
    per-world forms of the conjunction with and without the target,
    voids worth 1, at each coherent t among 0 and 1, and at 1/2 when both
    are coherent."""
    family = tuple(family)
    n = len(family)
    everything = family + (target,)

    def prevision_system(t):
        return {frozenset(s): (t if n in s else ONE) for s in _subsets_in_order(n + 1)}

    def joint_coherent(t):
        return _system_coherent(everything, universe, prevision_system(t), True)

    one = LinForm.of(ONE)
    small = compound_world_forms(family, universe, prevision_system(ONE), True)

    def maps_equal(t):
        big = compound_world_forms(everything, universe, prevision_system(t), True)
        return all(
            (one if a is None else a) == (one if b is None else b) for a, b in zip(big, small)
        )

    at_zero, at_one = joint_coherent(ZERO), joint_coherent(ONE)
    points = [t for t, ok in ((ZERO, at_zero), (ONE, at_one)) if ok]
    if at_zero and at_one:
        points.append(rat(1, 2))
    return joint_coherent, all(maps_equal(t) for t in points)


def bisection_brackets(coherent_at, seed, tolerance):
    """Brackets of a coherent-extension interval (coherent_at from
    extension_oracle), searched in [0, 1] from the coherent value seed.
    Returns ((outer, inner), (inner, outer)) for the lower and upper end:
    inner values are coherent, outer ones are not (or equal inner at 0
    and 1), and each bracket is narrower than tolerance.
    """
    if not coherent_at(seed):
        raise ValueError("the seed value is not coherent")
    lower = _bisect_edge(coherent_at, Fraction(0), seed, tolerance)
    upper = _bisect_edge(coherent_at, Fraction(1), seed, tolerance)
    return lower, upper[::-1]


def _bisect_edge(coherent_at, end, good, tolerance):
    """(outer, inner) around the interval's end between good (coherent)
    and end."""
    if coherent_at(end):
        return end, end
    bad = end
    while abs(good - bad) >= tolerance:
        mid = (good + bad) / 2
        if coherent_at(mid):
            good = mid
        else:
            bad = mid
    return bad, good


def int_rows(rows):
    """Rows of rationals (or ints) as int rows over their one common
    denominator, by integer_row: (int rows, denominator)."""
    flat, scale = integer_row([v for row in rows for v in row])
    out, start = [], 0
    for row in rows:
        out.append(flat[start : start + len(row)])
        start += len(row)
    return out, scale


def rational_range(columns, rhs, costs):
    """Range of costs.x over x >= 0 with sum_j x_j columns[j] = rhs, the
    data rationals or ints: linear_range_ints on their int_rows."""
    (*cols, b, c), scale = int_rows([*columns, rhs, costs])
    return linear_range_ints(cols, b, c, scale)


def target_program(patterns, values):
    """rational_range arguments of one extension round from the decoded
    patterns of the base subset plus the target (None where void): a
    column per pattern (the bet e_i - p_i of each effective base member,
    then 1 when the target is non-void), right-hand side (0, ..., 0, 1),
    and the target's value as cost (0 where it is void)."""
    columns = []
    costs = []
    for pattern in patterns:
        *base, value = pattern
        bets = tuple(ZERO if e is None else e - p for e, p in zip(base, values))
        columns.append(bets + (ZERO if value is None else ONE,))
        costs.append(ZERO if value is None else value)
    return columns, (ZERO,) * len(values) + (ONE,), costs


# -- the LP route of every Gilio round ------------------------------------------


def lp_round(table, subset, ranks):
    """One round of Gilio's check on rank patterns of a MemberTable
    subfamily by hull_zero_mass_ints on its whole hull, as
    MemberTable.subfamily_hull ran every round before the subfamilies
    assessed at the top or bottom of their levels had a closed form."""
    voids = [len(table.members[i]) for i in subset]
    effective = [[k for k, (r, v) in enumerate(zip(pattern, voids)) if r != v] for pattern in ranks]
    return hull_zero_mass_ints(table.int_hull(subset, ranks), effective)


def lp_coherent(table):
    """Gilio's check on every pattern of a MemberTable, each round by
    lp_round."""
    subset = tuple(range(len(table.members)))
    while subset:
        outcome = lp_round(table, subset, table.rank_patterns(subset))
        if isinstance(outcome, HullOutside):
            return False
        subset = tuple(subset[k] for k in outcome.zero_mass)
    return True


def p_entails_lp(problem):
    """cohkit.compound.p_entails with each coherence check by
    lp_coherent: the premises at 1 with the target at 1 coherent, and
    with the target at 0 not."""
    table = problem.table

    def coherent_at(t):
        return lp_coherent(table.revalued(table.values[:-1] + [t]))

    return coherent_at(ONE) and not coherent_at(ZERO)


def check_round_against_lp(table, subset, ranks, outcome):
    """Holds a round outcome of table.subfamily_hull to lp_round: the
    same status and zero-mass set.  The witnesses, which may differ, are
    checked on the decoded rational points: weights >= 0 summing to 1
    that recompose the values; a certificate (y, y0) with y.p + y0 = 0
    and y.q + y0 at least the number of zero-mass members counting q;
    a separator s of largest |s_k| 1 with s.(q - p) > 0 everywhere, its
    least value the margin."""
    expected = lp_round(table, subset, ranks)
    assert outcome.status == expected.status
    lookup = dict(zip(table.rank_patterns(subset), table.patterns(subset)))
    patterns = [lookup[pattern] for pattern in ranks]
    points = table.hull_rows(subset, patterns)
    p = [table.values[i] for i in subset]
    if isinstance(outcome, HullOutside):
        s = outcome.separator
        assert max(abs(v) for v in s) == 1
        gains = [_dot(s, q) - _dot(s, p) for q in points]
        assert min(gains) > 0 and min(gains) == outcome.margin
        return
    assert outcome.zero_mass == expected.zero_mass
    weights = outcome.weights
    assert len(weights) == len(points) and all(w >= 0 for w in weights)
    assert sum(weights, ZERO) == 1
    for k in range(len(p)):
        assert sum((w * q[k] for w, q in zip(weights, points)), ZERO) == p[k]
    if not outcome.zero_mass:
        assert outcome.certificate is None
        return
    y, y0 = outcome.certificate
    assert _dot(y, p) + y0 == 0
    for pattern, q in zip(patterns, points):
        counted = sum(1 for k in outcome.zero_mass if pattern[k] is not None)
        assert _dot(y, q) + y0 >= counted


def _dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def brute_force_projection(points, p):
    """Nearest point to p of the convex hull of the points, by subsets."""
    best = None
    best_distance = None
    for size in range(1, len(points) + 1):
        for subset in itertools.combinations(points, size):
            base = subset[0]
            directions = [[Fraction(a) - b for a, b in zip(q, base)] for q in subset[1:]]
            residual = [Fraction(a) - b for a, b in zip(p, base)]
            gram = [[_dot(d, e) for e in directions] for d in directions]
            alphas = _solve_square(gram, [_dot(d, residual) for d in directions])
            if alphas is None or sum(alphas) > 1 or any(a < 0 for a in alphas):
                continue
            x = [Fraction(c) + sum(a * d[i] for a, d in zip(alphas, directions))
                 for i, c in enumerate(base)]
            distance = sum((Fraction(a) - b) ** 2 for a, b in zip(p, x))
            if best_distance is None or distance < best_distance:
                best, best_distance = tuple(x), distance
    return best


# -- the Fraction tableau kernel ------------------------------------------


def pivot(rows, r, c):
    """Scale row r to a unit entry in column c and clear column c from
    every other row (the last row included)."""
    pivot_row = rows[r]
    factor = pivot_row[c]
    if factor != 1:
        pivot_row[:] = [v / factor for v in pivot_row]
    for i, row in enumerate(rows):
        if i != r:
            coeff = row[c]
            if coeff != 0:
                row[:] = [a - coeff * b if b else a for a, b in zip(row, pivot_row)]


def run_simplex(tableau, basis, choices=None):
    """The simplex on a tableau of Fractions (the reduced-cost row last,
    the right-hand side column last); basis is updated in place.  The
    entering column has the most negative reduced cost (Dantzig's rule,
    the lowest index on ties), or right after a degenerate pivot the
    first negative one (Bland's rule); the leaving row the least ratio,
    the least basic index on ties.  choices, a Counter if given, counts
    the entering choices under "dantzig" and "bland".  Returns -1 at
    optimality, else the entering column proving unboundedness."""
    m = len(tableau) - 1
    rhs = len(tableau[0]) - 1
    obj = tableau[m]
    rule = "dantzig"
    while True:
        if rule == "bland":
            enter = next((j for j in range(rhs) if obj[j] < 0), -1)
        else:
            least = min(range(rhs), key=lambda j: (obj[j], j), default=-1)
            enter = least if least >= 0 and obj[least] < 0 else -1
        if enter < 0:
            return -1
        if choices is not None:
            choices[rule] += 1
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][rhs] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return enter
        rule = "bland" if best == 0 else "dantzig"
        pivot(tableau, leave, enter)
        basis[leave] = enter


def phase1(rows, rhs_col):
    """Phase 1 on the equalities rows.x = rhs_col with x >= 0: rows
    sign-fixed to nonnegative right-hand sides, one artificial column
    each.  Returns (tableau, basis, flips, n) after the run."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    flips = []
    tab = []
    for i in range(m):
        coeffs = [Fraction(c) for c in rows[i]]
        b = Fraction(rhs_col[i])
        flips.append(b < 0)
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
        row = coeffs + [Fraction(0)] * m + [b]
        row[n + i] = Fraction(1)
        tab.append(row)
    obj = [Fraction(0)] * (n + m + 1)
    for row in tab:
        obj = [o - v for o, v in zip(obj, row)]
    for i in range(m):
        obj[n + i] = Fraction(0)
    tab.append(obj)
    basis = [n + i for i in range(m)]
    if run_simplex(tab, basis) != -1:
        raise AssertionError("phase 1 cannot be unbounded")
    return tab, basis, flips, n


def drive_out_artificials(tab, basis, n):
    """Pivot basic artificials out; drop rows that are fully redundant."""
    drop = []
    for i in range(len(tab) - 1):
        if basis[i] < n:
            continue
        pivot_col = next((j for j in range(n) if tab[i][j] != 0), -1)
        if pivot_col < 0:
            drop.append(i)
            continue
        pivot(tab, i, pivot_col)
        basis[i] = pivot_col
    for i in reversed(drop):
        del tab[i]
        del basis[i]


def set_objective(tab, basis, costs):
    """Install the reduced-cost row of min costs.x on a feasible basis."""
    width = len(tab[0])
    obj = [Fraction(0)] * width
    obj[: len(costs)] = [Fraction(c) for c in costs]
    for i, col in enumerate(basis):
        coeff = obj[col]
        if coeff != 0:
            obj = [a - coeff * b for a, b in zip(obj, tab[i])]
    tab[-1] = obj


def solve_linear(matrix, rhs, num_vars):
    """One solution of matrix.x = rhs (free variables pinned to zero) by
    Gauss-Jordan elimination, or None when the system is inconsistent."""
    aug = [[Fraction(c) for c in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivots = []
    row = 0
    for col in range(num_vars):
        sel = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pivot(aug, row, col)
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    if any(aug[r][num_vars] != 0 for r in range(row, len(aug))):
        return None
    solution = [Fraction(0)] * num_vars
    for r, col in enumerate(pivots):
        solution[col] = aug[r][num_vars]
    return solution
