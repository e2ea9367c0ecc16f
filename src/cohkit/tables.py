"""Extension-interval and property tables over a value grid.

The closed-form intervals are hard-wired reference formulas; the sweep
recomputes every interval through the LP machinery and compares.  The
property table combines the structural checkers for the logical rows
with a grid counterexample search for the prevision rows; every reported
counterexample carries only hull-confirmed coherent values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .coherence import (
    Assessment,
    ExtensionBounds,
    ExtensionProblem,
    MemberTable,
    check_coherence,
    world_levels,
)
from .compound import (
    frechet_bounds,
    frechet_bounds_or,
    compound_identity_check,
    gs_and,
    gs_or,
)
from .events import Atom
from .rationals import ONE, ZERO, rat
from .trivalent import (
    ConditionalEvent,
    KINDS,
    check_logical_property,
    free_universe,
    gn_universe,
    trivalent_and,
    trivalent_or,
)

LOGICS = KINDS + ("gs",)
CONNECTIVES = ("and", "or")
OPERATORS = tuple(
    (connective, logic) for connective in CONNECTIVES for logic in LOGICS
)

GRID_STEPS = (rat(1, 4), rat(1, 10), rat(1, 20))

_A, _H, _B, _K = Atom("A"), Atom("H"), Atom("B"), Atom("K")


def closed_form_interval(connective: str, logic: str, x, y):
    """Reference interval of coherent extension values at (x, y)."""
    x, y = rat(x), rat(y)
    if connective == "and":
        if logic in ("K", "L"):
            return ZERO, min(x, y)
        if logic == "B":
            return ZERO, ONE
        if logic == "S":
            lo = max(x + y - 1, ZERO)
            hi = ONE if x == 1 and y == 1 else (x + y - 2 * x * y) / (1 - x * y)
            return lo, hi
        if logic == "gs":
            return frechet_bounds([x, y])
    elif connective == "or":
        if logic in ("K", "L"):
            return max(x, y), ONE
        if logic == "B":
            return ZERO, ONE
        if logic == "S":
            lo = ZERO if x == 0 and y == 0 else (x * y) / (x + y - x * y)
            return lo, min(x + y, ONE)
        if logic == "gs":
            return frechet_bounds_or([x, y])
    raise ValueError(f"unknown operator {connective}_{logic}")


def operator_name(connective: str, logic: str) -> str:
    return f"{connective}_{logic}"


def build_target(connective: str, logic: str, ce1, ce2, x, y, universe):
    """The compound object whose coherent values are being bounded."""
    if logic == "gs":
        builder = gs_and if connective == "and" else gs_or
        return builder(ce1, ce2, rat(x), rat(y), universe, check=False)
    builder = trivalent_and if connective == "and" else trivalent_or
    return builder(logic, ce1, ce2, universe)


def grid_values(step):
    step = rat(step)
    if step <= 0 or step > 1 or (1 / step).denominator != 1:
        raise ValueError("grid step must divide 1")
    count = int(1 / step)
    return [step * k for k in range(count + 1)]


@dataclass(frozen=True)
class IntervalCell:
    x: object
    y: object
    computed: ExtensionBounds
    closed: tuple

    def gaps(self):
        return (
            abs(self.computed.lower - self.closed[0]),
            abs(self.computed.upper - self.closed[1]),
        )

    def exact_match(self) -> bool:
        return (
            self.computed.lower == self.closed[0]
            and self.computed.upper == self.closed[1]
        )


@dataclass
class IntervalRow:
    connective: str
    logic: str
    cells: list = field(default_factory=list)
    endpoints_confirmed: bool = True

    def max_gap(self):
        worst = ZERO
        for cell in self.cells:
            for g in cell.gaps():
                if g > worst:
                    worst = g
        return worst

    def cell_at(self, x, y) -> IntervalCell:
        for cell in self.cells:
            if cell.x == x and cell.y == y:
                return cell
        raise KeyError((x, y))


def _interval_problem(x, y, connective, logic, universe, verdicts):
    """The extension problem of one cell.  verdicts: a dict of the base
    verdicts by (x, y) over this universe, filled in as cells need them,
    so that a base is checked once however many operators use it."""
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    if (x, y) not in verdicts:
        verdicts[(x, y)] = check_coherence(Assessment.build([ah, bk], [x, y]), universe)
    target = build_target(connective, logic, ah, bk, x, y, universe)
    return ExtensionProblem(verdicts[(x, y)], target)


def compute_intervals(step) -> list:
    """Sweep of every operator over the grid, with closed-form
    comparison and exact coherence checks of the closed-form endpoints.
    The rows share one universe and one dict of base verdicts (see
    _interval_problem)."""
    u = free_universe()
    verdicts = {}
    values = grid_values(step)
    rows = []
    for connective, logic in OPERATORS:
        row = IntervalRow(connective, logic)
        for x in values:
            for y in values:
                problem = _interval_problem(x, y, connective, logic, u, verdicts)
                bounds = problem.bounds()
                closed = closed_form_interval(connective, logic, x, y)
                if not (problem.coherent_at(closed[0]) and problem.coherent_at(closed[1])):
                    row.endpoints_confirmed = False
                row.cells.append(IntervalCell(x, y, bounds, closed))
        rows.append(row)
    return rows


# -- the property table -------------------------------------------------------

PROPERTY_ROWS = ("P1", "P2a", "P2b", "P2c", "P3", "P4", "P5", "P6and", "P6or")

_GS_IDENTITY = {"P1": "p1", "P2a": "p2a", "P2b": "p2b", "P2c": "p2c", "P3": "p3"}


@dataclass(frozen=True)
class StarCell:
    starred: bool
    counterexample: Optional[dict] = None


def _probe_pairs(step):
    values = list(grid_values(step))
    for extra in (rat(1, 3), rat(2, 3)):
        if extra not in values:
            values.append(extra)
    return [(x, y) for x in values for y in values]


def _logical_star(prop: str, logic: str) -> StarCell:
    if logic == "gs":
        return StarCell(compound_identity_check(_GS_IDENTITY[prop]))
    universe = gn_universe() if prop == "P1" else free_universe()
    outcome = check_logical_property(prop, logic, universe)
    counterexample = None
    if not outcome.holds:
        counterexample = {"witness-world": outcome.witness}
        if prop == "P1":
            counterexample["forward"] = outcome.forward
            counterexample["converse"] = outcome.converse
    return StarCell(outcome.holds, counterexample)


def _p4_star(logic: str, interval_rows) -> StarCell:
    """Conjunction prevision never above an operand, disjunction never
    below; counterexamples are hull-confirmed endpoint values."""
    conj = next(r for r in interval_rows if (r.connective, r.logic) == ("and", logic))
    disj = next(r for r in interval_rows if (r.connective, r.logic) == ("or", logic))
    for cell in conj.cells:
        bound = min(cell.x, cell.y)
        if cell.computed.upper > bound:
            return StarCell(
                False,
                {
                    "x": cell.x,
                    "y": cell.y,
                    "coherent-conjunction-value": cell.computed.upper,
                    "exceeds": bound,
                },
            )
    for cell in disj.cells:
        bound = max(cell.x, cell.y)
        if cell.computed.lower < bound:
            return StarCell(
                False,
                {
                    "x": cell.x,
                    "y": cell.y,
                    "coherent-disjunction-value": cell.computed.lower,
                    "below": bound,
                },
            )
    return StarCell(True)


def _p5_gs_pointwise(x, y, universe) -> bool:
    """Every constituent satisfies conj + disj = first + second, which
    pins the disjunction prevision to x + y - z for every coherent z."""
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    conj = gs_and(ah, bk, x, y, universe, check=False)
    disj = gs_or(ah, bk, x, y, universe, check=False)
    levels = [
        world_levels(ah, universe),
        world_levels(bk, universe),
        conj.numeric_levels(universe),
        disj.numeric_levels(universe),
    ]
    table = MemberTable(levels, [x, y, ZERO, ZERO], len(universe))
    for pattern in table.patterns((0, 1, 2, 3)):
        row = [
            entry if entry is not None else (x, y)[k]
            for k, entry in enumerate(pattern[:2])
        ]
        if pattern[2] is None or pattern[3] is None:
            return False  # a compound void outside the all-void case
        if pattern[2] + pattern[3] != row[0] + row[1]:
            return False
    return True


def _p5_star(logic: str, interval_rows, step) -> StarCell:
    """Search for a coherent (x, y, z, w) with w != x + y - z."""
    u = free_universe()
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    conj_row = next(
        r for r in interval_rows if (r.connective, r.logic) == ("and", logic)
    )
    if logic == "gs":
        for x, y in _probe_pairs(step):
            if not _p5_gs_pointwise(x, y, u):
                return StarCell(False, {"x": x, "y": y})
        return StarCell(True)
    for x, y in _probe_pairs(step):
        try:
            cell = conj_row.cell_at(x, y)
            z_candidates = {cell.computed.lower, cell.computed.upper}
        except KeyError:
            probe = _interval_problem(x, y, "and", logic, u, {})
            bounds = probe.bounds()
            z_candidates = {bounds.lower, bounds.upper}
        conj_ce = trivalent_and(logic, ah, bk, u)
        disj_ce = trivalent_or(logic, ah, bk, u)
        for z in z_candidates:
            base = Assessment.build([ah, bk, conj_ce], [x, y, z])
            problem = ExtensionProblem(check_coherence(base, u), disj_ce)
            w_bounds = problem.bounds()
            for w in (w_bounds.lower, w_bounds.upper):
                if w != x + y - z:
                    return StarCell(
                        False,
                        {"x": x, "y": y, "z": z, "coherent-w": w, "sum-rule-w": x + y - z},
                    )
    return StarCell(True)


def _p6_half_star(connective: str, logic: str, interval_rows) -> StarCell:
    """One direction of the sharp-bounds row: the computed interval must
    coincide with the product-free bounds on every probe."""
    box = frechet_bounds if connective == "and" else frechet_bounds_or
    row = next(
        r for r in interval_rows if (r.connective, r.logic) == (connective, logic)
    )
    for cell in row.cells:
        lo, hi = box([cell.x, cell.y])
        if cell.computed.lower < lo or cell.computed.upper > hi:
            witness = (
                cell.computed.lower if cell.computed.lower < lo else cell.computed.upper
            )
            return StarCell(
                False,
                {
                    "x": cell.x,
                    "y": cell.y,
                    "coherent-value": witness,
                    "sharp-bounds": (lo, hi),
                },
            )
        if cell.computed.lower != lo or cell.computed.upper != hi:
            return StarCell(
                False,
                {
                    "x": cell.x,
                    "y": cell.y,
                    "interval": (cell.computed.lower, cell.computed.upper),
                    "sharp-bounds": (lo, hi),
                },
            )
    return StarCell(True)


def compute_star_table(step, interval_rows) -> dict:
    """Property-satisfaction matrix: {(property, logic): StarCell}, the
    interval properties read from compute_intervals(step)."""
    table = {}
    for logic in LOGICS:
        for prop in ("P1", "P2a", "P2b", "P2c", "P3"):
            table[(prop, logic)] = _logical_star(prop, logic)
        table[("P4", logic)] = _p4_star(logic, interval_rows)
        table[("P5", logic)] = _p5_star(logic, interval_rows, step)
        table[("P6and", logic)] = _p6_half_star("and", logic, interval_rows)
        table[("P6or", logic)] = _p6_half_star("or", logic, interval_rows)
    return table
