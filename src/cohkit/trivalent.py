"""Conditional events as three-valued objects and their connectives.

A conditional event E|H is true when E&H holds, false when ~E&H holds and
void when ~H holds.  Four conjunction/disjunction pairs are provided,
keyed "K", "L", "B", "S"; each disjunction is derived from its
conjunction by De Morgan through negation, which keeps the pairs dual by
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .events import (
    And,
    Atom,
    EventError,
    Formula,
    Not,
    Or,
    Universe,
    conditional_sets,
    eval_formula,
)


class TriValue(Enum):
    TRUE = "true"
    FALSE = "false"
    VOID = "void"


KINDS = ("K", "L", "B", "S")


@dataclass(frozen=True)
class ConditionalEvent:
    """Consequent and antecedent formulas; written consequent|antecedent."""

    consequent: Formula
    antecedent: Formula

    def __str__(self) -> str:
        return f"({self.consequent}) | ({self.antecedent})"


def eval_conditional(ce: ConditionalEvent, world: Mapping[str, bool]) -> TriValue:
    if not eval_formula(ce.antecedent, world):
        return TriValue.VOID
    return TriValue.TRUE if eval_formula(ce.consequent, world) else TriValue.FALSE


def negate(ce: ConditionalEvent) -> ConditionalEvent:
    return ConditionalEvent(Not(ce.consequent), ce.antecedent)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown connective kind {kind!r}; expected one of {KINDS}")


def trivalent_and(
    kind: str,
    ce1: ConditionalEvent,
    ce2: ConditionalEvent,
    universe: Optional[Universe] = None,
) -> ConditionalEvent:
    """Conjunction of two conditional events in the chosen three-valued logic.

    With a universe given, both operand antecedents and the result
    antecedent are required to be satisfiable (a degenerate result raises
    EventError).
    """
    _check_kind(kind)
    a, h = ce1.consequent, ce1.antecedent
    b, k = ce2.consequent, ce2.antecedent
    both = And(And(a, h), And(b, k))
    fail1 = And(Not(a), h)
    fail2 = And(Not(b), k)
    if kind == "K":
        result = ConditionalEvent(both, Or(both, Or(fail1, fail2)))
    elif kind == "L":
        neither = And(Not(h), Not(k))
        result = ConditionalEvent(both, Or(Or(both, neither), Or(fail1, fail2)))
    elif kind == "B":
        result = ConditionalEvent(And(a, b), And(h, k))
    else:  # S, the quasi conjunction
        result = ConditionalEvent(And(Or(a, Not(h)), Or(b, Not(k))), Or(h, k))
    if universe is not None:
        conditional_sets(ce1, universe)
        conditional_sets(ce2, universe)
        if not universe.satisfiable(result.antecedent):
            raise EventError(f"degenerate conjunction: {result.antecedent} is impossible")
    return result


def trivalent_or(
    kind: str,
    ce1: ConditionalEvent,
    ce2: ConditionalEvent,
    universe: Optional[Universe] = None,
) -> ConditionalEvent:
    """De Morgan dual of trivalent_and."""
    _check_kind(kind)
    result = negate(trivalent_and(kind, negate(ce1), negate(ce2)))
    if universe is not None:
        conditional_sets(ce1, universe)
        conditional_sets(ce2, universe)
        if not universe.satisfiable(result.antecedent):
            raise EventError(f"degenerate disjunction: {result.antecedent} is impossible")
    return result


def ce_equal(ce1: ConditionalEvent, ce2: ConditionalEvent, universe: Universe) -> bool:
    """Same three-valued value on every world of the universe."""
    t1, f1, _ = conditional_sets(ce1, universe)
    t2, f2, _ = conditional_sets(ce2, universe)
    return t1 == t2 and f1 == f2


def ce_diff_witness(
    ce1: ConditionalEvent, ce2: ConditionalEvent, universe: Universe
) -> Optional[dict]:
    """Assignment of some world where the two conditionals differ."""
    t1, f1, v1 = conditional_sets(ce1, universe)
    t2, f2, v2 = conditional_sets(ce2, universe)
    diff = (t1 ^ t2) | (f1 ^ f2) | (v1 ^ v2)
    if diff == 0:
        return None
    pos = (diff & -diff).bit_length() - 1
    return universe.assignment(pos)


def gn_inclusion(ce1: ConditionalEvent, ce2: ConditionalEvent, universe: Universe) -> bool:
    """Goodman-Nguyen inclusion: ce1 true forces ce2 true, ce2 false forces ce1 false."""
    t1, f1, _ = conditional_sets(ce1, universe)
    t2, f2, _ = conditional_sets(ce2, universe)
    return t1 & ~t2 == 0 and f2 & ~f1 == 0


PROPERTIES = ("P1", "P2a", "P2b", "P2c", "P3")

# the nine truth-pattern regions of a pair (A|H, B|K), lexicographic
# with true < false < void per coordinate
_A, _H, _B, _K = Atom("A"), Atom("H"), Atom("B"), Atom("K")
_PAIR_REGIONS = (
    _A & _H & _B & _K,
    _A & _H & ~_B & _K,
    _A & _H & ~_K,
    ~_A & _H & _B & _K,
    ~_A & _H & ~_B & _K,
    ~_A & _H & ~_K,
    ~_H & _B & _K,
    ~_H & ~_B & _K,
    ~_H & ~_K,
)


def free_universe() -> Universe:
    """Four logically independent atoms A, H, B, K."""
    return Universe(("A", "H", "B", "K"))


def gn_universe() -> Universe:
    """A, H, B, K constrained so that A|H is Goodman-Nguyen included in B|K."""
    return Universe(
        ("A", "H", "B", "K"),
        [
            (_A & _H & ~_B & _K, False),
            (_A & _H & ~_K, False),
            (~_H & ~_B & _K, False),
        ],
    )


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of a logical-property check.

    For P1 the two directions of the biconditional are reported
    separately: forward is the conjunction collapsing to the smaller
    operand under inclusion, converse is inclusion being forced by the
    collapse; holds requires both.
    """

    holds: bool
    witness: Optional[dict] = None
    forward: Optional[bool] = None
    converse: Optional[bool] = None


def _pair_region_universes():
    """Universes for every emptiness pattern of the nine pair regions.

    Yields (selected-region-index-set, universe) for patterns keeping H
    and K possible; patterns with no surviving world are skipped.
    """
    for selector in itertools.product((False, True), repeat=9):
        selected = frozenset(i for i, keep in enumerate(selector) if keep)
        if not selected:
            continue
        constraints = [
            (region, False)
            for i, region in enumerate(_PAIR_REGIONS)
            if i not in selected
        ]
        try:
            u = Universe(("A", "H", "B", "K"), constraints)
        except EventError:
            continue
        if not (u.satisfiable(_H) and u.satisfiable(_K)):
            continue
        yield selected, u


def _p1_sweep(kind: str) -> tuple:
    """Check both directions of the inclusion/collapse biconditional.

    Sweeps all emptiness patterns of the pair regions; each pattern is a
    universe on which both sides are decidable exactly.
    """
    ce1 = ConditionalEvent(_A, _H)
    ce2 = ConditionalEvent(_B, _K)
    forward = True
    converse = True
    for _selected, u in _pair_region_universes():
        try:
            conj = trivalent_and(kind, ce1, ce2, u)
        except EventError:
            continue
        gn = gn_inclusion(ce1, ce2, u)
        eq = ce_equal(conj, ce1, u)
        if gn and not eq:
            forward = False
        if eq and not gn:
            converse = False
        if not forward and not converse:
            break
    return forward, converse


def check_logical_property(prop: str, kind: str, universe: Universe) -> PropertyCheck:
    """Check one of the P1, P2a, P2b, P2c, P3 schemas for a connective pair.

    The universe must declare atoms A, H, B, K.  For P1 pass a universe
    satisfying the Goodman-Nguyen constraints (gn_universe); for the
    others pass the free one.  On failure the witness is a world where
    the two sides differ.
    """
    _check_kind(kind)
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    ah = ConditionalEvent(_A, _H)
    bk = ConditionalEvent(_B, _K)
    nbk = negate(bk)

    if prop == "P1":
        conj = trivalent_and(kind, ah, bk, universe)
        if not gn_inclusion(ah, bk, universe):
            raise EventError("P1 expects a universe where A|H is GN-included in B|K")
        witness = ce_diff_witness(conj, ah, universe)
        forward = witness is None
        sweep_forward, converse = _p1_sweep(kind)
        if forward and not sweep_forward:
            # the given universe missed a failing pattern; surface it anyway
            forward = False
        return PropertyCheck(forward and converse, witness, forward, converse)

    if prop == "P2a":
        lhs = ah
        rhs = trivalent_or(
            kind,
            trivalent_and(kind, ah, bk, universe),
            trivalent_and(kind, ah, nbk, universe),
            universe,
        )
    elif prop == "P2b":
        lhs = ah
        rhs = trivalent_and(kind, ah, ConditionalEvent(_K, _K), universe)
    elif prop == "P2c":
        lhs = trivalent_and(kind, ah, trivalent_or(kind, bk, nbk, universe), universe)
        rhs = trivalent_or(
            kind,
            trivalent_and(kind, ah, bk, universe),
            trivalent_and(kind, ah, nbk, universe),
            universe,
        )
    else:  # P3, both decompositions of the disjunction
        disj = trivalent_or(kind, ah, bk, universe)
        first = trivalent_or(
            kind, ah, trivalent_and(kind, negate(ah), bk, universe), universe
        )
        witness = ce_diff_witness(disj, first, universe)
        if witness is not None:
            return PropertyCheck(False, witness)
        second = trivalent_or(
            kind, bk, trivalent_and(kind, ah, nbk, universe), universe
        )
        witness = ce_diff_witness(disj, second, universe)
        return PropertyCheck(witness is None, witness)

    witness = ce_diff_witness(lhs, rhs, universe)
    return PropertyCheck(witness is None, witness)
