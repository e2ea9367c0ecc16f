import pytest

from cohkit.events import Atom, BOTTOM, EventError, TOP, Universe, set_bits
from cohkit.trivalent import (
    ConditionalEvent,
    KINDS,
    TriValue,
    ce_equal,
    check_logical_property,
    eval_conditional,
    free_universe,
    gn_inclusion,
    gn_universe,
    negate,
    trivalent_and,
    trivalent_or,
)

from oracles import SIG_FALSE, SIG_TRUE, SIG_VOID, constituent_signatures, world_signatures

A, B, H, K = Atom("A"), Atom("B"), Atom("H"), Atom("K")
AH = ConditionalEvent(A, H)
BK = ConditionalEvent(B, K)


def test_signature_values_bridge():
    values = {SIG_TRUE: TriValue.TRUE, SIG_FALSE: TriValue.FALSE, SIG_VOID: TriValue.VOID}
    u = Universe(["A", "H", "B", "K"])
    readings = [
        tuple(values[code] for code in sig) for sig in constituent_signatures([AH, BK], u)
    ]
    assert readings[0] == (TriValue.TRUE, TriValue.TRUE)
    assert readings[-1] == (TriValue.VOID, TriValue.FALSE)
    # each reading is eval_conditional on the worlds of its constituent
    for sig, bits in world_signatures([AH, BK], u):
        for world in (u.assignment(pos) for pos in set_bits(bits)):
            assert tuple(values[code] for code in sig) == (
                eval_conditional(AH, world), eval_conditional(BK, world)
            )


def test_eval_conditional():
    assert eval_conditional(AH, {"A": True, "H": True}) is TriValue.TRUE
    assert eval_conditional(AH, {"A": False, "H": True}) is TriValue.FALSE
    assert eval_conditional(AH, {"A": True, "H": False}) is TriValue.VOID
    # A|A is never false
    aa = ConditionalEvent(A, A)
    assert eval_conditional(aa, {"A": True}) is TriValue.TRUE
    assert eval_conditional(aa, {"A": False}) is TriValue.VOID


def test_negate():
    u = free_universe()
    assert negate(AH).consequent == ~A
    assert ce_equal(negate(negate(AH)), AH, u)
    top_h = ConditionalEvent(TOP, H)
    assert ce_equal(negate(top_h), ConditionalEvent(BOTTOM, H), u)


def test_conjunction_shapes():
    u = free_universe()
    conj_b = trivalent_and("B", AH, BK, u)
    assert ce_equal(conj_b, ConditionalEvent(A & B, H & K), u)
    conj_s = trivalent_and("S", AH, BK, u)
    assert ce_equal(
        conj_s, ConditionalEvent((A | ~H) & (B | ~K), H | K), u
    )
    # absorbing H|H leaves A|H unchanged under the first conjunction
    assert ce_equal(trivalent_and("K", AH, ConditionalEvent(H, H), u), AH, u)


def test_disjunction_shapes():
    u = free_universe()
    disj_s = trivalent_or("S", AH, BK, u)
    assert ce_equal(disj_s, ConditionalEvent((A & H) | (B & K), H | K), u)
    disj_b = trivalent_or("B", AH, BK, u)
    assert ce_equal(disj_b, ConditionalEvent(A | B, H & K), u)
    # the L disjunction is true when both operands are void, as the
    # De Morgan dual construction requires
    disj_l = trivalent_or("L", AH, BK, u)
    expected = ConditionalEvent(
        (A & H) | (B & K) | (~H & ~K),
        (~A & H & ~B & K) | (A & H) | (B & K) | (~H & ~K),
    )
    assert ce_equal(disj_l, expected, u)
    assert eval_conditional(
        disj_l, {"A": False, "H": False, "B": False, "K": False}
    ) is TriValue.TRUE


def test_de_morgan_for_every_kind():
    u = free_universe()
    for kind in KINDS:
        lhs = trivalent_or(kind, AH, BK, u)
        rhs = negate(trivalent_and(kind, negate(AH), negate(BK), u))
        assert ce_equal(lhs, rhs, u), kind


def test_commutative_and_associative():
    u = Universe(["A", "H", "B", "K", "C", "M"])
    cm = ConditionalEvent(Atom("C"), Atom("M"))
    for kind in KINDS:
        assert ce_equal(
            trivalent_and(kind, AH, BK, u), trivalent_and(kind, BK, AH, u), u
        )
        assert ce_equal(
            trivalent_or(kind, AH, BK, u), trivalent_or(kind, BK, AH, u), u
        )
        left = trivalent_and(kind, trivalent_and(kind, AH, BK, u), cm, u)
        right = trivalent_and(kind, AH, trivalent_and(kind, BK, cm, u), u)
        assert ce_equal(left, right, u), kind


def test_degenerate_conjunction_rejected():
    u = Universe(["A", "H", "B", "K"], [(H | K, False)])
    with pytest.raises(EventError):
        trivalent_and("S", AH, BK, u)


def test_conjoining_with_the_enclosing_antecedent():
    # (E|H&K) conjoined with (H|K): the first and quasi conjunctions
    # collapse to EH|K, the second yields the unconditional event EHK,
    # the third stays conditioned on H&K
    E = Atom("E")
    u = Universe(["E", "H", "K"])
    inner = ConditionalEvent(E, H & K)
    outer = ConditionalEvent(H, K)
    combined = ConditionalEvent(E & H, K)
    assert ce_equal(trivalent_and("K", inner, outer, u), combined, u)
    assert ce_equal(trivalent_and("S", inner, outer, u), combined, u)
    lukasiewicz = trivalent_and("L", inner, outer, u)
    assert ce_equal(lukasiewicz, ConditionalEvent(E & H & K, TOP), u)
    assert not ce_equal(lukasiewicz, combined, u)
    bochvar = trivalent_and("B", inner, outer, u)
    assert ce_equal(bochvar, ConditionalEvent(E, H & K), u)
    assert not ce_equal(bochvar, combined, u)


def test_shared_antecedent_collapses():
    u = Universe(["A", "B", "H"])
    bh = ConditionalEvent(B, H)
    abh = ConditionalEvent(A & B, H)
    for kind in ("K", "B", "S"):
        assert ce_equal(trivalent_and(kind, ConditionalEvent(A, H), bh, u), abh, u)
    # the second conjunction is not even idempotent: it turns A|H into
    # the unconditional event A&H
    doubled = trivalent_and("L", ConditionalEvent(A, H), ConditionalEvent(A, H), u)
    assert ce_equal(doubled, ConditionalEvent(A & H, TOP), u)
    assert not ce_equal(doubled, ConditionalEvent(A, H), u)


def test_ce_equal_and_gn():
    u = free_universe()
    gu = gn_universe()
    assert ce_equal(AH, AH, u)
    assert gn_inclusion(AH, AH, u)
    assert gn_inclusion(AH, BK, gu)
    assert not gn_inclusion(AH, BK, u)
    # under inclusion the first conjunction collapses, the quasi one does not
    assert ce_equal(trivalent_and("K", AH, BK, gu), AH, gu)
    conj_s = trivalent_and("S", AH, BK, gu)
    assert not ce_equal(conj_s, AH, gu)
    witness = next(
        w
        for w in gu.assignments()
        if eval_conditional(conj_s, w) != eval_conditional(AH, w)
    )
    # the disagreement lives where the second operand is true and the
    # first is void
    assert not witness["H"] and witness["B"] and witness["K"]
    assert eval_conditional(conj_s, witness) is TriValue.TRUE
    assert eval_conditional(AH, witness) is TriValue.VOID


EXPECTED_PATTERN = {
    "P1": {"K"},
    "P2a": set(),
    "P2b": set(),
    "P2c": {"K", "B", "S"},
    "P3": {"B"},
}


@pytest.mark.parametrize("prop", sorted(EXPECTED_PATTERN))
def test_property_pattern(prop):
    for kind in KINDS:
        universe = gn_universe() if prop == "P1" else free_universe()
        outcome = check_logical_property(prop, kind, universe)
        assert outcome.holds == (kind in EXPECTED_PATTERN[prop]), (prop, kind)
        if not outcome.holds and prop != "P1":
            assert outcome.witness is not None


def test_p1_directions():
    k = check_logical_property("P1", "K", gn_universe())
    assert k.forward and k.converse
    for kind in ("L", "B", "S"):
        outcome = check_logical_property("P1", kind, gn_universe())
        assert not outcome.forward
        assert outcome.witness is not None


def test_p3_witness_classes():
    outcome = check_logical_property("P3", "S", free_universe())
    assert not outcome.holds
    w = outcome.witness
    neg_a_h_not_k = not w["A"] and w["H"] and not w["K"]
    not_h_not_b_k = not w["H"] and not w["B"] and w["K"]
    assert neg_a_h_not_k or not_h_not_b_k


def test_property_checks_validate_arguments():
    with pytest.raises(ValueError):
        check_logical_property("P9", "K", free_universe())
    with pytest.raises(ValueError):
        trivalent_and("Q", AH, BK)
    with pytest.raises(EventError):
        check_logical_property("P1", "K", free_universe())
