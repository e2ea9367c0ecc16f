import pytest
from hypothesis import given, settings, strategies as st

from cohkit.coherence import MemberTable, world_levels
from cohkit.events import (
    And,
    Atom,
    BOTTOM,
    EmptyConditioningError,
    EmptyUniverseError,
    EventError,
    FormulaSyntaxError,
    Not,
    Or,
    TOP,
    UnknownAtomError,
    Universe,
    conditional_sets,
    eval_formula,
    implies,
    parse_formula,
    set_bits,
)
from cohkit.trivalent import ConditionalEvent

from oracles import SIG_FALSE, SIG_TRUE, SIG_VOID, world_signatures

A, B, H, K = Atom("A"), Atom("B"), Atom("H"), Atom("K")


def signatures(family, u):
    """Signatures of the constituents C_1 .. C_m, in the order of the
    family's MemberTable patterns (entries 1, 0, None)."""
    table = MemberTable([world_levels(ce, u) for ce in family], [0] * len(family), len(u))
    code = {1: SIG_TRUE, 0: SIG_FALSE, None: SIG_VOID}
    return [tuple(code[e] for e in p) for p in table.patterns(tuple(range(len(family))))]


def worlds(u, bits):
    return [u.assignment(pos) for pos in set_bits(bits)]


def test_eval_constants_and_connectives():
    assert eval_formula(TOP, {}) is True
    assert eval_formula(A & ~A, {"A": True}) is False
    assert eval_formula(A & ~A, {"A": False}) is False
    assert eval_formula(A | B, {"A": False, "B": True}) is True
    assert eval_formula(~(A | B), {"A": False, "B": False}) is True


def test_eval_unknown_atom():
    with pytest.raises(UnknownAtomError):
        eval_formula(A & B, {"A": True})


def test_parse_precedence():
    assert parse_formula("A & ~B") == And(A, Not(B))
    assert parse_formula("A | B & C") == Or(A, And(B, Atom("C")))
    assert parse_formula("~A | B") == Or(Not(A), B)
    assert parse_formula("~(A | B)") == Not(Or(A, B))
    assert parse_formula("TRUE & FALSE") == And(TOP, BOTTOM)


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("( )")
    assert err.value.position == 2
    with pytest.raises(FormulaSyntaxError):
        parse_formula("A &")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("A B")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("A % B")
    with pytest.raises(UnknownAtomError):
        parse_formula("A & Z", known_atoms=["A"])


def test_universe_basics():
    u = Universe(["A", "B"])
    assert len(u) == 4
    assert u.satisfiable(A & B)
    assert not u.satisfiable(A & ~A)
    with pytest.raises(EventError):
        Universe(["A", "A"])
    with pytest.raises(EmptyUniverseError):
        Universe(["A"], [(A, True), (A, False)])
    with pytest.raises(EventError):
        Universe([f"X{i}" for i in range(17)])


def test_world_set_rejects_undeclared_atom():
    u = Universe(["A"])
    with pytest.raises(UnknownAtomError):
        u.world_set(Atom("Z"))


def test_implies_examples():
    u = Universe(["A", "B"])
    assert implies(A & B, A, u)
    assert implies(A, A | B, u)
    assert not implies(A | B, A, u)
    # constrained universe: A & H & ~K impossible makes A & H imply K
    u2 = Universe(["A", "H", "K"], [(A & H & ~K, False)])
    assert implies(A & H, K, u2)


def test_constituents_of_nested_pair():
    # A implies B: the three constituents AB, ~A B, ~A ~B survive
    u = Universe(["A", "B"], [(A & ~B, False)])
    fam = [ConditionalEvent(A, TOP), ConditionalEvent(B, TOP)]
    found = dict(world_signatures(fam, u))
    assert (SIG_VOID, SIG_VOID) not in found
    assert signatures(fam, u) == [
        (SIG_TRUE, SIG_TRUE),
        (SIG_FALSE, SIG_TRUE),
        (SIG_FALSE, SIG_FALSE),
    ]
    world_sets = [worlds(u, found[sig]) for sig in signatures(fam, u)]
    assert [len(ws) for ws in world_sets] == [1, 1, 1]
    assert world_sets[0][0] == {"A": True, "B": True}
    assert world_sets[1][0] == {"A": False, "B": True}
    assert world_sets[2][0] == {"A": False, "B": False}


def test_constituents_free_conditional_pair():
    u = Universe(["A", "H", "B", "K"])
    fam = [ConditionalEvent(A, H), ConditionalEvent(B, K)]
    assert len(signatures(fam, u)) == 8
    assert (SIG_VOID, SIG_VOID) in dict(world_signatures(fam, u))
    # lexicographic with true < false < void per member
    assert signatures(fam, u) == [
        (SIG_TRUE, SIG_TRUE),
        (SIG_TRUE, SIG_FALSE),
        (SIG_TRUE, SIG_VOID),
        (SIG_FALSE, SIG_TRUE),
        (SIG_FALSE, SIG_FALSE),
        (SIG_FALSE, SIG_VOID),
        (SIG_VOID, SIG_TRUE),
        (SIG_VOID, SIG_FALSE),
    ]


def test_constituents_constrained_pair():
    u = Universe(
        ["A", "H", "B", "K"],
        [
            (A & H & ~K, False),
            (A & H & ~B & K, False),
            (~H & ~B & K, False),
            (~A & H & B & K, False),
        ],
    )
    fam = [ConditionalEvent(A, H), ConditionalEvent(B, K)]
    found = dict(world_signatures(fam, u))
    c0 = found.pop((SIG_VOID, SIG_VOID))
    assert set(signatures(fam, u)) == set(found) == {
        (SIG_TRUE, SIG_TRUE),  # A H B K
        (SIG_FALSE, SIG_FALSE),  # ~A H ~B K
        (SIG_FALSE, SIG_VOID),  # ~A H ~K
        (SIG_VOID, SIG_TRUE),  # ~H B K
    }
    assert all(w["A"] and w["H"] and w["B"] and w["K"]
               for w in worlds(u, found[(SIG_TRUE, SIG_TRUE)]))
    assert all(not w["H"] and w["B"] and w["K"]
               for w in worlds(u, found[(SIG_VOID, SIG_TRUE)]))
    assert c0 and all(not w["H"] and not w["K"] for w in worlds(u, c0))


def test_empty_conditioning_rejected():
    u = Universe(["A", "H"], [(H, False)])
    with pytest.raises(EmptyConditioningError):
        conditional_sets(ConditionalEvent(A, H), u)


def formula_strategy(atom_names):
    atoms = st.sampled_from([Atom(a) for a in atom_names])
    consts = st.sampled_from([TOP, BOTTOM])
    return st.recursive(
        atoms | consts,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
        ),
        max_leaves=12,
    )


@given(formula_strategy(["A", "B", "C"]))
def test_render_parse_round_trip(formula):
    u = Universe(["A", "B", "C"])
    assert u.world_set(parse_formula(str(formula))) == u.world_set(formula)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(formula_strategy(["A", "B", "C"]), formula_strategy(["A", "B", "C"])),
        min_size=1,
        max_size=3,
    )
)
def test_constituents_partition_worlds(pairs):
    u = Universe(["A", "B", "C"])
    family = [ConditionalEvent(c, a) for c, a in pairs]
    if any(not u.satisfiable(ce.antecedent) for ce in family):
        return
    union = 0
    for _sig, bits in world_signatures(family, u):
        assert union & bits == 0
        union |= bits
    assert union == u.all_set


def test_constituent_counts():
    # logically independent unconditional events: 2^n constituents
    u = Universe(["A", "B", "C"])
    fam = [ConditionalEvent(Atom(x), TOP) for x in "ABC"]
    assert len(signatures(fam, u)) == 8
    # unconstrained conditional events: at most 3^n signature classes
    u4 = Universe(["A", "H", "B", "K"])
    fam2 = [ConditionalEvent(A, H), ConditionalEvent(B, K)]
    assert len(world_signatures(fam2, u4)) <= 9


def test_enumeration_is_deterministic():
    u = Universe(["A", "H", "B", "K"])
    fam = [ConditionalEvent(A, H), ConditionalEvent(B, K)]
    assert signatures(fam, u) == signatures(fam, u)
    assert world_signatures(fam, u) == world_signatures(fam, u)


def test_equal_formulas_built_apart_hash_equal():
    text = "(A & ~B | H) & ~(K | A & B)"
    built = (A & ~B | H) & ~(K | A & B)
    parsed = parse_formula(text)
    assert parsed == built and parsed is not built
    assert hash(parsed) == hash(built)
    # each node reads its hash from its fields, so connectives differ
    assert hash(And(A, B)) != hash(Or(A, B))
    assert {parsed: 1}[built] == 1


def test_hash_is_stored_at_construction():
    # a chain far deeper than the recursion limit hashes in one step,
    # as no lookup walks the subtree again
    deep, twin = A, A
    for _ in range(5000):
        deep, twin = Not(deep), Not(twin)
    assert hash(deep) == hash(twin)
