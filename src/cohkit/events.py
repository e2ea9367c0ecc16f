"""Boolean event algebra: formulas, constrained worlds, world partitions.

Events are boolean formulas over named atoms.  A Universe fixes the atom
list (at most 16) and an optional set of logical constraints; worlds are
the surviving 0/1 assignments, represented as bitmasks, and every formula
evaluates to a bitset over the world list.  A conditional event splits
the worlds into its true, false and void sets (conditional_sets), and
refine partitions a world bitset by the levels of a family of members;
the constituents of a family are the classes of that partition, which
cohkit.coherence.MemberTable groups and orders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterator, Mapping, Optional, Sequence

MAX_ATOMS = 16


class EventError(Exception):
    pass


class UnknownAtomError(EventError):
    pass


class EmptyUniverseError(EventError):
    pass


class EmptyConditioningError(EventError):
    """Raised when a conditioning event is impossible in the universe."""


class FormulaSyntaxError(EventError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Expression tree over atoms with ~, &, | and the constants.

    Each node stores its hash at construction, from its fields, whose
    own hashes are stored, so hashing a formula (as the bitset caches do
    on every lookup) costs one tuple hash, not a walk of the subtree."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def atoms(self) -> frozenset:
        out = set()
        _collect_atoms(self, out)
        return frozenset(out)

    def __str__(self) -> str:
        return _render(self, 0)


def _store_hash(node: Formula, key: tuple) -> None:
    object.__setattr__(node, "_hash", hash(key))


@dataclass(frozen=True)
class Atom(Formula):
    __slots__ = ("name",)
    name: str
    __hash__ = Formula.__hash__

    def __post_init__(self) -> None:
        _store_hash(self, ("Atom", self.name))


@dataclass(frozen=True)
class Not(Formula):
    __slots__ = ("operand",)
    operand: Formula
    __hash__ = Formula.__hash__

    def __post_init__(self) -> None:
        _store_hash(self, ("Not", self.operand))


@dataclass(frozen=True)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula
    __hash__ = Formula.__hash__

    def __post_init__(self) -> None:
        _store_hash(self, ("And", self.left, self.right))


@dataclass(frozen=True)
class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula
    __hash__ = Formula.__hash__

    def __post_init__(self) -> None:
        _store_hash(self, ("Or", self.left, self.right))


@dataclass(frozen=True)
class Const(Formula):
    __slots__ = ("value",)
    value: bool
    __hash__ = Formula.__hash__

    def __post_init__(self) -> None:
        _store_hash(self, ("Const", self.value))


TOP = Const(True)
BOTTOM = Const(False)


def _collect_atoms(f: Formula, out: set) -> None:
    if isinstance(f, Atom):
        out.add(f.name)
    elif isinstance(f, Not):
        _collect_atoms(f.operand, out)
    elif isinstance(f, (And, Or)):
        _collect_atoms(f.left, out)
        _collect_atoms(f.right, out)


def _render(f: Formula, level: int) -> str:
    # precedence levels: | = 0, & = 1, ~ = 2
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return "TRUE" if f.value else "FALSE"
    if isinstance(f, Not):
        return "~" + _render(f.operand, 2)
    if isinstance(f, And):
        text = _render(f.left, 1) + " & " + _render(f.right, 1)
        return "(" + text + ")" if level > 1 else text
    if isinstance(f, Or):
        text = _render(f.left, 0) + " | " + _render(f.right, 0)
        return "(" + text + ")" if level > 0 else text
    raise TypeError(f"not a formula: {f!r}")


def eval_formula(f: Formula, world: Mapping[str, bool]) -> bool:
    """Evaluate a formula on an atom assignment."""
    if isinstance(f, Atom):
        try:
            return bool(world[f.name])
        except KeyError:
            raise UnknownAtomError(f.name) from None
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not eval_formula(f.operand, world)
    if isinstance(f, And):
        return eval_formula(f.left, world) and eval_formula(f.right, world)
    if isinstance(f, Or):
        return eval_formula(f.left, world) or eval_formula(f.right, world)
    raise TypeError(f"not a formula: {f!r}")


_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|([~&|()]))")


def parse_formula(text: str, known_atoms: Optional[Sequence[str]] = None) -> Formula:
    """Parse the text grammar: ~ binds tightest, then &, then |.

    Atoms are identifiers; TRUE and FALSE are constants; whitespace is
    free.  When known_atoms is given, any other identifier raises
    UnknownAtomError.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad)
        name, op = m.group(1), m.group(2)
        tokens.append((name or op, m.start(1) if name else m.start(2)))
        pos = m.end()
    tokens.append((None, len(text)))

    idx = 0

    def peek():
        return tokens[idx][0]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_or() -> Formula:
        node = parse_and()
        while peek() == "|":
            advance()
            node = Or(node, parse_and())
        return node

    def parse_and() -> Formula:
        node = parse_not()
        while peek() == "&":
            advance()
            node = And(node, parse_not())
        return node

    def parse_not() -> Formula:
        if peek() == "~":
            advance()
            return Not(parse_not())
        return parse_primary()

    def parse_primary() -> Formula:
        tok, at = advance()
        if tok == "(":
            node = parse_or()
            closing, cat = advance()
            if closing != ")":
                raise FormulaSyntaxError("expected ')'", cat)
            return node
        if tok is None or tok in "&|)~":
            raise FormulaSyntaxError("expected an atom, constant or '('", at)
        if tok == "TRUE":
            return TOP
        if tok == "FALSE":
            return BOTTOM
        if known_atoms is not None and tok not in known_atoms:
            raise UnknownAtomError(tok)
        return Atom(tok)

    node = parse_or()
    tok, at = tokens[idx]
    if tok is not None:
        raise FormulaSyntaxError(f"unexpected token {tok!r}", at)
    return node


def _formula_bits(f: Formula, atom_sets: Mapping[str, int], all_set: int, cache: dict) -> int:
    """Bitset of the positions where the formula holds, given the atoms'
    bitsets over the same positions."""
    cached = cache.get(f)
    if cached is not None:
        return cached
    if isinstance(f, Atom):
        try:
            bits = atom_sets[f.name]
        except KeyError:
            raise UnknownAtomError(f.name) from None
    elif isinstance(f, Const):
        bits = all_set if f.value else 0
    elif isinstance(f, Not):
        bits = all_set & ~_formula_bits(f.operand, atom_sets, all_set, cache)
    elif isinstance(f, And):
        bits = _formula_bits(f.left, atom_sets, all_set, cache) & _formula_bits(
            f.right, atom_sets, all_set, cache
        )
    elif isinstance(f, Or):
        bits = _formula_bits(f.left, atom_sets, all_set, cache) | _formula_bits(
            f.right, atom_sets, all_set, cache
        )
    else:
        raise TypeError(f"not a formula: {f!r}")
    cache[f] = bits
    return bits


# one byte per bit position, 0 or 1, lowest position first
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FROM_FLAGS = bytes.maketrans(b"\x00\x01", b"01")


def _flags(bits: int, width: int) -> bytes:
    return format(bits, f"0{width}b").encode()[::-1].translate(_TO_FLAGS)


def _from_flags(flags) -> int:
    return int(bytes(flags)[::-1].translate(_FROM_FLAGS) or b"0", 2)


def set_bits(bits: int) -> list:
    """Positions of the set bits of a bitset, in ascending order."""
    return list(compress(count(), _flags(bits, bits.bit_length())))


def _cube_atom_sets(k: int) -> list:
    """Bitset of each atom over the 2^k masks: bit m is set when mask m
    sets the atom's bit, that is 2^i zeros then 2^i ones, repeated by
    doubling, each shift copying the bits built so far above them."""
    size = 1 << k
    out = []
    for i in range(k):
        width = 2 << i
        bits = ((1 << (1 << i)) - 1) << (1 << i)
        while width < size:
            bits |= bits << width
            width <<= 1
        out.append(bits)
    return out


class Universe:
    """Atom list plus constraints; enumerates the surviving worlds.

    Constraints are (formula, truth) pairs: the formula is asserted
    certain (truth=True) or impossible (truth=False) and worlds violating
    any of them are dropped.  At least one world must survive.  Every
    formula is evaluated as a bitset, first on the cube of all 2^k masks
    (for the constraints) and then on the surviving worlds.
    """

    def __init__(self, atoms: Sequence[str], constraints: Sequence[tuple] = ()):
        atoms = list(atoms)
        if len(atoms) > MAX_ATOMS:
            raise EventError(f"at most {MAX_ATOMS} atoms supported, got {len(atoms)}")
        if len(set(atoms)) != len(atoms):
            raise EventError("duplicate atom names")
        for a in atoms:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", a):
                raise EventError(f"bad atom name {a!r}")
        self.atoms = tuple(atoms)
        self.constraints = tuple((f, bool(v)) for f, v in constraints)
        self._index = {a: i for i, a in enumerate(atoms)}
        self._cache: dict = {}

        size = 1 << len(atoms)
        cube = (1 << size) - 1
        cube_sets = dict(zip(atoms, _cube_atom_sets(len(atoms))))
        keep = cube
        cube_cache: dict = {}
        for f, v in self.constraints:
            bits = _formula_bits(f, cube_sets, cube, cube_cache)
            keep &= bits if v else cube & ~bits
        if keep == 0:
            raise EmptyUniverseError("constraints admit no world")
        if keep == cube:
            self.worlds = tuple(range(size))
            self._atom_sets = cube_sets
        else:
            # compress each atom's cube bitset to the surviving positions
            selected = _flags(keep, size)
            self.worlds = tuple(compress(count(), selected))
            self._atom_sets = {
                a: _from_flags(compress(_flags(bits, size), selected))
                for a, bits in cube_sets.items()
            }
        self.all_set = (1 << len(self.worlds)) - 1

    def __len__(self) -> int:
        return len(self.worlds)

    def world_set(self, f: Formula) -> int:
        """Bitset of world positions where the formula holds."""
        return _formula_bits(f, self._atom_sets, self.all_set, self._cache)

    def satisfiable(self, f: Formula) -> bool:
        return self.world_set(f) != 0

    def assignment(self, position: int) -> dict:
        """Atom assignment of the world at a given position."""
        mask = self.worlds[position]
        return {a: bool(mask >> i & 1) for a, i in self._index.items()}

    def assignments(self) -> Iterator[dict]:
        for pos in range(len(self.worlds)):
            yield self.assignment(pos)


def implies(f: Formula, g: Formula, universe: Universe) -> bool:
    """f logically implies g within the universe (f & ~g impossible)."""
    return universe.world_set(f) & ~universe.world_set(g) & universe.all_set == 0


def conditional_sets(member, universe: Universe) -> tuple:
    """(true, false, void) world bitsets of a conditional event.

    The member only needs .consequent and .antecedent formulas.  Raises
    EmptyConditioningError when the antecedent is impossible.
    """
    ante = universe.world_set(member.antecedent)
    if ante == 0:
        raise EmptyConditioningError(
            f"empty conditioning event: {member.antecedent}"
        )
    cons = universe.world_set(member.consequent)
    true = cons & ante
    false = ante & ~cons & universe.all_set
    void = universe.all_set & ~ante
    return true, false, void


def refine(block: int, members: Sequence[tuple]) -> dict:
    """Partition refinement of a world bitset by a family of members.

    members: one (levels, void) pair per member, where levels are
    disjoint (key, bitset) pairs and the member takes the key void on
    the worlds of no level.  Returns the nonempty classes of block, as
    pattern (one key per member) -> bitset; the work is one AND per
    class, member and level, however many worlds the classes hold.
    """
    classes = {(): block} if block else {}
    for levels, void in members:
        split = {}
        for pattern, bits in classes.items():
            for key, level in levels:
                part = bits & level
                if part:
                    split[pattern + (key,)] = part
                    bits ^= part
                    if not bits:
                        break
            if bits:
                split[pattern + (void,)] = bits
        classes = split
    return classes
