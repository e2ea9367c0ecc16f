"""Reference checker, written apart from cohkit.

Everything here is recomputed from the benchmark's own description of
the inputs: formulas are the generator's tuples, worlds are all 2^k
atom assignments held as integer bitsets, numbers are Fractions, and
report text is read with a parser of its own.  Nothing is imported from
cohkit, so a fault in cohkit cannot hide itself by also sitting in the
checker.

Formulas are tuples:
    ("atom", i)  ("not", f)  ("and", f, g)  ("or", f, g)  ("true",)
and a conditional event is a pair (consequent, antecedent).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

TRUE = ("true",)
TOLERANCE = Fraction(1, 2**40)

# -- formulas and worlds -------------------------------------------------------


def atom(i):
    return ("atom", i)


def neg(f):
    return ("not", f)


def conj(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = ("and", out, f)
    return out


def disj(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = ("or", out, f)
    return out


def to_text(f, names) -> str:
    """Render in cohkit's file syntax, fully parenthesised."""
    kind = f[0]
    if kind == "atom":
        return names[f[1]]
    if kind == "true":
        return "TRUE"
    if kind == "not":
        inner = to_text(f[1], names)
        return "~" + inner if f[1][0] in ("atom", "true") else "~(" + inner + ")"
    op = " & " if kind == "and" else " | "
    return "(" + to_text(f[1], names) + op + to_text(f[2], names) + ")"


class Worlds:
    """All 2^k assignments of k free atoms; world w sets atom i iff bit i
    of w is 1.  A formula evaluates to a bitset over the worlds."""

    def __init__(self, k: int):
        self.k = k
        self.size = 1 << k
        self.all = (1 << self.size) - 1
        self.atoms = []
        for i in range(k):
            period = 1 << (i + 1)
            block = ((1 << (1 << i)) - 1) << (1 << i)
            bits, length = block, period
            while length < self.size:
                bits |= bits << length
                length *= 2
            self.atoms.append(bits)

    def bits(self, f) -> int:
        kind = f[0]
        if kind == "atom":
            return self.atoms[f[1]]
        if kind == "true":
            return self.all
        if kind == "not":
            return self.all & ~self.bits(f[1])
        left, right = self.bits(f[1]), self.bits(f[2])
        return left & right if kind == "and" else left | right


class Distribution:
    """Strictly positive integer weights on the worlds of k >= 3 atoms:
    weight(w) = low[w mod 2^j] * high[w div 2^j] with j = min(k, 8), so
    that the mass of a bitset is summed a byte at a time."""

    def __init__(self, rng, k: int):
        if k < 3:
            raise ValueError("at least three atoms")
        self.k = k
        self.low_bits = min(k, 8)
        self.low = [rng.randint(1, 9) for _ in range(1 << self.low_bits)]
        self.high = [rng.randint(1, 9) for _ in range(1 << (k - self.low_bits))]
        self.block = (1 << self.low_bits) // 8  # bytes per run of low worlds
        self.tables = [
            [sum(self.low[8 * j + t] for t in range(8) if v >> t & 1) for v in range(256)]
            for j in range(self.block)
        ]

    def weight(self, world: int) -> int:
        return self.low[world & ((1 << self.low_bits) - 1)] * self.high[world >> self.low_bits]

    def mass(self, bits: int) -> int:
        data = bits.to_bytes((1 << self.k) // 8, "little")
        total = 0
        for h, factor in enumerate(self.high):
            chunk = data[h * self.block:(h + 1) * self.block]
            total += factor * sum(table[b] for table, b in zip(self.tables, chunk))
        return total


def conditional_value(worlds: Worlds, dist: Distribution, event) -> Fraction:
    """P(E|H) under the distribution."""
    cons, ante = event
    h = worlds.bits(ante)
    return Fraction(dist.mass(worlds.bits(cons) & h), dist.mass(h))


def member_states(worlds: Worlds, family):
    """Per member: (true bitset, antecedent bitset)."""
    out = []
    for cons, ante in family:
        h = worlds.bits(ante)
        out.append((worlds.bits(cons) & h, h))
    return out


def _patterns(worlds: Worlds, states):
    """The members' (true, false, void) patterns that some world shows:
    1 true, 0 false, None void."""
    classes = [((), worlds.all)]
    for true, ante in states:
        nxt = []
        for pattern, bits in classes:
            for value, part in ((1, bits & true), (0, bits & ante & ~true), (None, bits & ~ante)):
                if part:
                    nxt.append((pattern + (value,), part))
        classes = nxt
    return [pattern for pattern, _bits in classes]


# -- Dutch books and penalty dominance -----------------------------------------


def book_problems(worlds: Worlds, family, values, subfamily, stakes, margin):
    """Why the stakes are no Dutch book, or [] when they are one.

    subfamily: 0-based member indices; stakes: one per subfamily member.
    The bettor's gain on a world is sum of s_i (1{E_i} - p_i) over the
    members whose antecedent holds; it must be strictly positive on every
    world where some antecedent holds, and margin must be its minimum.
    """
    if len(stakes) != len(subfamily) or not subfamily:
        return ["stakes and subfamily differ in length"]
    states = member_states(worlds, [family[i] for i in subfamily])
    vals = [values[i] for i in subfamily]
    lowest = None
    for pattern in _patterns(worlds, states):
        if all(v is None for v in pattern):
            continue
        gain = sum(
            (s * (v - p) for s, v, p in zip(stakes, pattern, vals) if v is not None),
            Fraction(0),
        )
        if gain <= 0:
            return [f"gain {gain} is not positive on pattern {pattern}"]
        lowest = gain if lowest is None or gain < lowest else lowest
    if lowest is None:
        return ["no world where some antecedent holds"]
    if margin != lowest:
        return [f"margin {margin} differs from the least gain {lowest}"]
    return []


def penalty(pattern, values) -> Fraction:
    return sum(
        ((v - p) ** 2 for v, p in zip(pattern, values) if v is not None), Fraction(0)
    )


def dominator_problems(worlds: Worlds, family, values, candidate):
    """Why candidate does not penalty-dominate values, or [] when it does:
    the quadratic penalty must be nowhere larger and somewhere smaller."""
    if len(candidate) != len(values):
        return ["dominator has the wrong length"]
    strict = False
    for pattern in _patterns(worlds, member_states(worlds, family)):
        old, new = penalty(pattern, values), penalty(pattern, candidate)
        if new > old:
            return [f"penalty rises from {old} to {new} on pattern {pattern}"]
        strict = strict or new < old
    return [] if strict else ["penalty is nowhere strictly smaller"]


# -- extension intervals -------------------------------------------------------


def closed_form(connective: str, logic: str, x, y):
    """Coherent-extension interval of the compound of A|H = x and B|K = y
    over free atoms, as stated in the paper."""
    x, y = Fraction(x), Fraction(y)
    one, zero = Fraction(1), Fraction(0)
    if connective == "and":
        if logic in ("K", "L"):
            return zero, min(x, y)
        if logic == "B":
            return zero, one
        if logic == "S":
            hi = one if x == 1 and y == 1 else (x + y - 2 * x * y) / (1 - x * y)
            return max(x + y - 1, zero), hi
        if logic == "gs":
            return max(x + y - 1, zero), min(x, y)
    else:
        if logic in ("K", "L"):
            return max(x, y), one
        if logic == "B":
            return zero, one
        if logic == "S":
            lo = zero if x == 0 and y == 0 else x * y / (x + y - x * y)
            return lo, min(x + y, one)
        if logic == "gs":
            return max(x, y), min(x + y, one)
    raise ValueError(f"unknown operator {connective}_{logic}")


def interval_problems(logic: str, closed, lower, upper):
    """K and L come from bisection: their reports must sit inside the
    closed interval and within 2^-40 of it.  Every other route is exact."""
    lo, hi = closed
    if logic in ("K", "L"):
        if not (lo <= lower <= upper <= hi):
            return [f"[{lower}, {upper}] is not inside [{lo}, {hi}]"]
        if lower - lo > TOLERANCE or hi - upper > TOLERANCE:
            return [f"[{lower}, {upper}] is not within 2^-40 of [{lo}, {hi}]"]
        return []
    if (lower, upper) != (lo, hi):
        return [f"[{lower}, {upper}] differs from [{lo}, {hi}]"]
    return []


# -- p-entailment --------------------------------------------------------------


def _gn_included(worlds: Worlds, first, second) -> bool:
    """Goodman-Nguyen inclusion: first true forces second true, and
    second false forces first false."""
    (c1, a1), (c2, a2) = first, second
    t1 = worlds.bits(c1) & worlds.bits(a1)
    f1 = worlds.bits(a1) & ~worlds.bits(c1)
    t2 = worlds.bits(c2) & worlds.bits(a2)
    f2 = worlds.bits(a2) & ~worlds.bits(c2)
    return t1 & ~t2 & worlds.all == 0 and f2 & ~f1 & worlds.all == 0


def quasi_conjunction(members):
    cons = conj(*(disj(c, neg(a)) for c, a in members))
    ante = disj(*(a for _c, a in members))
    return cons, ante


def p_entails(worlds: Worlds, premises, target) -> bool:
    """Adams' characterisation, for a p-consistent premise family: the
    target is p-entailed iff its antecedent implies its consequent, or the
    quasi conjunction of some nonempty subfamily is Goodman-Nguyen
    included in it."""
    cons, ante = target
    if worlds.bits(ante) & ~worlds.bits(cons) & worlds.all == 0:
        return True
    for size in range(1, len(premises) + 1):
        for subset in combinations(premises, size):
            if _gn_included(worlds, quasi_conjunction(subset), target):
                return True
    return False


# -- report text ---------------------------------------------------------------

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))? \(-?[\d.]+\)$")


def parse_number(text: str) -> Fraction:
    m = _RATIONAL.match(text.strip())
    if m is None:
        raise ValueError(f"not a rendered rational: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def parse_list(text: str):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a list: {text!r}")
    body = text[1:-1].strip()
    return [p.strip() for p in body.split(",")] if body else []


def parse_report(text: str) -> dict:
    """Key/value report with two-space indented sections; sections become
    nested dicts, values stay text."""
    root: dict = {}
    stack = [(root, -1)]
    for raw in text.splitlines():
        if not raw.strip():
            continue
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        key, _, rest = raw.strip().partition(":")
        rest = rest.strip()
        while stack[-1][1] >= depth:
            stack.pop()
        parent = stack[-1][0]
        if rest:
            parent[key] = rest
        else:
            parent[key] = {}
            stack.append((parent[key], depth))
    return root
