"""The four workloads: seeded inputs, the timed operation, its check.

Each workload builds one round: a fixed list of operations whose
composition (sizes, commands, operators) never depends on the seed.  The
seed picks atom permutations, polarities, grid values and `bounds` values.  Family structures,
world weights and member order come from a template generator with a
fixed seed, so that every seed asks for the same work and run-to-run
spread measures the machine more than the draw.

An operation's `run` is the only timed call.  `check` reads its result
and returns a list of problems, recomputed with perfbench.reference.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import reference as ref

ROOT = Path(__file__).resolve().parent.parent  # the checkout; cohkit is in ROOT/src
NAMES = "ABCDEFGHIJKL"
TEMPLATE_SEED = 20230123  # fixes structures and weights; never the --seed


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    known_fault: Optional[str] = None  # exception name this op fails with today


# -- family generation ---------------------------------------------------------


def _template(trng: random.Random, k: int, n: int):
    """n distinct members over k atoms: literal conjunctions/disjunctions
    as (atom index, polarity) lists."""
    members = []
    while len(members) < n:
        ne = trng.randint(1, min(2, k))
        nh = trng.randint(0, min(2, k - ne))
        idx = trng.sample(range(k), ne + nh)
        shape = "or" if ne == 2 and trng.random() < 0.3 else "and"
        cons = [(i, trng.random() < 0.5) for i in idx[:ne]]
        ante = [(i, trng.random() < 0.5) for i in idx[ne:]]
        if (shape, cons, ante) not in members:
            members.append((shape, cons, ante))
    return members


class Relabel:
    """A seeded automorphism of the atoms: permutation plus polarity flips."""

    def __init__(self, rng: random.Random, k: int):
        self.perm = list(range(k))
        rng.shuffle(self.perm)
        self.flip = [rng.random() < 0.5 for _ in range(k)]

    def lit(self, i: int, positive: bool = True):
        a = ref.atom(self.perm[i])
        return a if positive ^ self.flip[i] else ref.neg(a)

    def formula(self, lits, shape="and"):
        if not lits:
            return ref.TRUE
        fs = [self.lit(i, pol) for i, pol in lits]
        return ref.disj(*fs) if shape == "or" else ref.conj(*fs)


@dataclass
class Family:
    k: int
    events: list  # (consequent, antecedent) tuples
    values: list  # Fractions

    def text(self) -> str:
        names = NAMES[: self.k]
        lines = ["atoms " + " ".join(names)]
        for i, (cons, ante) in enumerate(self.events):
            lines.append(
                f"event e{i + 1} = {ref.to_text(cons, names)} | {ref.to_text(ante, names)}"
            )
        for i, value in enumerate(self.values):
            if value is not None:
                lines.append(f"assess e{i + 1} = {value.numerator}/{value.denominator}")
        return "\n".join(lines) + "\n"


def coherent_family(rng, trng, template, k) -> Family:
    """Values read off a strictly positive world distribution."""
    relabel = Relabel(rng, k)
    worlds = ref.Worlds(k)
    dist = ref.Distribution(trng, k)
    events = []
    for shape, cons, ante in template:
        events.append((relabel.formula(cons, shape), relabel.formula(ante)))
    values = [ref.conditional_value(worlds, dist, e) for e in events]
    return Family(k, events, values)


def shallow_family(rng, trng, k, n) -> Family:
    """P(E&F|H) > P(E|H), plus n - 2 members read off the distribution."""
    relabel = Relabel(rng, k)
    worlds = ref.Worlds(k)
    dist = ref.Distribution(trng, k)
    e, f, h = relabel.lit(0), relabel.lit(1), relabel.lit(2)
    pe = ref.conditional_value(worlds, dist, (e, h))
    events = [(e, h), (ref.conj(e, f), h)]
    values = [pe, pe + (1 - pe) / 3]
    others = _template(trng, k, n - 2)
    for shape, cons, ante in others:
        ev = (relabel.formula(cons, shape), relabel.formula(ante))
        events.append(ev)
        values.append(ref.conditional_value(worlds, dist, ev))
    return _shuffled(trng, Family(k, events, values))


def deep_family(rng, trng, k, n, cells) -> Family:
    """A partition of 4 or 5 cells under one antecedent whose values sum
    below 1; the other members live on atoms the partition does not use,
    so no proper subfamily is incoherent."""
    relabel = Relabel(rng, k)
    worlds = ref.Worlds(k)
    dist = ref.Distribution(trng, k)
    p1, p2, p3 = (relabel.lit(i) for i in range(3))
    if cells == 4:
        parts = [ref.conj(p1, p2), ref.conj(p1, ref.neg(p2)),
                 ref.conj(ref.neg(p1), p2), ref.conj(ref.neg(p1), ref.neg(p2))]
    else:
        parts = [ref.conj(p1, p2), ref.conj(p1, ref.neg(p2)),
                 ref.conj(ref.neg(p1), p2, p3), ref.conj(ref.neg(p1), p2, ref.neg(p3)),
                 ref.conj(ref.neg(p1), ref.neg(p2))]
    used = cells - 1  # partition atoms, then the antecedent's atom
    h = relabel.lit(used - 1)
    events = [(c, h) for c in parts]
    values = [ref.conditional_value(worlds, dist, ev) * Fraction(9, 10) for ev in events]
    free = list(range(used, k))
    others = _template(trng, len(free), n - cells)
    for shape, cons, ante in others:
        ev = (
            relabel.formula([(free[i], pol) for i, pol in cons], shape),
            relabel.formula([(free[i], pol) for i, pol in ante]),
        )
        events.append(ev)
        values.append(ref.conditional_value(worlds, dist, ev))
    return _shuffled(trng, Family(k, events, values))


def _shuffled(trng, fam: Family) -> Family:
    """Member order from the template generator: where the violation sits
    decides how many subfamilies the check visits, so it must not vary
    with the seed."""
    order = list(range(len(fam.events)))
    trng.shuffle(order)
    return Family(fam.k, [fam.events[i] for i in order], [fam.values[i] for i in order])


# -- checks of CLI reports -------------------------------------------------------


def check_verdict_problems(fam: Family, coherent: bool, code: int, out: str, command="check"):
    """Exit code and verdict of `cohkit check` or `cohkit dutchbook`; for
    incoherent families the Dutch book (and, for check, the penalty
    dominator) recomputed over all worlds."""
    expected_code = 0 if coherent else 1
    if code != expected_code:
        return [f"{command} exited {code}, expected {expected_code}"]
    report = ref.parse_report(out)
    verdict = report.get("verdict")
    if verdict != ("coherent" if coherent else "incoherent"):
        return [f"verdict {verdict!r}"]
    if coherent:
        if command == "dutchbook" and report.get("dutch-book") != "none":
            return ["coherent family reported with a Dutch book"]
        return []
    worlds = ref.Worlds(fam.k)
    key = "failing-subfamily" if command == "check" else "subfamily"
    subfamily = [int(i) - 1 for i in ref.parse_list(report[key])]
    stakes = [ref.parse_number(s) for s in ref.parse_list(report["stakes"])]
    margin = ref.parse_number(report["margin"])
    problems = ref.book_problems(worlds, fam.events, fam.values, subfamily, stakes, margin)
    if command == "check":
        dominator = [ref.parse_number(v) for v in ref.parse_list(report["brier-dominator"])]
        problems += ref.dominator_problems(worlds, fam.events, fam.values, dominator)
    return problems


def check_bounds_problems(logic, connective, x, y, code, out):
    if code != 0:
        return [f"bounds exited {code}"]
    interval = ref.parse_report(out)["interval"]
    lower = ref.parse_number(interval["lower"])
    upper = ref.parse_number(interval["upper"])
    return ref.interval_problems(logic, ref.closed_form(connective, logic, x, y), lower, upper)


def check_entails_problems(expected: bool, code, out):
    if code != (0 if expected else 1):
        return [f"entails exited {code}, expected {0 if expected else 1}"]
    report = ref.parse_report(out)
    if report.get("p-consistent") != "yes":
        return ["premises reported p-inconsistent"]
    if report.get("p-entails") != ("yes" if expected else "no"):
        return [f"p-entails {report.get('p-entails')!r}, expected {expected}"]
    return []


# -- in-process CLI --------------------------------------------------------------


def cli_in_process(argv):
    import cohkit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cohkit.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(workdir, name, fam: Family) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(fam.text())
    return path


def _cli_op(label, argv, check_out):
    def run():
        return cli_in_process(argv)

    def check(result):
        code, out, _err = result
        return check_out(code, out)

    return Op(label, run, check)


def _check_op(label, path, fam, coherent, command="check"):
    return _cli_op(label, [command, path],
                   lambda code, out: check_verdict_problems(fam, coherent, code, out, command))


def _template_rng(trng, anchor: bool, key):
    """The structure-and-weights rng of one family.

    Latency quantiles are order statistics, so they wobble when the
    families around them differ in cost.  All families of an anchor
    class get the same structure and weights, and differ only in the
    seed's relabelling, which leaves the work unchanged; the class that
    holds a quantile is an anchor."""
    return random.Random(f"{TEMPLATE_SEED}-{key}") if anchor else trng


# (members, atoms, families per round, anchor).  Sorted by cost, n = 5
# holds the median and n = 7 the 90th percentile.
COHERENT_MIX = ((4, 5, 20, False), (5, 5, 16, True), (6, 6, 8, False),
                (7, 5, 6, True), (8, 6, 1, False))


def check_coherent(seed: int, workdir: str):
    rng = random.Random(seed)
    trng = random.Random(TEMPLATE_SEED)
    ops = []
    for n, k, count, anchor in COHERENT_MIX:
        for j in range(count):
            frng = _template_rng(trng, anchor, n)
            fam = coherent_family(rng, frng, _template(frng, k, n), k)
            path = _write(workdir, f"coherent-n{n}-{j}.coh", fam)
            ops.append(_check_op(f"check n={n} atoms={k}", path, fam, True))
    rng.shuffle(ops)
    return ops


# (kind, members, partition cells, families per round, anchor), 6
# atoms: 30 shallow and 20 deep.  Sorted by cost, shallow n = 8 holds
# the median and deep 4-cell n = 7 the 90th percentile.
INCOHERENT_MIX = (
    ("shallow", 4, 0, 4, False), ("shallow", 5, 0, 4, False),
    ("shallow", 6, 0, 5, False), ("shallow", 7, 0, 5, False),
    ("shallow", 8, 0, 12, True),
    ("deep", 5, 4, 6, False), ("deep", 6, 4, 4, False), ("deep", 6, 5, 3, False),
    ("deep", 7, 4, 5, True), ("deep", 7, 5, 2, False),
)


def check_incoherent(seed: int, workdir: str):
    rng = random.Random(seed)
    trng = random.Random(TEMPLATE_SEED)
    ops = []
    k = 6
    for kind, n, cells, count, anchor in INCOHERENT_MIX:
        for j in range(count):
            frng = _template_rng(trng, anchor, (kind, n, cells))
            if kind == "shallow":
                fam = shallow_family(rng, frng, k, n)
            else:
                fam = deep_family(rng, frng, k, n, cells)
            label = f"check {kind}{cells or ''} n={n}"
            path = _write(workdir, f"incoherent-{kind}{cells}-n{n}-{j}.coh", fam)
            ops.append(_check_op(label, path, fam, False))
    rng.shuffle(ops)
    return ops


# -- extension grid --------------------------------------------------------------

OPERATORS = tuple((c, l) for c in ("and", "or") for l in ("K", "L", "B", "S", "gs"))
# bases H|TRUE = y, A&H|TRUE = z whose only coherent A|H value z/y is not
# dyadic; cohkit's probing cannot seed them (ExtensionSeedError)
RATIO_FORCED = ((Fraction(3, 5), Fraction(1, 5)), (Fraction(7, 10), Fraction(1, 2)),
                (Fraction(5, 6), Fraction(1, 3)), (Fraction(3, 7), Fraction(2, 7)))


def grid_values(rng: random.Random):
    """0, 1 and two distinct interior values with odd denominators, so
    that no interior value is dyadic and every seed bisects alike."""
    inner = set()
    while len(inner) < 2:
        den = rng.choice((3, 5, 7, 9, 11))
        inner.add(Fraction(rng.randint(1, den - 1), den))
    return [Fraction(0), Fraction(1)] + sorted(inner)


def extension_grid(seed: int, workdir: str):
    import cohkit.coherence as coh
    from cohkit import Atom, ConditionalEvent, TOP, Universe
    from cohkit.compound import gs_and, gs_or
    from cohkit.trivalent import trivalent_and, trivalent_or

    rng = random.Random(seed)
    universe = Universe(["A", "H", "B", "K"])
    a, h, b, k = (Atom(n) for n in "AHBK")
    ah, bk = ConditionalEvent(a, h), ConditionalEvent(b, k)
    tolerance = Fraction(1, 2**40)
    ops = []
    values = grid_values(rng)
    for connective, logic in OPERATORS:
        for x in values:
            for y in values:
                base = coh.Assessment.build([ah, bk], [x, y])
                if logic == "gs":
                    build = gs_and if connective == "and" else gs_or
                    target = build(ah, bk, x, y, universe, check=False)
                else:
                    build = trivalent_and if connective == "and" else trivalent_or
                    target = build(logic, ah, bk, universe)
                ops.append(_extension_op(coh, f"{connective}_{logic}", base, target, universe,
                                         tolerance, ref.closed_form(connective, logic, x, y), logic))
    for y, z in RATIO_FORCED:
        base = coh.Assessment.build(
            [ConditionalEvent(h, TOP), ConditionalEvent(a & h, TOP)], [y, z]
        )
        forced = z / y
        op = _extension_op(coh, "ratio-forced", base, ah, universe, tolerance,
                           (forced, forced), "exact")
        op.known_fault = "ExtensionSeedError"
        ops.append(op)
    rng.shuffle(ops)
    return ops


def _extension_op(coh, label, base, target, universe, tolerance, closed, logic):
    def run():
        # A fresh 16-world Universe per call: a shared one would keep its
        # formula cache from round to round, so later rounds would run
        # warm and the rounds would differ.  extension_bounds is looked up
        # at call time, so a traced run sees its wrapper.
        fresh = type(universe)(universe.atoms)
        return coh.extension_bounds(base, target, fresh, tolerance)

    def check(result):
        return ref.interval_problems(logic, closed, Fraction(result.lower), Fraction(result.upper))

    return Op(label, run, check)


# -- in-process CLI commands -------------------------------------------------------


def _pair_family(relabel: Relabel, k, x, y):
    """A|H = x and B|K = y on four distinct literals."""
    a, h, b, kk = (relabel.lit(i) for i in range(4))
    return Family(k, [(a, h), (b, kk)], [x, y])


def _entails_family(relabel: Relabel, k, rule):
    """Premises at 1, then the unassessed target, from one of Adams'
    textbook rules; and whether the reference says the premises p-entail
    the target."""
    a, b, c, h = (relabel.lit(i) for i in range(4))
    premises, target = {
        "and": ([(a, h), (b, h)], (ref.conj(a, b), h)),
        "cut": ([(a, ref.conj(h, b)), (b, h)], (a, h)),
        "or": ([(a, h), (a, b)], (a, ref.disj(h, b))),
        "transitivity": ([(b, a), (c, b)], (c, a)),
    }[rule]
    truth = ref.p_entails(ref.Worlds(k), premises, target)
    return Family(k, premises + [target], [Fraction(1)] * len(premises) + [None]), truth


def _odd_value(rng):
    """A seeded value in (0, 1) with an odd denominator: never dyadic, so
    K bisects all the way to 2^-40 whatever the seed."""
    den = rng.choice((3, 5, 7, 9, 11))
    return Fraction(rng.randint(1, den - 1), den)


# (command, atoms, per round).  Narrow files have 4 atoms and wide ones
# WIDE; parsing, world enumeration and per-world pattern scans grow with
# the 2^atoms worlds, the LPs do not.  Sorted by cost, `entails-and` on
# narrow files holds the median and on wide files the 90th percentile.
# An entails file is fixed by its rule up to the seed's relabelling, so
# those classes cost the same in every run.
WIDE = 10
CLI_MIX = (
    ("check-coherent", 4, 1), ("check-incoherent", 4, 1), ("dutchbook-coherent", 4, 1),
    ("dutchbook-incoherent", 4, 1), ("bounds-gs", 4, 2),
    ("check-coherent", WIDE, 1), ("check-incoherent", WIDE, 1), ("dutchbook-incoherent", WIDE, 1),
    ("bounds-gs", WIDE, 2),
    ("entails-and", 4, 10),
    ("entails-or", 4, 1), ("entails-cut", 4, 1), ("entails-transitivity", 4, 1),
    ("bounds-K", 4, 1), ("bounds-K", WIDE, 1),
    ("entails-and", WIDE, 6),
    ("entails-or", WIDE, 1), ("entails-cut", WIDE, 1), ("entails-transitivity", WIDE, 1),
)


def cli_commands(seed: int, workdir: str):
    rng = random.Random(seed)
    ops = []
    for command, k, count in CLI_MIX:
        verb, _, variant = command.partition("-")
        for j in range(count):
            trng = random.Random(f"{TEMPLATE_SEED}-{command}-{k}-{j}")
            name = f"cli-{command}-{k}-{j}.coh"
            label = f"{command} atoms={k}"
            if variant == "coherent":
                fam = coherent_family(rng, trng, _template(trng, k, 3), k)
                ops.append(_check_op(label, _write(workdir, name, fam), fam, True, verb))
            elif variant == "incoherent":
                fam = shallow_family(rng, trng, k, 3)
                ops.append(_check_op(label, _write(workdir, name, fam), fam, False, verb))
            elif verb == "bounds":
                connective = ("and", "or")[j % 2]
                x, y = _odd_value(rng), _odd_value(rng)
                path = _write(workdir, name, _pair_family(Relabel(rng, k), k, x, y))
                argv = ["bounds", path, "--op", variant, "--kind", connective]
                ops.append(_cli_op(label, argv, lambda code, out, _l=variant, _c=connective,
                                   _x=x, _y=y: check_bounds_problems(_l, _c, _x, _y, code, out)))
            else:
                fam, truth = _entails_family(Relabel(rng, k), k, variant)
                path = _write(workdir, name, fam)
                argv = ["entails", path, "--target", f"e{len(fam.events)}"]
                ops.append(_cli_op(label, argv,
                                   lambda code, out, _t=truth: check_entails_problems(_t, code, out)))
    rng.shuffle(ops)
    return ops


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


WORKLOADS = {
    "check-coherent": check_coherent,
    "check-incoherent": check_incoherent,
    "extension-grid": extension_grid,
    "cli-commands": cli_commands,
}
