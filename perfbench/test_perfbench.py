"""Tests of the benchmark itself: the reference checker and the tracer.

    python -m pytest perfbench
"""

import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

A, B, H, K = (ref.atom(i) for i in range(4))


def test_worlds_and_distribution_agree_with_direct_enumeration():
    worlds = ref.Worlds(5)
    f = ref.disj(ref.conj(A, ref.neg(B)), H)
    bits = worlds.bits(f)
    for w in range(32):
        a, b, h = w & 1, w >> 1 & 1, w >> 2 & 1
        assert (bits >> w & 1) == int((a and not b) or h)
    dist = ref.Distribution(random.Random(1), 5)
    assert dist.mass(bits) == sum(dist.weight(w) for w in range(32) if bits >> w & 1)


def test_p_entailment_reference_on_textbook_rules():
    worlds = ref.Worlds(4)
    assert ref.p_entails(worlds, [(A, H), (B, H)], (ref.conj(A, B), H))
    assert ref.p_entails(worlds, [(A, ref.conj(H, B)), (B, H)], (A, H))
    assert not ref.p_entails(worlds, [(A, H)], (A, ref.conj(H, B)))
    assert not ref.p_entails(worlds, [(B, A), (K, B)], (K, A))


def _incoherent_report():
    fam = wl.Family(2, [(A, ref.TRUE), (B, ref.TRUE), (ref.disj(A, B), ref.TRUE)],
                    [Fraction(2, 5), Fraction(3, 10), Fraction(4, 5)])
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "triple.coh"
        path.write_text(fam.text())
        code, out, _err = wl.cli_in_process(["check", str(path)])
    return fam, code, out


def test_checker_accepts_cohkit_book_and_rejects_tampering():
    fam, code, out = _incoherent_report()
    assert wl.check_verdict_problems(fam, False, code, out) == []
    report = ref.parse_report(out)
    worlds = ref.Worlds(fam.k)
    subfamily = [int(i) - 1 for i in ref.parse_list(report["failing-subfamily"])]
    stakes = [ref.parse_number(s) for s in ref.parse_list(report["stakes"])]
    margin = ref.parse_number(report["margin"])
    book = ref.book_problems
    assert book(worlds, fam.events, fam.values, subfamily, stakes, margin) == []
    flipped = [-stakes[0]] + stakes[1:]
    assert book(worlds, fam.events, fam.values, subfamily, flipped, margin)
    assert book(worlds, fam.events, fam.values, subfamily, stakes, margin / 2)

    dominator = [ref.parse_number(v) for v in ref.parse_list(report["brier-dominator"])]
    dom = ref.dominator_problems
    assert dom(worlds, fam.events, fam.values, dominator) == []
    nudged = list(dominator)
    nudged[2] += Fraction(1, 5)
    assert dom(worlds, fam.events, fam.values, nudged)
    assert dom(worlds, fam.events, fam.values, list(fam.values))


def test_checker_rejects_shifted_endpoints():
    closed = ref.closed_form("and", "S", Fraction(1, 2), Fraction(2, 3))
    assert ref.interval_problems("S", closed, *closed) == []
    assert ref.interval_problems("S", closed, closed[0] + Fraction(1, 10**9), closed[1])
    lo, hi = ref.closed_form("or", "K", Fraction(1, 3), Fraction(1, 4))
    inside = hi - Fraction(1, 2**41)
    assert ref.interval_problems("K", (lo, hi), lo, inside) == []
    assert ref.interval_problems("K", (lo, hi), lo, hi - Fraction(1, 2**39))
    assert ref.interval_problems("K", (lo, hi), lo - Fraction(1, 2**50), hi)


def _seed_error():
    raise type("ExtensionSeedError", (Exception,), {})("no dyadic probe")


def test_round_counts_failures_and_adjusts_for_host_speed():
    import run

    ops = [wl.Op("ok", lambda: 1, lambda _r: []),
           wl.Op("forced", _seed_error, lambda _r: [], known_fault="ExtensionSeedError"),
           wl.Op("wrong", lambda: 2, lambda _r: ["off by one"])]
    outcome = run.Outcome()
    run.run_round(ops, outcome)
    assert (outcome.attempted, outcome.failed, len(outcome.samples)) == (3, 2, 1)
    assert outcome.known == {"forced: ExtensionSeedError"}
    assert outcome.problems == ["wrong: off by one"]
    assert run.adjusted(3.0, 2e-3, 4e-3) == pytest.approx(3.0 * run.REFERENCE_CALIBRATION_S / 3e-3)


DETERMINISTIC = (
    "fileio.parse_calls", "events.universe_calls", "events.worlds",
    "events.constituents_calls", "coherence.pattern_world_scans",
    "coherence.check_calls", "coherence.subfamilies", "extension.coherent_at_calls",
    "lp.hull_calls", "lp.range_calls", "lp.simplex_calls",
    "lp.tableau_cells_sum", "lp.tableau_cells_max",
)


def _traced_counts(workload, seed, limit):
    with tempfile.TemporaryDirectory() as workdir:
        ops = wl.WORKLOADS[workload](seed, workdir)[:limit]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for index, op in enumerate(ops):
                try:
                    tracer.op_span(index, op.run)
                except Exception as exc:  # the known fault still leaves spans
                    assert type(exc).__name__ == op.known_fault
        finally:
            tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, len(ops))
    return {name: metrics[name][0] for name in DETERMINISTIC}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_work_counts_repeat_exactly(workload):
    first = _traced_counts(workload, 7, 12)
    assert first == _traced_counts(workload, 7, 12)
    assert first["lp.hull_calls"] > 0 and first["lp.simplex_calls"] > 0


def test_wrappers_are_removed_after_a_traced_run():
    import cohkit.coherence
    import cohkit.lp

    originals = (cohkit.coherence.hull_membership, cohkit.lp.run_simplex,
                 cohkit.coherence.MemberTable.__dict__["patterns"])
    tracer = tracing.Tracer()
    tracer.install()
    assert cohkit.lp.run_simplex is not originals[1]
    tracer.uninstall()
    assert (cohkit.coherence.hull_membership, cohkit.lp.run_simplex,
            cohkit.coherence.MemberTable.__dict__["patterns"]) == originals


def test_importtime_parser_keeps_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        900 |     scipy.optimize",
        "import time:       500 |       1900 |   cohkit.coherence",
        "import time:        10 |       2000 | cohkit",
    ])
    times = tracing.parse_importtime(text)
    assert times["import.cohkit_s"][0] == pytest.approx(0.002)
    assert times["import.scipy_s"][0] == pytest.approx(0.0012)
