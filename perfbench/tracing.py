"""Spans around the calls into cohkit's layers, from outside cohkit.

Tracing replaces module attributes where callers look the names up (for
example `cohkit.coherence.hull_membership`, which coherence calls, and
`cohkit.lp.run_simplex`, which lp calls) with wrappers that record a
span: name, start, end, parent span, operation id and an optional work
count.  Spans stay in memory and are written out when the run ends.
A patch point that a later version of cohkit no longer has is skipped,
so its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class
PATCHES = (
    ("cohkit.cli", "parse_assessment_file", "fileio.parse"),
    ("cohkit.fileio", "Universe", "events.universe"),
    ("cohkit.cli", "enumerate_constituents", "events.constituents"),
    ("cohkit.coherence", "enumerate_constituents", "events.constituents"),
    ("cohkit.compound", "enumerate_constituents", "events.constituents"),
    ("cohkit.coherence", "MemberTable.patterns", "coherence.patterns"),
    ("cohkit.coherence", "MemberTable.subfamily_hull", "coherence.subfamily"),
    ("cohkit.cli", "check_coherence", "coherence.check"),
    ("cohkit.coherence", "check_coherence", "coherence.check"),
    ("cohkit.compound", "check_coherence", "coherence.check"),
    ("cohkit.compound", "check_coherence_members", "coherence.check"),
    ("cohkit.cli", "dutch_book", "coherence.dutch_book"),
    ("cohkit.cli", "brier_dominator", "coherence.dominator"),
    ("cohkit.cli", "extension_bounds", "extension.bounds"),
    ("cohkit.coherence", "extension_bounds", "extension.bounds"),
    ("cohkit.coherence", "ExtensionProblem.coherent_at", "extension.coherent_at"),
    ("cohkit.coherence", "ExtensionProblem.bisect_interval", "extension.bisect"),
    ("cohkit.coherence", "ExtensionProblem.exact_interval", "extension.exact"),
    ("cohkit.coherence", "hull_membership", "lp.hull"),
    ("cohkit.coherence", "polytope_range", "lp.range"),
    ("cohkit.lp", "run_simplex", "lp.simplex"),
    ("cohkit.cli", "p_consistent", "compound.entails"),
    ("cohkit.cli", "p_entails", "compound.entails"),
    ("cohkit.cli", "p_entails_absorption", "compound.entails"),
    ("cohkit.cli", "render", "report.render"),
)


def _work_universe(_args, result):
    return len(result)


def _work_simplex(args, _result):
    tableau = args[0]
    return len(tableau) * len(tableau[0]) if tableau else 0


class Tracer:
    """Span recorder.  A span is [name, start, end, parent, op, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self._undo = []

    def wrap(self, fn, name, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.op, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced

    def wrap_patterns(self, fn, name):
        """MemberTable.patterns caches per subfamily; count the worlds a
        call scans only when it misses that cache."""
        traced = self.wrap(fn, name)
        spans = self.spans

        def counting(table, subset, *args, **kwargs):
            cache = getattr(table, "_groups", None)
            scanned = 0 if cache is not None and subset in cache else table.num_worlds
            index = len(spans)
            result = traced(table, subset, *args, **kwargs)
            spans[index][5] = scanned
            return result

        return counting

    def install(self):
        works = {"events.universe": _work_universe, "lp.simplex": _work_simplex}
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            if target is None or not hasattr(target, leaf):
                continue
            original = target.__dict__[leaf] if owner else getattr(target, leaf)
            if name == "coherence.patterns":
                wrapped = self.wrap_patterns(original, name)
            else:
                wrapped = self.wrap(original, name, works.get(name))
            setattr(target, leaf, wrapped)
            self._undo.append((target, leaf, original))

    def uninstall(self):
        while self._undo:
            target, leaf, original = self._undo.pop()
            setattr(target, leaf, original)

    def op_span(self, op_id, fn):
        """Run fn as the root span of one operation."""
        self.op = op_id
        try:
            return self.wrap(fn, "op")()
        finally:
            self.op = None


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer figures from one round's spans; times in seconds,
    inclusive of nested layers unless the name says self."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    work_max = defaultdict(int)
    child = defaultdict(float)
    by_index = {}
    for index, (name, start, end, parent, _op, amount) in enumerate(spans):
        by_index[index] = (name, parent)
        duration = end - start
        total[name] += duration
        calls[name] += 1
        work[name] += amount
        work_max[name] = max(work_max[name], amount)
        if parent is not None:
            child[parent] += duration
    base_check = 0.0
    for index, (name, start, end, parent, _op, _amount) in enumerate(spans):
        self_time[name] += (end - start) - child[index]
        if name == "coherence.check" and _has_ancestor(by_index, parent, "extension.bounds"):
            base_check += end - start
    ops = max(ops, 1)
    return {
        "fileio.parse_s": (total["fileio.parse"], "s"),
        "fileio.parse_calls": (calls["fileio.parse"], "count"),
        "events.universe_s": (total["events.universe"], "s"),
        "events.universe_calls": (calls["events.universe"], "count"),
        "events.worlds": (work["events.universe"], "count"),
        "events.constituents_s": (total["events.constituents"], "s"),
        "events.constituents_calls": (calls["events.constituents"], "count"),
        "coherence.patterns_s": (total["coherence.patterns"], "s"),
        "coherence.pattern_world_scans": (work["coherence.patterns"], "count"),
        "coherence.check_calls": (calls["coherence.check"], "count"),
        "coherence.checks_per_op": (calls["coherence.check"] / ops, "count/op"),
        "coherence.check_s": (total["coherence.check"], "s"),
        "coherence.subfamilies": (calls["coherence.subfamily"], "count"),
        "coherence.dutch_book_s": (self_time["coherence.dutch_book"], "s"),
        "coherence.dominator_s": (self_time["coherence.dominator"], "s"),
        "extension.bounds_s": (total["extension.bounds"], "s"),
        "extension.coherent_at_calls": (calls["extension.coherent_at"], "count"),
        "extension.bisect_s": (total["extension.bisect"], "s"),
        "extension.exact_s": (total["extension.exact"], "s"),
        "extension.base_check_s": (base_check, "s"),
        "lp.hull_calls": (calls["lp.hull"], "count"),
        "lp.hull_s": (total["lp.hull"], "s"),
        "lp.hulls_per_op": (calls["lp.hull"] / ops, "count/op"),
        "lp.range_calls": (calls["lp.range"], "count"),
        "lp.range_s": (total["lp.range"], "s"),
        "lp.simplex_calls": (calls["lp.simplex"], "count"),
        "lp.simplex_s": (total["lp.simplex"], "s"),
        "lp.tableau_cells_sum": (work["lp.simplex"], "count"),
        "lp.tableau_cells_max": (work_max["lp.simplex"], "count"),
        "compound.entails_s": (total["compound.entails"], "s"),
        "report.render_s": (total["report.render"], "s"),
    }


def _has_ancestor(by_index, parent, wanted) -> bool:
    while parent is not None:
        name, parent_of = by_index[parent]
        if name == wanted:
            return True
        parent = parent_of
    return False


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(root: str, env: dict) -> dict:
    """`python -X importtime -c "import cohkit"`: cumulative seconds of
    cohkit and of the outermost scipy imports it triggers."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cohkit"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import cohkit failed: {proc.stderr.strip()}")
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    cohkit_us = 0
    scipy_us = 0
    scipy_depth = None
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        cumulative, depth, module = int(m.group(2)), len(m.group(3)), m.group(4)
        if module == "cohkit":
            cohkit_us = cumulative
        if module == "scipy" or module.startswith("scipy."):
            # importtime prints children before parents; keep the outermost
            if scipy_depth is None or depth < scipy_depth:
                scipy_depth, scipy_us = depth, 0
            if depth == scipy_depth:
                scipy_us += cumulative
    return {
        "import.cohkit_s": (cohkit_us / 1e6, "s"),
        "import.scipy_s": (scipy_us / 1e6, "s"),
    }


def dump_spans(path: str, spans, extra: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(extra) + "\n")
        for name, start, end, parent, op, work in spans:
            handle.write(json.dumps([name, start, end, parent, op, work]) + "\n")
