"""Hypothesis fuzz of the assessment-file parser and the CLI.

Inputs are the sample files of tests/data with lines dropped,
duplicated, swapped, cut short, spliced with fragments or replaced, and
arbitrary text.  Whatever the input, parse_assessment_file returns or
raises FileFormatError, and check, dutchbook and entails end in exit
code 0, 1 or 2, never in a traceback, with `error: ...` on stderr for
exit 2.  Every call runs in this process, so one cached argparse parser
serves them all.
"""

import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cohkit.fileio import FileFormatError, parse_assessment_file

from test_cli import run_captured

DATA = Path(__file__).parent / "data"
SAMPLES = [path.read_text().splitlines() for path in sorted(DATA.glob("*.coh"))]

TOKENS = st.sampled_from(
    "atoms constraint event assess target given TRUE FALSE = | & ~ ( ) # "
    "A B H K E e1 e2 ah bk inner 0 1 1/2 0.25 2/3 -1 3/0 1.5 . / ".split(" ")
)
TEXT = st.characters(blacklist_categories=("Cs",))
FRAGMENTS = st.one_of(st.text(TEXT, max_size=12), st.lists(TOKENS, max_size=6).map(" ".join))
EDITS = ("drop", "duplicate", "swap", "cut", "splice", "replace")


@st.composite
def mutated_samples(draw):
    lines = list(draw(st.sampled_from(SAMPLES)))
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append(draw(FRAGMENTS))
            continue
        edit = draw(st.sampled_from(EDITS))
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif edit == "splice":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(FRAGMENTS) + lines[i][at:]
        else:
            lines[i] = draw(FRAGMENTS)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_samples(), st.text(TEXT, max_size=200)))
def test_parser_and_cli_survive_any_input(text):
    try:
        parse_assessment_file(text)
    except FileFormatError:
        pass
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "input.coh")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command in ("check", "dutchbook", "entails"):
            code, _out, err = run_captured([command, path])
            assert code in (0, 1, 2), (command, code)
            if code == 2:
                assert err.startswith("error: ") and "Traceback" not in err, err
