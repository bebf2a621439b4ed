"""Malformed input files end in one error line, never in a traceback.

Valid .cplx and .coloring texts are mutated line by line (lines deleted,
repeated, swapped, replaced or inserted, single tokens rewritten).  Parsing
a mutant may only raise ValueError or a CorridorsError, and it gives the
same object or error, message included, as the line-by-line references.
The CLI commands that read files (diameter, verify, quotient, refine) must
return an exit code, with exactly one `error:` line on stderr when it is 2
or 3.  Each command runs under a time limit, so work sized by a mutated
header fails the test instead of exhausting memory.  `color` is left out:
its output follows the declared vertex count by design.

`pipeline` takes no input file; a table of its options outside their range,
runs that exhaust their budget and an unwritable report path pins the same
contract for it.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors import (
    CorridorsError,
    CorridorSpec,
    coloring_from_text,
    coloring_to_text,
    complex_from_text,
    complex_to_text,
    greedy_window_coloring,
    straight_corridor,
)
from corridors.cli import main
from conftest import parse_outcome, time_limit
from naive_reference import ref_coloring_from_text, ref_complex_from_text

SOURCE = straight_corridor(CorridorSpec(8, 3))
COMPLEX_TEXT = complex_to_text(SOURCE)
COLORING_TEXT = coloring_to_text(greedy_window_coloring(SOURCE, 5, 0))

# tokens of both formats, with values around every range edge
TOKENS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["dim", "vertices", "colors", "#", "x", "1.5", "0x3", "10000000000"]),
)
LINES = st.lists(TOKENS, max_size=5).map(" ".join)


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "repeat", "swap", "replace", "insert", "token"]))
        if not lines:
            kind = "insert"
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "delete":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "replace":
            lines[i] = draw(LINES)
        elif kind == "insert":
            lines.insert(i, draw(LINES))
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def parses(parse, text):
    """True if text parses; only the package's documented errors may escape."""
    try:
        parse(text)
    except (ValueError, CorridorsError):
        return False
    return True


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), time_limit(10):
        code = main(list(argv))
    return code, err.getvalue()


def check_exit(code, err):
    assert "Traceback" not in err
    if code in (2, 3):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert code in (0, 1) and err == ""


def mutated_or_valid(text):
    return st.one_of(mutated(text), st.just(text))


@given(mutated(COMPLEX_TEXT), mutated(COLORING_TEXT))
@settings(max_examples=300, deadline=None)
def test_mutated_texts_raise_only_documented_errors(complex_text, coloring_text):
    # parse_outcome lets any other error escape; a documented one must be
    # the line-by-line reference's, message included
    assert parse_outcome(complex_from_text, complex_text) == parse_outcome(
        ref_complex_from_text, complex_text
    )
    assert parse_outcome(coloring_from_text, coloring_text) == parse_outcome(
        ref_coloring_from_text, coloring_text
    )


@given(mutated_or_valid(COMPLEX_TEXT), mutated_or_valid(COLORING_TEXT))
@settings(max_examples=200, deadline=None)
def test_mutated_files_exit_cleanly(complex_text, coloring_text):
    complex_ok = parses(complex_from_text, complex_text)
    coloring_ok = parses(coloring_from_text, coloring_text)
    with tempfile.TemporaryDirectory() as tmp:
        cplx, coloring, out, refined = (
            Path(tmp) / name for name in ("c.cplx", "f.coloring", "q.cplx", "g.coloring")
        )
        cplx.write_text(complex_text)
        coloring.write_text(coloring_text)
        code, err = run_main("diameter", "--in", str(cplx))
        check_exit(code, err)
        assert complex_ok or code == 2
        for argv in (
            ["verify", "--in", str(cplx), "--coloring", str(coloring)],
            ["quotient", "--in", str(cplx), "--coloring", str(coloring), "--out", str(out)],
            [
                "refine", "--in", str(cplx), "--coloring", str(coloring),
                "--shape", "corridor", "--out", str(refined),
            ],
        ):
            code, err = run_main(*argv)
            check_exit(code, err)
            assert (complex_ok and coloring_ok) or code == 2


# pipeline options outside their range, and runs that exhaust their budget
PIPELINE_FAILURES = [
    (["--epsilon", "nan"], 2),
    (["--epsilon", "inf"], 2),
    (["--epsilon", "-1"], 2),
    (["--retries", "0"], 2),
    (["--dim", "2"], 2),
    (["--n", "2"], 2),
    (["--c1", "12"], 2),
    (["--window", "-1"], 2),
    (["--window", "13"], 2),
    (["--c2", "0"], 2),
    (["--max-resamples", "-1"], 2),
    (["--c2", "1", "--max-resamples", "5"], 3),
    (["--s-policy", "strict"], 3),
]


@pytest.mark.parametrize(
    "options,expected", PIPELINE_FAILURES, ids=[" ".join(o) for o, _ in PIPELINE_FAILURES]
)
def test_pipeline_failures_exit_cleanly(options, expected):
    base = {"--mode": "simplicial", "--dim": "3", "--n": "40", "--c1": "13", "--seed": "0"}
    for option, value in zip(options[::2], options[1::2]):
        base[option] = value
    argv = ["pipeline", *(token for pair in base.items() for token in pair)]
    code, err = run_main(*argv)
    assert code == expected
    check_exit(code, err)


def test_pipeline_unwritable_out_exits_cleanly(tmp_path):
    out = tmp_path / "missing" / "report.json"
    code, err = run_main(
        "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "40", "--c1", "13",
        "--out", str(out),
    )
    assert code == 2
    check_exit(code, err)
    assert not out.exists()
